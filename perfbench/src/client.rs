//! A timed client for streamed `op:"run"` requests.

use std::time::Instant;

use serve::client::{classify, Client, ClientError, Response};

/// One answered request, parsed from its frames.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Reply {
    /// `hit`, `miss`, `coalesced` or `bypass`.
    pub served: String,
    /// The run digest the daemon reported.
    pub digest: u64,
    /// `body_lines` from the result frame.
    pub body_lines: u64,
    /// Streamed body lines, in order.
    pub lines: Vec<String>,
    /// Frames received, terminal included.
    pub frames: usize,
}

impl Reply {
    /// The streamed lines rejoined into the JSONL body they came from.
    pub fn body(&self) -> String {
        let mut body = self.lines.join("\n");
        if !self.lines.is_empty() {
            body.push('\n');
        }
        body
    }
}

/// Folds one response frame into `reply`; `Ok(true)` once the terminal
/// frame has been folded in.
///
/// # Errors
///
/// An error frame, a body frame without a line, or a result frame
/// missing its fields.
pub fn absorb(reply: &mut Reply, payload: &str) -> Result<bool, String> {
    reply.frames += 1;
    match classify(payload).map_err(|e| e.to_string())? {
        Response::Stream(obj) => {
            let line = obj.str_field("line").ok_or("body frame without a line")?;
            reply.lines.push(line.to_string());
            Ok(false)
        }
        Response::Result(obj) => {
            reply.served = obj
                .str_field("served")
                .ok_or("result without 'served'")?
                .to_string();
            reply.digest = obj.u64_field("digest").ok_or("result without 'digest'")?;
            reply.body_lines = obj
                .u64_field("body_lines")
                .ok_or("result without 'body_lines'")?;
            Ok(true)
        }
        Response::Error { code, message } => Err(format!("error frame {code}: {message}")),
    }
}

/// The request payload for a streamed paper-scenario run of `seed`.
pub fn run_request(seed: u64) -> String {
    format!("{{\"op\":\"run\",\"scenario\":\"paper\",\"seed\":{seed},\"stream\":true}}")
}

/// Client-side instants of one request.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Before the request frame is written.
    pub start: Instant,
    /// After the request frame is written.
    pub sent: Instant,
    /// When the first response frame had been read.
    pub first: Instant,
    /// When the terminal frame had been read.
    pub end: Instant,
}

/// Sends one streamed run request and reads every frame of the answer.
///
/// # Errors
///
/// Transport failures and malformed or error frames.
pub fn request(client: &mut Client, seed: u64) -> Result<(Reply, Timing), String> {
    let start = Instant::now();
    client.send(&run_request(seed)).map_err(|e| e.to_string())?;
    let sent = Instant::now();
    let mut reply = Reply::default();
    let mut first = None;
    loop {
        let payload = client.read_raw().map_err(|e: ClientError| e.to_string())?;
        first.get_or_insert_with(Instant::now);
        if absorb(&mut reply, &payload)? {
            let end = Instant::now();
            let first = first.unwrap_or(end);
            return Ok((
                reply,
                Timing {
                    start,
                    sent,
                    first,
                    end,
                },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_frames_fold_into_a_reply() {
        let frames = [
            "{\"type\":\"body\",\"line\":\"{\\\"t\\\":0}\"}",
            "{\"type\":\"body\",\"line\":\"second\"}",
            "{\"type\":\"result\",\"op\":\"run\",\"served\":\"hit\",\"digest\":18446744073709551615,\"body_lines\":2}",
        ];
        let mut reply = Reply::default();
        assert_eq!(absorb(&mut reply, frames[0]), Ok(false));
        assert_eq!(absorb(&mut reply, frames[1]), Ok(false));
        assert_eq!(absorb(&mut reply, frames[2]), Ok(true));
        assert_eq!(reply.served, "hit");
        assert_eq!(reply.digest, u64::MAX);
        assert_eq!((reply.body_lines, reply.frames), (2, 3));
        assert_eq!(reply.body(), "{\"t\":0}\nsecond\n");
    }

    #[test]
    fn error_and_malformed_frames_are_refused() {
        let mut reply = Reply::default();
        let err = "{\"type\":\"error\",\"code\":\"overloaded\",\"message\":\"queue full\"}";
        assert!(absorb(&mut reply, err).unwrap_err().contains("overloaded"));
        assert!(absorb(&mut reply, "{\"type\":\"body\"}").is_err());
        assert!(absorb(&mut reply, "{\"type\":\"result\",\"served\":\"hit\"}").is_err());
        assert!(absorb(&mut reply, "not json").is_err());
    }

    #[test]
    fn request_payload_is_a_streamed_paper_run() {
        assert_eq!(
            run_request(7),
            "{\"op\":\"run\",\"scenario\":\"paper\",\"seed\":7,\"stream\":true}"
        );
    }
}
