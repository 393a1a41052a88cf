//! JSON Lines export of diaries, spans and metric snapshots.
//!
//! One self-describing JSON object per line, distinguished by a `"type"`
//! field (`event`, `span`, `metric`), so a whole run can be concatenated
//! into a single `.jsonl` stream and filtered with standard tooling. The
//! encoder is hand-rolled (no serde — vendored builds must stay offline)
//! and emits `null` for non-finite floats, which JSON cannot represent.

use std::fmt::Write as _;

use simcore::trace::{Diary, Entry};

use crate::registry::{MetricValue, Snapshot};
use crate::span::Span;

/// Appends `s` to `out` with JSON string escaping. Strings with nothing
/// to escape — no `"`, `\\` or control byte — are copied whole.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    // A fold without early exit: the compiler vectorizes it, and almost
    // every message is scanned to the end anyway.
    let needs_escape =
        s.bytes().fold(false, |acc, b| acc | (b == b'"') | (b == b'\\') | (b < 0x20));
    if !needs_escape {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` as a JSON number, or `null` if non-finite.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// The fixed head of an event line up to its message, assembled as
/// ASCII bytes: `{"type":"event","t":…,"sev":"…","tier":"…","msg":`.
struct EventHead {
    bytes: [u8; EventHead::CAP],
    len: usize,
}

impl EventHead {
    /// The longest head: a 20-digit timestamp, `INCIDENT`, `backhaul`.
    const CAP: usize = 96;

    fn new(e: &Entry) -> EventHead {
        let mut head = EventHead { bytes: [0; Self::CAP], len: 0 };
        head.put(b"{\"type\":\"event\",\"t\":");
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut v = e.at.as_secs();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        head.put(&digits[start..]);
        // Severity and tier names are plain ASCII words: nothing to escape.
        head.put(b",\"sev\":\"");
        head.put(e.severity.as_str().as_bytes());
        head.put(b"\",\"tier\":\"");
        head.put(e.tier.as_str().as_bytes());
        head.put(b"\",\"msg\":");
        head
    }

    fn put(&mut self, bytes: &[u8]) {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn as_str(&self) -> &str {
        // Every byte put is ASCII, so this check cannot fail; it costs a
        // pass over one short line.
        core::str::from_utf8(&self.bytes[..self.len]).unwrap_or_default()
    }
}

/// Bytes of one event line besides its message, with room for the
/// longest severity, tier and timestamp.
const EVENT_LINE_OVERHEAD: usize = 88;

/// Renders a diary as JSONL: one `{"type":"event",…}` object per entry.
pub fn diary_to_jsonl(diary: &Diary) -> String {
    let entries = diary.entries();
    let mut out = String::with_capacity(
        entries.iter().map(|e| e.message.len() + EVENT_LINE_OVERHEAD).sum(),
    );
    for e in entries {
        out.push_str(EventHead::new(e).as_str());
        push_escaped(&mut out, &e.message);
        out.push_str("}\n");
    }
    out
}

/// Renders spans as JSONL: one `{"type":"span",…}` object per span; open
/// spans export `"end":null`.
pub fn spans_to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str("{\"type\":\"span\",\"name\":");
        push_escaped(&mut out, &s.name);
        let _ = write!(out, ",\"start\":{}", s.start.as_secs());
        match s.end {
            Some(end) => {
                let _ = write!(out, ",\"end\":{}", end.as_secs());
            }
            None => out.push_str(",\"end\":null"),
        }
        out.push_str("}\n");
    }
    out
}

/// Renders a metric snapshot as JSONL: one `{"type":"metric",…}` object
/// per metric, in name order.
pub fn snapshot_to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in snap.entries() {
        out.push_str("{\"type\":\"metric\",\"name\":");
        push_escaped(&mut out, name);
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, ",\"kind\":\"counter\",\"value\":{v}");
            }
            MetricValue::Gauge(v) => {
                out.push_str(",\"kind\":\"gauge\",\"value\":");
                push_f64(&mut out, *v);
            }
            MetricValue::Histogram { bounds, counts, count, sum } => {
                out.push_str(",\"kind\":\"histogram\",\"bounds\":[");
                for (i, b) in bounds.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_f64(&mut out, *b);
                }
                out.push_str("],\"counts\":[");
                for (i, c) in counts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{c}");
                }
                let _ = write!(out, "],\"count\":{count},\"sum\":");
                push_f64(&mut out, *sum);
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Buckets, Registry};
    use crate::span::SpanLog;
    use simcore::time::SimTime;
    use simcore::trace::{Severity, Tier};

    #[test]
    fn diary_lines_are_one_object_each() {
        let mut d = Diary::new();
        d.log(SimTime::from_years(1), Severity::Incident, Tier::Gateway, "gw \"g0\" died\n");
        let out = diary_to_jsonl(&d);
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("\"sev\":\"INCIDENT\""));
        assert!(out.contains("\\\"g0\\\""), "quotes escaped: {out}");
        assert!(out.contains("\\n"), "newline escaped");
        assert!(out.ends_with("}\n"));
    }

    #[test]
    fn span_export_handles_open_spans() {
        let mut log = SpanLog::new();
        let id = log.open("outage", SimTime::from_secs(10));
        log.open("other", SimTime::from_secs(20));
        log.close(id, SimTime::from_secs(30));
        let out = spans_to_jsonl(log.spans());
        assert!(out.contains("\"start\":10,\"end\":30"));
        assert!(out.contains("\"start\":20,\"end\":null"));
    }

    #[test]
    fn snapshot_export_covers_all_kinds() {
        let reg = Registry::new();
        reg.counter("c").unwrap().add(3);
        reg.gauge("g").unwrap().set(1.5);
        let h = reg.histogram("h", Buckets::linear(0.0, 1.0, 2).unwrap()).unwrap();
        h.observe(0.5);
        let out = snapshot_to_jsonl(&reg.snapshot());
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains("\"kind\":\"counter\",\"value\":3"));
        assert!(out.contains("\"kind\":\"gauge\",\"value\":1.5"));
        assert!(out.contains("\"counts\":[1,0,0]"), "{out}");
    }

    /// The diary exporter before its fast path, kept as the oracle.
    fn diary_to_jsonl_escaping_everything(diary: &Diary) -> String {
        fn escaped(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let mut out = String::new();
        for e in diary.entries() {
            let _ = write!(out, "{{\"type\":\"event\",\"t\":{},\"sev\":", e.at.as_secs());
            escaped(&mut out, &e.severity.to_string());
            out.push_str(",\"tier\":");
            escaped(&mut out, &e.tier.to_string());
            out.push_str(",\"msg\":");
            escaped(&mut out, &e.message);
            out.push_str("}\n");
        }
        out
    }

    #[test]
    fn diary_export_matches_the_escape_everything_oracle() {
        let severities = [Severity::Info, Severity::Warning, Severity::Incident];
        let tiers = [Tier::Device, Tier::Gateway, Tier::Backhaul, Tier::Cloud, Tier::System];
        let controls: String = (0u8..0x20).map(char::from).chain(['\u{7f}']).collect();
        let messages = [
            String::new(),
            "plain ascii message".to_string(),
            "gw \"g0\" died".to_string(),
            "back\\slash \\\" mixed".to_string(),
            controls,
            "non-ASCII: Zürich, 東京, 🛰 — ok".to_string(),
            "é\"\u{1}ü\\".to_string(),
        ];
        let mut diary = Diary::new();
        let mut t = 0u64;
        for sev in severities {
            for tier in tiers {
                for msg in &messages {
                    diary.log(SimTime::from_secs(t), sev, tier, msg.clone());
                    t = t.saturating_mul(3).saturating_add(7);
                }
            }
        }
        diary.log(SimTime::from_secs(u64::MAX), Severity::Info, Tier::System, "end");
        assert_eq!(diary_to_jsonl(&diary), diary_to_jsonl_escaping_everything(&diary));
        assert_eq!(diary_to_jsonl(&Diary::new()), "");
    }

    #[test]
    fn control_chars_escape_to_unicode() {
        let mut out = String::new();
        push_escaped(&mut out, "a\u{1}b");
        assert_eq!(out, "\"a\\u0001b\"");
    }
}
