//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions, kept in memory, and written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id, in open order.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Layer name, e.g. `simcore.engine.run`.
    pub name: &'static str,
    /// Iteration or request id the span belongs to.
    pub iter: u64,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    iter: u64,
    start: u64,
}

impl Open {
    /// The id children pass as their parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Thread-safe span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<(&'static str, f64)>>,
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }

    /// Records one observation of a count measured at a layer boundary
    /// (bytes written, frames received).
    pub fn count(&self, name: &'static str, value: f64) {
        self.counts
            .lock()
            .expect("a count writer panicked")
            .push((name, value));
    }

    /// Every observation recorded under `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        let counts = self.counts.lock().expect("a count writer panicked");
        counts
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect()
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span.
    pub fn open(&self, name: &'static str, parent: Option<u32>, iter: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent,
            name,
            iter,
            start: self.now(),
        }
    }

    /// Closes a span and keeps it.
    pub fn close(&self, open: Open) {
        let end = self.now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            iter: open.iter,
            start: open.start,
            end,
        };
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(span);
    }

    /// Records a span whose instants were taken elsewhere; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        iter: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let ns =
            |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name,
            iter,
            start: ns(start),
            end: ns(end),
        };
        self.spans
            .lock()
            .expect("a span writer panicked")
            .push(span);
        id
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        iter: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, iter);
        let out = f();
        self.close(open);
        out
    }

    /// The spans recorded so far, sorted by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("a span writer panicked").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span (ns), by span id: its duration minus the part
/// of its interval that the union of its children's intervals covers.
/// Children may overlap one another (they can run on parallel threads).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end - s.start) - covered)
        })
        .collect()
}

/// Per-layer self-time statistics: `(calls, total ns, per-call ns)`.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, Vec<u64>)> {
    let own = self_times(spans);
    let mut layers: BTreeMap<&'static str, (usize, u64, Vec<u64>)> = BTreeMap::new();
    for s in spans {
        let ns = own[&s.id];
        let entry = layers.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += ns;
        entry.2.push(ns);
    }
    layers
}

/// The spans as JSON Lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"iter\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.iter, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            iter: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] has children [10,40] and [30,60] that overlap (two
        // threads) and [90,120] that spills past its end; the first child
        // has a grandchild [15,25] that must not count against the root.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 90, 120),
            span(4, Some(1), 15, 25),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 100 - 50 - 10);
        assert_eq!(own[&1], 30 - 10);
        assert_eq!(own[&2], 30);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 10);
    }

    #[test]
    fn tracer_records_parent_links_and_layers() {
        let t = Tracer::new();
        let root = t.open("root", None, 7);
        let v = t.time("leaf", Some(root.id()), 7, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let layers = layer_self_times(&spans);
        assert_eq!(layers["leaf"].0, 1);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
