//! In-memory spans for the traced run, and their self-time arithmetic.
//!
//! Spans are recorded by the benchmark around each call into a layer
//! (nothing inside the program is instrumented), kept in memory, and
//! written out as one JSON document when the run ends.

use park_json::Json;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `fixpoint.run`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Nanoseconds since the recorder's epoch (`start` while still open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (op) every span of one operation shares.
    pub request: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A span recorder: a stack of open spans over one thread's calls.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the spans of a new request.
    pub fn begin_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Open a span nested in the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (the innermost open one); returns its duration in
    /// nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
        self.spans[id].duration()
    }

    /// Run `f` inside a span named `name`; returns its value and the
    /// span's duration in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name);
        let value = f();
        (value, self.close(id))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON document (with self times).
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        Json::Array(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, own)| {
                    Json::object([
                        ("name", Json::str(s.name)),
                        ("request", Json::Int(s.request as i64)),
                        ("start_ns", Json::Int(s.start as i64)),
                        ("end_ns", Json::Int(s.end as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("self_ns", Json::Int(own as i64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // op [0, 100): parse [5, 15), run [20, 80) with two Γ steps
        // [25, 40) and [35, 60) that overlap, render [85, 95).
        let spans = vec![
            span("op", 0, 100, None),
            span("parse", 5, 15, Some(0)),
            span("run", 20, 80, Some(0)),
            span("step", 25, 40, Some(2)),
            span("step", 35, 60, Some(2)),
            span("render", 85, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 80, 10, 60 - 35, 15, 25, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        // Overlapping siblings double count: self times sum to more than
        // the root's duration exactly by the overlap.
        assert_eq!(total, 100 + 5);
    }

    #[test]
    fn recorder_nests_spans_and_tags_requests() {
        let mut r = Recorder::default();
        r.begin_request(7);
        let op = r.open("op");
        let (v, d) = r.time("inner", || 41 + 1);
        assert_eq!(v, 42);
        let total = r.close(op);
        assert!(d <= total);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans().iter().all(|s| s.request == 7));
        let selfs = self_times(r.spans());
        assert_eq!(selfs[0] + selfs[1], total);
    }
}
