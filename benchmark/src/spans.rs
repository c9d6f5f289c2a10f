//! Host-time spans recorded by the harness around its own calls into the
//! simulator (spans inside the simulator are a later issue). Kept in
//! memory and written out once, when the workload ends.

use std::time::Instant;

use crate::json::{obj, Json};

/// Index of a span in its [`SpanLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    counters: Vec<(&'static str, u64)>,
}

/// The spans of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span caused by `parent`.
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span, attaching the counter deltas observed across it.
    pub fn end(&mut self, id: SpanId, counters: Vec<(&'static str, u64)>) {
        let now = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        span.counters = counters;
    }

    /// Self time of a span: its duration minus what its children cover.
    fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(SpanId(id)))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(covered)
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("id", Json::from(i as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p.0 as u64)),
                    ),
                    ("name", Json::from(s.name.as_str())),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("self_ns", Json::from(self.self_ns(i))),
                    (
                        "counters",
                        obj(s.counters.iter().map(|&(k, v)| (k, Json::from(v)))),
                    ),
                ])
            })
            .collect();
        obj([
            ("workload", Json::from(workload)),
            ("seed", Json::from(seed)),
            (
                "clock",
                Json::from("host monotonic ns since the traced run began"),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new();
        let root = log.begin("workload", None);
        let child = log.begin("measure", Some(root));
        log.end(child, vec![("ops", 7)]);
        log.end(root, vec![]);
        // Pin the clock so the arithmetic is checkable.
        log.spans[0].start_ns = 0;
        log.spans[0].end_ns = 100;
        log.spans[1].start_ns = 10;
        log.spans[1].end_ns = 70;
        let doc = log.to_json("w", 3);
        let spans = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(spans[0].get("self_ns").and_then(Json::as_f64), Some(40.0));
        assert_eq!(spans[1].get("self_ns").and_then(Json::as_f64), Some(60.0));
        assert_eq!(spans[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        let ops = spans[1].get("counters").and_then(|c| c.get("ops"));
        assert_eq!(ops.and_then(Json::as_f64), Some(7.0));
    }
}
