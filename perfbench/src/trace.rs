//! Spans the benchmark records around its own calls into the system: name,
//! start, end, parent span, and the ingest or request id they belong to.
//! Spans stay in memory while the run measures and are written out when it
//! ends. With tracing off nothing is recorded.

use crate::stats;
use serde_json::{json, Value as Json};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Milliseconds since the trace's origin.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end - self.start
    }
}

/// One thread's span log; logs of several threads share an origin and are
/// merged with [`Trace::absorb`].
#[derive(Debug, Clone)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool, origin: Instant) -> Trace {
        Trace {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty log with the same origin and switch, for another thread.
    pub fn fork(&self) -> Trace {
        Trace::new(self.on, self.origin)
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e3;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span; returns its result and duration in ms. The
    /// duration is measured whether or not tracing is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, id);
        (out, end.duration_since(start).as_secs_f64() * 1e3)
    }

    /// Move another thread's spans in, re-pointing their parents.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Make `parent` the parent of every span recorded from index `first`
    /// up to (not including) `parent` itself: children are recorded before
    /// the span that encloses them ends.
    pub fn adopt(&mut self, first: usize, parent: Option<usize>) {
        if let Some(p) = parent {
            for s in &mut self.spans[first..p] {
                s.parent = Some(p);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Median duration (ms) of the spans called `name`, 0 when there are none.
    pub fn median_ms(&self, name: &str) -> f64 {
        stats::median(&self.durations(name)).unwrap_or(0.0)
    }

    /// Self times (ms) of every span called `name`: duration minus what its
    /// child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: Vec<stats::Interval> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| (c.start, c.end))
                    .collect();
                stats::self_time((s.start, s.end), &children)
            })
            .collect()
    }

    /// Spans of `name` grouped by id, summed (ms): one value per id.
    pub fn per_id_sum(&self, name: &str) -> std::collections::BTreeMap<u64, f64> {
        let mut out = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.id).or_insert(0.0) += s.ms();
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "start_ms": s.start,
                        "end_ms": s.end,
                        "parent": s.parent,
                        "id": s.id,
                    })
                })
                .collect(),
        )
    }
}

/// Cost of recording one span (ns), measured on a throwaway log: the
/// instrumentation the traced run adds to each timed call.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let origin = Instant::now();
    let mut t = Trace::new(true, origin);
    let start = Instant::now();
    for i in 0..N {
        let now = Instant::now();
        t.record("calibration", now, now, None, i as u64);
    }
    std::hint::black_box(t.len());
    start.elapsed().as_secs_f64() * 1e9 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_comes_from_child_spans_and_survives_merging() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut main = Trace::new(true, origin);
        main.record("other", at(0), at(1), None, 0);
        let mut worker = main.fork();
        let batch = worker.record("batch", at(0), at(10), None, 7);
        worker.record("apply", at(1), at(3), batch, 7);
        worker.record("capture", at(2), at(6), batch, 7);
        main.absorb(worker);
        let selfs = main.self_times("batch");
        assert_eq!(selfs.len(), 1);
        assert!((selfs[0] - 5.0).abs() < 1e-6, "{selfs:?}");
        assert_eq!(main.per_id_sum("apply").get(&7).copied(), Some(2.0));
        assert_eq!(main.median_ms("missing"), 0.0);
    }

    #[test]
    fn tracing_off_records_nothing_but_still_times() {
        let mut t = Trace::new(false, Instant::now());
        let (v, ms) = t.time("x", None, 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert_eq!(t.len(), 0);
    }
}
