//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark made into a layer (or one request's
//! stay in a layer, reconstructed from adapter timestamps): a name, start
//! and end relative to the run's epoch, the span that caused it and the
//! request it belongs to. Spans stay in memory while the run measures and
//! are written out once it ends. A layer's self time is its span minus the
//! part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
}

/// Spans of one traced run. Disabled recorders (untraced runs) store
/// nothing, so call sites need no branches.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self { epoch: Instant::now(), enabled, spans: Vec::new() }
    }

    /// Nanoseconds from the run's epoch to `at` (0 before the epoch).
    pub fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span from two instants; returns its id (also when
    /// disabled, so parents can be passed along unconditionally).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.spans.push(Span { name, start_ns, end_ns: end_ns.max(start_ns), parent, request });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        self.record(name, start, Instant::now(), parent, request);
        value
    }

    /// Opens a span whose end is set later with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Ends a span opened with [`Spans::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.offset(Instant::now());
            self.spans[id].end_ns = end.max(self.spans[id].start_ns);
        }
    }

    /// Per span name: count, total duration and self time (duration minus
    /// the union of its children's intervals, clipped to the parent), in
    /// nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns))
                })
                .filter(|(s, e)| e > s)
                .collect();
            covered.sort_unstable();
            let (mut union, mut reach) = (0, span.start_ns);
            for (s, e) in covered {
                let s = s.max(reach);
                if e > s {
                    union += e - s;
                    reach = e;
                }
            }
            let total = span.end_ns - span.start_ns;
            let entry = table.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(union);
        }
        table
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> std::io::Result<()> {
        for span in &self.spans {
            let parent = span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let request = span.request.map_or_else(|| "null".to_owned(), |r| r.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut spans = Spans::new(true);
        let t = spans.epoch;
        let at = |us: u64| t + Duration::from_micros(us);
        let root = spans.record("root", at(0), at(100), None, Some(1));
        spans.record("a", at(10), at(40), root, Some(1));
        spans.record("b", at(30), at(50), root, Some(1)); // overlaps a
        let table = spans.self_times();
        assert_eq!(table["root"], (1, 100_000, 60_000));
        assert_eq!(table["a"], (1, 30_000, 30_000));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        let id = spans.time("x", None, None, || 3);
        assert_eq!(id, 3);
        assert!(spans.self_times().is_empty());
    }
}
