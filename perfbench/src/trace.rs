//! In-memory spans around the benchmark's calls into each layer,
//! written out as a Chrome trace when the traced run ends.
//!
//! Spans are only recorded when the tracer is on; an untraced run pays
//! one branch per call site.

use pacq_trace::{ChromeTrace, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Parent span id, 0 at the root.
    pub parent: u64,
    /// Span name, `layer.call`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Recording thread's lane.
    pub lane: u64,
}

/// The span store.
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static LANE: u64 = {
        static NEXT_LANE: AtomicU64 = AtomicU64::new(1);
        NEXT_LANE.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Opens a span under `parent` (0 for a root); it closes when the
    /// guard drops. Returns an inert guard with id 0 when off.
    pub fn span(&self, name: impl Into<String>, parent: u64) -> Guard<'_> {
        let on = self.is_on();
        Guard {
            tracer: self,
            id: if on { self.next_id() } else { 0 },
            parent,
            name: if on { name.into() } else { String::new() },
            start: Instant::now(),
        }
    }

    fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records an already-finished interval (a pipelined request whose
    /// start and end were taken on the wire). No-op when off.
    pub fn record(&self, name: &str, parent: u64, start: Instant, end: Instant) {
        if self.is_on() {
            self.push(self.next_id(), parent, name.to_string(), start, end);
        }
    }

    fn push(&self, id: u64, parent: u64, name: String, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            lane: LANE.with(|l| *l),
        };
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Writes every span as a complete event of a Chrome trace; the
    /// span id and parent id ride along in `args`.
    pub fn write_chrome(&self, path: &str) -> pacq_error::PacqResult<usize> {
        let spans = self.spans();
        let mut trace = ChromeTrace::new();
        for s in &spans {
            let category = s.name.split('.').next().unwrap_or("bench");
            trace.complete_event(
                &s.name,
                category,
                1,
                s.lane,
                s.start_ns / 1000,
                ((s.end_ns - s.start_ns) / 1000).max(1),
                &[("id", Json::from(s.id)), ("parent", Json::from(s.parent))],
            );
        }
        trace.set_metadata("producer", Json::from("pacq-perfbench"));
        trace.write_to(path)?;
        Ok(spans.len())
    }
}

/// An open span.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
}

impl Guard<'_> {
    /// This span's id, the parent for spans it causes (0 when off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.id != 0 {
            let name = std::mem::take(&mut self.name);
            self.tracer
                .push(self.id, self.parent, name, self.start, Instant::now());
        }
    }
}

/// Per-name totals: count, total and self time (the span's duration
/// minus the part its child spans cover), in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ms: f64,
    /// Summed self time.
    pub self_ms: f64,
}

/// Folds spans into per-name totals, sorted by name.
pub fn totals(spans: &[Span]) -> BTreeMap<String, SpanTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.name.clone()).or_default();
        entry.count += 1;
        entry.total_ms += (s.end_ns - s.start_ns) as f64 / 1e6;
        entry.self_ms += (s.end_ns - s.start_ns - covered) as f64 / 1e6;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`; children
/// on parallel threads may overlap each other.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in v {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered_ns(&[(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(covered_ns(&[(0, 200)], 50, 100), 50);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let span = |id, parent, name: &str, start_ns, end_ns| Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            lane: 1,
        };
        let spans = [
            span(1, 0, "phase", 0, 10_000_000),
            span(2, 1, "call", 1_000_000, 4_000_000),
            span(3, 1, "call", 5_000_000, 6_000_000),
        ];
        let t = totals(&spans);
        assert_eq!(t["phase"].count, 1);
        assert!((t["phase"].self_ms - 6.0).abs() < 1e-9);
        assert_eq!(t["call"].count, 2);
        assert!((t["call"].total_ms - 4.0).abs() < 1e-9);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let g = tracer.span("x", 0);
            assert_eq!(g.id(), 0);
        }
        assert!(tracer.spans().is_empty());
    }
}
