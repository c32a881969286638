//! Spans around the calls the generator makes into the program.
//!
//! One span per request and a child span per public call, recorded from
//! outside the program (in-program spans are a later change). Spans live in
//! a pre-sized vector and are written out after the window, as Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::clock::{self, Stamp};
use crate::stats;

/// Spans kept per generator thread; recording stops when full, so memory
/// stays bounded however fast the workload is.
const CAPACITY: usize = 400_000;

/// Spans written to a trace file: enough requests to read a timeline
/// without archiving megabytes. Medians use every recorded span.
const FILE_SPANS: usize = 2048;

/// "No parent": the span is a request.
pub const ROOT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `ocl.write_async`.
    pub name: &'static str,
    /// Start, microseconds from the tracer's origin.
    pub start_us: f64,
    /// End, microseconds from the tracer's origin.
    pub end_us: f64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Length in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans for one generator thread. A disabled tracer reads no
/// clock and stores nothing, so the untraced runs pay one branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Stamp,
    spans: Vec<Span>,
    open: u32,
    request: u64,
    enabled: bool,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Stamp) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(if enabled { CAPACITY } else { 0 }),
            open: ROOT,
            request: 0,
            enabled,
        }
    }

    fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.enabled || self.spans.len() >= CAPACITY {
            return None;
        }
        let at = clock::micros(clock::now().since(self.origin));
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_us: at,
            end_us: at,
            parent: self.open,
            request: self.request,
        });
        self.open = index;
        Some(index)
    }

    fn end(&mut self, index: Option<u32>) {
        if let Some(index) = index {
            let at = clock::micros(clock::now().since(self.origin));
            let span = &mut self.spans[index as usize];
            span.end_us = at;
            self.open = span.parent;
        }
    }

    /// Runs `f` as request number `request` inside a request span.
    pub fn request<T>(&mut self, request: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.request = request;
        let index = self.begin("request");
        let out = f(self);
        self.end(index);
        out
    }

    /// Runs `f` inside a child span of whatever span is open.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.begin(name);
        let out = f();
        self.end(index);
        out
    }

    /// Forgets everything recorded so far (the end of warm-up).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open = ROOT;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's duration minus the part its direct children cover.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for span in spans {
        if span.parent != ROOT {
            own[span.parent as usize] -= span.duration_us();
        }
    }
    own
}

/// Median duration per span name, plus `request.self`: the median time a
/// request spends outside every traced call — the generator's own cost.
pub fn medians_by_name(threads: &[&[Span]]) -> BTreeMap<String, f64> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for spans in threads {
        let own = self_times_us(spans);
        for (span, own_us) in spans.iter().zip(own) {
            by_name
                .entry(span.name.to_string())
                .or_default()
                .push(span.duration_us());
            if span.parent == ROOT {
                by_name
                    .entry("request.self".to_string())
                    .or_default()
                    .push(own_us);
            }
        }
    }
    by_name
        .into_iter()
        .filter_map(|(name, mut v)| {
            stats::sort(&mut v);
            stats::quantile(&v, 0.5).map(|m| (name, m))
        })
        .collect()
}

/// The first [`FILE_SPANS`] spans of each thread as a Chrome trace-event
/// document; counter samples become `C` events on the same timeline.
pub fn chrome_trace(threads: &[&[Span]], counters: &[(f64, &str, f64)]) -> Value {
    let mut events = Vec::new();
    for (tid, spans) in threads.iter().enumerate() {
        for (index, span) in spans.iter().take(FILE_SPANS).enumerate() {
            events.push(json!({
                "name": span.name,
                "cat": "e2e",
                "ph": "X",
                "ts": span.start_us,
                "dur": span.duration_us(),
                "pid": 1,
                "tid": tid as u64 + 1,
                "args": {
                    "id": index as u64,
                    "parent": if span.parent == ROOT { -1 } else { i64::from(span.parent) },
                    "request": span.request,
                },
            }));
        }
    }
    for (ts, name, value) in counters {
        events.push(json!({
            "name": name,
            "ph": "C",
            "ts": ts,
            "pid": 1,
            "tid": 0,
            "args": { "value": value },
        }));
    }
    json!({ "displayTimeUnit": "ns", "traceEvents": events })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: u32, request: u64) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            request,
        }
    }

    #[test]
    fn calls_nest_under_their_request() {
        let mut t = Tracer::new(true, clock::now());
        for r in 0..3 {
            t.request(r, |t| {
                t.call("a", || ());
                t.call("b", || ());
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 9);
        for (i, s) in spans.iter().enumerate() {
            match s.name {
                "request" => assert_eq!(s.parent, ROOT),
                _ => {
                    let parent = &spans[s.parent as usize];
                    assert_eq!(parent.name, "request");
                    assert_eq!(parent.request, s.request);
                    assert!(s.parent < i as u32);
                }
            }
            assert!(s.end_us >= s.start_us);
        }
        assert_eq!(spans[8].request, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, clock::now());
        assert_eq!(t.request(1, |t| t.call("a", || 5)), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("request", 0.0, 100.0, ROOT, 0),
            span("a", 10.0, 40.0, 0, 0),
            span("b", 50.0, 90.0, 0, 0),
            span("request", 100.0, 130.0, ROOT, 1),
            span("a", 105.0, 125.0, 3, 1),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 30.0, 40.0, 10.0, 20.0]);
        let medians = medians_by_name(&[&spans]);
        assert_eq!(medians["request"], 30.0);
        assert_eq!(medians["a"], 20.0);
        assert_eq!(medians["b"], 40.0);
        assert_eq!(medians["request.self"], 10.0);
    }

    #[test]
    fn chrome_document_has_complete_events() {
        let spans = vec![
            span("request", 0.0, 9.0, ROOT, 4),
            span("a", 1.0, 3.0, 0, 4),
        ];
        let doc = chrome_trace(&[&spans], &[(9.0, "copied_bytes", 64.0)]);
        let events = doc["traceEvents"].as_array().expect("events");
        assert_eq!(events.len(), 3);
        assert_eq!(events[1]["ph"], "X");
        assert_eq!(events[1]["dur"], 2.0);
        assert_eq!(events[1]["args"]["parent"].as_i64(), Some(0));
        assert_eq!(events[0]["args"]["parent"].as_i64(), Some(-1));
        assert_eq!(events[2]["ph"], "C");
        let text = serde_json::to_string(&doc).expect("render");
        assert!(serde_json::from_str(&text).is_ok());
    }
}
