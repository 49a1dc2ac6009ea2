//! The traced run's recorder. Coarse spans (workload → engine call →
//! phase) are kept one by one; calls made once per edge or per frame are
//! far too many for spans, so each [`Layer`] folds them into a count, a
//! sum and a histogram. Everything stays in memory and is written once, at
//! the end of the run.

use std::time::Instant;

use session_obs::json::JsonWriter;
use session_obs::Histogram;

use crate::measure::now;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory spans of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    layers: Vec<(&'static str, Layer)>,
}

impl Tracer {
    /// A recorder whose timestamps count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
            layers: Vec::new(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &str) {
        let start_ns = self.elapsed_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its length in seconds.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit matches an enter");
        let end_ns = self.elapsed_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's length in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let out = f();
        (out, self.exit())
    }

    /// Keeps a layer's aggregate for the trace file.
    pub fn add_layer(&mut self, name: &'static str, layer: Layer) {
        self.layers.push((name, layer));
    }

    /// The trace document: spans with parent links, then the per-call
    /// layer aggregates in nanoseconds, net of `floor_ns` per timing.
    pub fn to_json(&self, workload: &str, seed: u64, floor_ns: f64) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "session-perfbench/trace/v1");
        w.field_str("workload", workload);
        w.field_u64("seed", seed);
        w.key("spans");
        w.begin_array();
        for (id, span) in self.spans.iter().enumerate() {
            w.begin_object();
            w.field_u64("id", id as u64);
            if let Some(parent) = span.parent {
                w.field_u64("parent", parent as u64);
            }
            w.field_str("name", &span.name);
            w.field_u64("start_ns", span.start_ns);
            w.field_u64("dur_ns", span.end_ns - span.start_ns);
            w.field_u64("self_ns", self.self_ns(id));
            w.end_object();
        }
        w.end_array();
        w.key("layers");
        w.begin_object();
        for (name, layer) in &self.layers {
            w.key(name);
            w.begin_object();
            w.field_u64("calls", layer.calls);
            w.field_u64("timings", layer.timings);
            w.field_f64("sum_ns", layer.net_ns(floor_ns));
            // Quantiles exist only where each call was timed on its own;
            // they are gross of the timer and resolve to power-of-two
            // bucket bounds.
            if let Some(p50) = layer.per_call.quantile(0.5) {
                w.field_f64("p50_ns", p50);
                w.field_f64("p99_ns", layer.per_call.quantile(0.99).unwrap_or(p50));
                w.field_f64("max_ns", layer.per_call.max().unwrap_or(p50));
            }
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// A span's duration minus the time its direct children cover.
    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(children)
    }
}

/// One layer's calls: how many, their total time, and a histogram of
/// single-call times when calls were timed one by one.
#[derive(Default)]
pub struct Layer {
    calls: u64,
    /// Timer pairs read: one per call, or one per batch.
    timings: u64,
    total_ns: f64,
    per_call: Histogram,
}

impl Layer {
    /// Times one call into the layer.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.calls += 1;
        self.timings += 1;
        self.total_ns += ns;
        self.per_call.record(ns);
        out
    }

    /// Times `calls` calls made back to back, for calls too short to time
    /// one by one against the timer's own cost.
    pub fn time_batch<T>(&mut self, calls: u64, f: impl FnOnce() -> T) -> T {
        let start = now();
        let out = f();
        self.calls += calls;
        self.timings += 1;
        self.total_ns += start.elapsed().as_nanos() as f64;
        out
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Total time with `floor_ns`, the cost of one timing, taken out of
    /// every timing.
    pub fn net_ns(&self, floor_ns: f64) -> f64 {
        (self.total_ns - floor_ns * self.timings as f64).max(0.0)
    }

    /// Mean time per call, net of the timer.
    pub fn mean_ns(&self, floor_ns: f64) -> f64 {
        self.net_ns(floor_ns) / self.calls.max(1) as f64
    }
}

/// The cost of one empty [`Layer::time`] call, in nanoseconds: the part
/// of every timed sample that is the timer itself.
pub fn timer_floor_ns() -> f64 {
    let mut layer = Layer::default();
    for _ in 0..1_000_000 {
        layer.time(|| std::hint::black_box(()));
    }
    layer.total_ns / layer.calls as f64
}
