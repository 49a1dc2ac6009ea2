//! The aggregating in-memory backend.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::JsonWriter;
use crate::recorder::Recorder;

/// Number of histogram buckets: bucket `i < 32` counts samples with
/// `value <= 2^i` (bucket 0 additionally absorbs everything `<= 1`,
/// including non-positive samples); bucket 32 is the overflow bucket.
const BUCKETS: usize = 33;

/// A fixed-bucket power-of-two histogram.
///
/// Buckets are fixed so recording is allocation-free and two histograms
/// of the same metric are always mergeable. Quantiles are approximate
/// (resolved to the bucket's upper bound); `min`, `max`, `sum` and
/// `count` are exact.
///
/// # Examples
///
/// ```
/// use session_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 100.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), Some(1.0));
/// assert_eq!(h.max(), Some(100.0));
/// assert_eq!(h.mean(), Some(26.5));
/// // p50 resolves to the upper bound of the bucket holding the median.
/// assert_eq!(h.quantile(0.5), Some(2.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(value: f64) -> usize {
        if value <= 1.0 || value.is_nan() {
            return 0;
        }
        let mut bound = 1.0f64;
        for i in 0..BUCKETS - 1 {
            if value <= bound {
                return i;
            }
            bound *= 2.0;
        }
        BUCKETS - 1
    }

    /// The inclusive upper bound of bucket `i` (`None` for the overflow
    /// bucket).
    fn bucket_bound(i: usize) -> Option<f64> {
        (i < BUCKETS - 1).then(|| 2.0f64.powi(i as i32))
    }

    /// Folds every sample of `other` into `self`.
    ///
    /// The fixed bucket layout makes this exact at bucket resolution:
    /// `count`, `sum`, `min`, `max` and every bucket count add up as if
    /// all samples had been recorded into one histogram.
    ///
    /// # Examples
    ///
    /// ```
    /// use session_obs::Histogram;
    ///
    /// let mut a = Histogram::new();
    /// a.record(1.0);
    /// let mut b = Histogram::new();
    /// b.record(100.0);
    /// a.merge(&b);
    /// assert_eq!(a.count(), 2);
    /// assert_eq!(a.max(), Some(100.0));
    /// ```
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.counts[Histogram::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// The largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The mean sample, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The approximate `q`-quantile (`0 <= q <= 1`): the upper bound of
    /// the first bucket at which the cumulative count reaches `q·count`,
    /// clamped to the exact `max` for the overflow bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return Some(Histogram::bucket_bound(i).map_or(self.max, |b| b.min(self.max)));
            }
        }
        Some(self.max)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "count=0".to_owned();
        }
        format!(
            "count={} min={} mean={:.2} p50≈{} p95≈{} max={}",
            self.count,
            self.min,
            self.sum / self.count as f64,
            self.quantile(0.5).unwrap_or(self.max),
            self.quantile(0.95).unwrap_or(self.max),
            self.max
        )
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("count", self.count);
        w.field_f64("sum", self.sum);
        if self.count > 0 {
            w.field_f64("min", self.min);
            w.field_f64("max", self.max);
            w.field_f64("p50", self.quantile(0.5).unwrap_or(self.max));
            w.field_f64("p95", self.quantile(0.95).unwrap_or(self.max));
        }
        w.end_object();
    }
}

/// A point-in-time copy of everything an [`InMemoryRecorder`] aggregated.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// The value of the named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of the named gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Folds a pre-aggregated histogram into the named slot (creating it
    /// if absent). This is the snapshot-side twin of
    /// [`crate::Recorder::merge_histogram`].
    pub fn merge_histogram(&mut self, name: &'static str, hist: &Histogram) {
        self.histograms.entry(name).or_default().merge(hist);
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as the markdown fragment used by
    /// `session-cli stats`.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("| counter | value |\n|---|---|\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "| {name} | {value} |");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\n| gauge | value |\n|---|---|\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "| {name} | {value} |");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\n| histogram | summary |\n|---|---|\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(out, "| {name} | {} |", h.summary());
            }
        }
        out
    }

    /// Serializes the snapshot as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (name, value) in &self.counters {
            w.field_u64(name, *value);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (name, value) in &self.gauges {
            w.field_f64(name, *value);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, h) in &self.histograms {
            w.key(name);
            h.write_json(w);
        }
        w.end_object();
        w.end_object();
    }
}

/// The aggregating backend: counters, gauges and histograms accumulate in
/// `BTreeMap`s; span timings are measured with wall-clock [`Instant`]s and
/// recorded as microsecond samples in a histogram per span name.
///
/// # Examples
///
/// ```
/// use session_obs::{InMemoryRecorder, Recorder};
///
/// let mut rec = InMemoryRecorder::new();
/// rec.counter("mp.steps", 10);
/// rec.gauge("run.time", 42.0);
/// let snap = rec.snapshot();
/// assert_eq!(snap.counter("mp.steps"), 10);
/// assert_eq!(snap.gauge("run.time"), Some(42.0));
/// ```
#[derive(Debug, Default)]
pub struct InMemoryRecorder {
    metrics: MetricsSnapshot,
    span_stack: Vec<(&'static str, Instant)>,
}

impl InMemoryRecorder {
    /// An empty recorder.
    pub fn new() -> InMemoryRecorder {
        InMemoryRecorder::default()
    }

    /// Copies the aggregated metrics out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.clone()
    }

    /// Consumes the recorder, returning the aggregated metrics.
    pub fn into_snapshot(self) -> MetricsSnapshot {
        self.metrics
    }
}

impl Recorder for InMemoryRecorder {
    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.metrics.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.metrics.gauges.insert(name, value);
    }

    fn observe(&mut self, name: &'static str, value: f64) {
        self.metrics
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    fn span_start(&mut self, name: &'static str) {
        self.span_stack.push((name, Instant::now()));
    }

    fn span_end(&mut self) {
        if let Some((name, started)) = self.span_stack.pop() {
            let micros = started.elapsed().as_secs_f64() * 1e6;
            self.observe(name, micros);
        }
    }

    fn merge_histogram(&mut self, name: &'static str, hist: &Histogram) {
        self.metrics.merge_histogram(name, hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut rec = InMemoryRecorder::new();
        rec.counter("a", 2);
        rec.counter("a", 3);
        rec.counter("b", 1);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_keep_last_value() {
        let mut rec = InMemoryRecorder::new();
        rec.gauge("g", 1.0);
        rec.gauge("g", 7.5);
        assert_eq!(rec.snapshot().gauge("g"), Some(7.5));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(f64::from(v));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(100.0));
        // p50 lands in the bucket (32, 64]; its bound clamps to max.
        assert_eq!(h.quantile(0.5), Some(64.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn histogram_handles_edge_values() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN); // dropped
        h.record(1e30); // overflow bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.max(), Some(1e30));
        assert_eq!(h.quantile(1.0), Some(1e30));
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), "count=0");
    }

    #[test]
    fn spans_record_microsecond_samples() {
        let mut rec = InMemoryRecorder::new();
        rec.span_start("work");
        rec.span_end();
        let snap = rec.snapshot();
        let h = snap.histogram("work").expect("span recorded");
        assert_eq!(h.count(), 1);
        assert!(h.min().unwrap() >= 0.0);
    }

    #[test]
    fn unbalanced_span_end_is_ignored() {
        let mut rec = InMemoryRecorder::new();
        rec.span_end();
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn merged_histograms_match_a_single_recording() {
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=50 {
            all.record(f64::from(v));
            a.record(f64::from(v));
        }
        for v in 51..=100 {
            all.record(f64::from(v));
            b.record(f64::from(v));
        }
        a.merge(&b);
        assert_eq!(a, all);
        a.merge(&Histogram::new());
        assert_eq!(a, all, "merging an empty histogram is a no-op");
    }

    #[test]
    fn recorder_ingests_preaggregated_histograms() {
        let mut pacer = Histogram::new();
        pacer.record(2.0);
        pacer.record(8.0);
        let mut rec = InMemoryRecorder::new();
        rec.observe("lag", 1.0);
        rec.merge_histogram("lag", &pacer);
        rec.merge_histogram("fresh", &pacer);
        let snap = rec.snapshot();
        assert_eq!(snap.histogram("lag").unwrap().count(), 3);
        assert_eq!(snap.histogram("fresh").unwrap().count(), 2);
    }

    #[test]
    fn markdown_and_json_render_all_sections() {
        let mut rec = InMemoryRecorder::new();
        rec.counter("c", 1);
        rec.gauge("g", 2.0);
        rec.observe("h", 3.0);
        let snap = rec.snapshot();
        let md = snap.to_markdown();
        assert!(md.contains("| c | 1 |"), "{md}");
        assert!(md.contains("| g | 2 |"), "{md}");
        assert!(md.contains("| h | count=1"), "{md}");
        let json = snap.to_json();
        assert!(json.contains("\"counters\":{\"c\":1}"), "{json}");
        assert!(json.contains("\"gauges\":{\"g\":2"), "{json}");
        assert!(
            json.contains("\"histograms\":{\"h\":{\"count\":1"),
            "{json}"
        );
    }
}
