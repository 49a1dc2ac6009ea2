//! The [`Recorder`] trait and the no-op backend.

/// An instrumentation sink.
///
/// Engines, schedulers and the analyzer call a recorder on their hot
/// paths; backends decide what to do with the recordings. Metric names
/// are `&'static str` — recording never allocates at the call site — and
/// follow a `component.metric` convention (`sm.steps`,
/// `explore.memo_hits`, `verify.admissibility`).
///
/// Span timings nest: `span_start("a"); span_start("b"); span_end();
/// span_end();` attributes the inner elapsed time to `a/b`. Backends that
/// time spans (the in-memory recorder) use wall-clock time; the null
/// recorder ignores spans entirely.
pub trait Recorder {
    /// Adds `delta` to the named monotonic counter.
    fn counter(&mut self, name: &'static str, delta: u64);

    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&mut self, name: &'static str, value: f64);

    /// Records one sample into the named fixed-bucket histogram.
    fn observe(&mut self, name: &'static str, value: f64);

    /// Opens a nested timing span.
    fn span_start(&mut self, name: &'static str);

    /// Closes the innermost open span.
    fn span_end(&mut self);

    /// Folds a pre-aggregated histogram into the named slot.
    ///
    /// [`Recorder::observe`] ingests raw samples one at a time; this is
    /// the bulk seam for components that aggregate off to the side (the
    /// `net` runtime's pacer-lag histogram, the zone walker's closure
    /// timings) and hand the result over at quiesce. The default implementation discards the histogram, so
    /// streaming backends (JSONL) and the null recorder are unaffected.
    fn merge_histogram(&mut self, name: &'static str, hist: &crate::Histogram) {
        let _ = (name, hist);
    }

    /// Returns `false` when every recording is discarded (the null
    /// recorder), letting callers skip derived-value computation.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The default backend: discards everything.
///
/// Every method body is empty, so the overhead of instrumentation hooks
/// routed through a `&mut dyn Recorder` holding a `NullRecorder` is one
/// virtual call per hook — within measurement noise for the engines (see
/// `bench_engine`'s `recorder-overhead` group).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    #[inline]
    fn gauge(&mut self, _name: &'static str, _value: f64) {}

    #[inline]
    fn observe(&mut self, _name: &'static str, _value: f64) {}

    #[inline]
    fn span_start(&mut self, _name: &'static str) {}

    #[inline]
    fn span_end(&mut self) {}

    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }
}

/// RAII guard for a recorder span: closes the span when dropped.
///
/// # Examples
///
/// ```
/// use session_obs::{InMemoryRecorder, Span};
///
/// let mut rec = InMemoryRecorder::new();
/// {
///     let _span = Span::enter(&mut rec, "verify.admissibility");
///     // ... timed work ...
/// }
/// assert!(rec.snapshot().histogram("verify.admissibility").is_some());
/// ```
pub struct Span<'a> {
    recorder: &'a mut dyn Recorder,
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span").finish_non_exhaustive()
    }
}

impl<'a> Span<'a> {
    /// Opens `name` on `recorder`, returning the guard that closes it.
    pub fn enter(recorder: &'a mut dyn Recorder, name: &'static str) -> Span<'a> {
        recorder.span_start(name);
        Span { recorder }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.recorder.span_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_discards_and_reports_disabled() {
        let mut rec = NullRecorder;
        rec.counter("a", 1);
        rec.gauge("b", 2.0);
        rec.observe("c", 3.0);
        rec.span_start("d");
        rec.span_end();
        assert!(!rec.is_enabled());
    }

    #[test]
    fn span_guard_balances_start_and_end() {
        #[derive(Default)]
        struct Depth(i32, i32);
        impl Recorder for Depth {
            fn counter(&mut self, _: &'static str, _: u64) {}
            fn gauge(&mut self, _: &'static str, _: f64) {}
            fn observe(&mut self, _: &'static str, _: f64) {}
            fn span_start(&mut self, _: &'static str) {
                self.0 += 1;
                self.1 = self.1.max(self.0);
            }
            fn span_end(&mut self) {
                self.0 -= 1;
            }
        }
        let mut rec = Depth::default();
        {
            let _outer = Span::enter(&mut rec, "outer");
        }
        {
            let _again = Span::enter(&mut rec, "again");
        }
        assert_eq!(rec.0, 0, "every span closed");
        assert_eq!(rec.1, 1, "spans were entered");
    }
}
