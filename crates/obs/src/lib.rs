//! Instrumentation layer for the session-problem reproduction.
//!
//! The paper's evaluation is Table 1 — worst-case running times of timed
//! computations. Reproducing it at production scale requires *observing*
//! the machinery that produces those computations: how many steps the
//! engines execute, how messages flow, where the explorer spends its
//! states. This crate reifies that telemetry as structured data:
//!
//! * [`Recorder`] — the instrumentation sink: named counters, gauges,
//!   fixed-bucket histograms and nested span timings. Hot paths call it
//!   through `&mut dyn Recorder`; names are `&'static str` so recording
//!   never allocates on the caller's side.
//! * [`NullRecorder`] — the default no-op backend. Engines route their
//!   un-instrumented entry points through it; every method body is empty,
//!   so the cost is one virtual call per hook.
//! * [`InMemoryRecorder`] — aggregates everything into a
//!   [`MetricsSnapshot`] for reports (`session-cli stats`, bench JSON).
//! * [`JsonlRecorder`] — streams every recording as one JSON object per
//!   line to any [`std::io::Write`].
//! * [`SharedRecorder`] — a cloneable `Arc<Mutex<_>>` adapter so the
//!   multi-threaded real-clock runtime (`session-net`) can feed any
//!   backend from one OS thread per process.
//! * [`metrics`] — the registered metric names and the explorer flight
//!   recorder's per-worker span timelines and live-progress scoreboard.
//!   The parallel explorer's workers use these instead of
//!   `&mut dyn Recorder`, which would serialize them on the contention
//!   they are measuring.
//! * [`export`] — turns any recorded [`session_sim::Trace`] into Chrome
//!   trace-event / Perfetto JSON (open in <https://ui.perfetto.dev>) or a
//!   structured JSONL event stream.
//! * [`json`] — the dependency-free JSON writer the exporters and the
//!   bench telemetry share (this workspace builds without network access,
//!   so no serde).
//!
//! # Examples
//!
//! ```
//! use session_obs::{InMemoryRecorder, Recorder};
//!
//! let mut rec = InMemoryRecorder::new();
//! rec.counter("engine.steps", 3);
//! rec.observe("engine.buffer_occupancy", 2.0);
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("engine.steps"), 3);
//! assert_eq!(snap.histogram("engine.buffer_occupancy").unwrap().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
mod jsonl;
mod memory;
pub mod metrics;
mod recorder;
mod sync;

pub use jsonl::JsonlRecorder;
pub use memory::{Histogram, InMemoryRecorder, MetricsSnapshot};
pub use metrics::{ProgressBoard, ProgressSnapshot, TimelineSpan, WorkerTimeline};
pub use recorder::{NullRecorder, Recorder, Span};
pub use sync::SharedRecorder;
