//! Metric names and the lock-free pieces of the explorer flight
//! recorder.
//!
//! The [`crate::Recorder`] trait takes `&mut self`, which is perfect for
//! single-threaded engines but wrong inside the parallel explorer's
//! workers: funneling per-state events through one `&mut dyn Recorder`
//! would serialize them on the very contention they are trying to
//! measure. The workers keep their own tallies and hand them to a
//! recorder after the join; this module holds what they share or own
//! meanwhile:
//!
//! - [`WorkerTimeline`] / [`TimelineSpan`]: per-worker span buffers,
//!   owned by one thread (no sharing at all) and flushed when the worker
//!   joins — these become the per-worker tracks in the Perfetto export.
//! - [`ProgressBoard`]: a handful of atomics the live `progress=on` line
//!   polls from a monitor thread while workers update it in batches.
//!
//! Hot-path cost: a `Vec` push per timeline span, a few relaxed atomic
//! updates per progress batch, and nothing at all when profiling is off
//! (the callers branch on an `Option` that is `None`). See DESIGN.md §15
//! for the metric-name table; [`METRIC_NAMES`] is the machine checked
//! list.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Every metric name the flight recorder can emit into a
/// [`crate::MetricsSnapshot`], across the explicit explorer
/// (`explore.*`), the zone walker (`zones.*`), the real-clock runtime
/// (`net.pacer_lag_ms`) and the sharded session service (`serve.*`).
///
/// `scripts/static-analysis.sh` asserts each of these is documented in
/// DESIGN.md §15, so the unified `session-cli stats` snapshot never grows
/// an undocumented row.
pub const METRIC_NAMES: &[&str] = &[
    "explore.states",
    "explore.states_per_sec",
    "explore.memo_entries",
    "explore.threads",
    "explore.memo_hits",
    "explore.memo_misses",
    "explore.pruned_choices",
    "explore.frontier_depth",
    "explore.duplicate_expansions",
    "explore.route_send",
    "explore.route_recv",
    "explore.local_msgs",
    "explore.queue_full_spins",
    "explore.owner_local_ratio",
    "explore.rounds",
    "explore.expand_ns",
    "explore.idle_ns",
    "explore.phase_a_ms",
    "explore.replay_ms",
    "explore.phase_b_ms",
    "zones.zone_states",
    "zones.explicit_states",
    "zones.dbm_closures",
    "zones.dbm_close_us",
    "zones.worst_close_memo_hits",
    "net.pacer_lag_ms",
    "serve.sessions_opened",
    "serve.sessions_closed",
    "serve.sessions_shed",
    "serve.sessions_orphaned",
    "serve.sessions_aborted",
    "serve.steps",
    "serve.broadcasts",
    "serve.deliveries",
    "serve.conformance_samples",
    "serve.conformance_failures",
    "serve.frames_in",
    "serve.frames_out",
    "serve.frames_dropped",
    "serve.protocol_errors",
    "serve.rate_limited",
    "serve.opens_queue_full",
    "serve.peers_connected",
    "serve.peers_banned",
    "serve.close_latency_ms",
    "serve.close_lag_ms",
    "serve.peak_live_sessions",
];

/// One closed span on a worker's timeline, in nanoseconds since the
/// exploration epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineSpan {
    /// Span label (a `&'static str`, like every metric name).
    pub name: &'static str,
    /// Start offset from the epoch.
    pub start_ns: u64,
    /// End offset from the epoch (`>= start_ns`).
    pub end_ns: u64,
    /// One span-specific detail rendered into the trace args (the
    /// explorer stores the work item's starting depth).
    pub detail: u64,
}

/// A bounded per-worker span buffer.
///
/// Owned by exactly one worker thread — recording is a plain `Vec` push,
/// no synchronization — and handed over wholesale when the worker joins
/// ("flushed on quiesce"). The bound keeps a pathological run from
/// ballooning the profile; overflow is counted, not silently dropped.
#[derive(Clone, Debug, Default)]
pub struct WorkerTimeline {
    spans: Vec<TimelineSpan>,
    dropped: u64,
    cap: usize,
}

impl WorkerTimeline {
    /// An empty timeline keeping at most `cap` spans.
    pub fn with_capacity(cap: usize) -> WorkerTimeline {
        WorkerTimeline {
            spans: Vec::new(),
            dropped: 0,
            cap,
        }
    }

    /// Appends `span`, or counts it as dropped once the buffer is full.
    #[inline]
    pub fn push(&mut self, span: TimelineSpan) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[TimelineSpan] {
        &self.spans
    }

    /// How many spans overflowed the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A point-in-time copy of a [`ProgressBoard`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// States expanded so far (batched, so slightly behind).
    pub states: u64,
    /// Deepest state expanded so far.
    pub depth: u64,
    /// Approximate frontier-pool depth.
    pub frontier: u64,
    /// Workers currently expanding (vs blocked on an empty pool).
    pub busy: u64,
}

/// The shared scoreboard behind the live `progress=on` line.
///
/// Workers update it with relaxed atomics (states in batches, so the
/// per-state cost is amortized to nearly nothing); a monitor thread
/// polls [`ProgressBoard::snapshot`] a few times a second and renders one
/// line to stderr. Nothing here feeds the analysis itself — dropping the
/// board on the floor changes no finding.
#[derive(Debug, Default)]
pub struct ProgressBoard {
    states: AtomicU64,
    depth: AtomicU64,
    frontier: AtomicU64,
    busy: AtomicU64,
    done: AtomicBool,
}

impl ProgressBoard {
    /// A zeroed board.
    pub fn new() -> ProgressBoard {
        ProgressBoard::default()
    }

    /// Adds a batch of expanded states.
    #[inline]
    pub fn add_states(&self, n: u64) {
        self.states.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the deepest-state watermark to at least `depth`.
    #[inline]
    pub fn raise_depth(&self, depth: u64) {
        self.depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Publishes the current frontier-pool depth.
    #[inline]
    pub fn set_frontier(&self, n: u64) {
        self.frontier.store(n, Ordering::Relaxed);
    }

    /// Marks one worker as busy (popped a work item).
    #[inline]
    pub fn worker_busy(&self) {
        self.busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one worker as idle (finished its item / waiting).
    #[inline]
    pub fn worker_idle(&self) {
        self.busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// Marks the run finished, stopping the monitor.
    pub fn finish(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// Whether [`ProgressBoard::finish`] was called.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Copies the current values out.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            states: self.states.load(Ordering::Relaxed),
            depth: self.depth.load(Ordering::Relaxed),
            frontier: self.frontier.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_caps_and_counts_overflow() {
        let mut timeline = WorkerTimeline::with_capacity(2);
        for i in 0..5 {
            timeline.push(TimelineSpan {
                name: "item",
                start_ns: i,
                end_ns: i + 1,
                detail: 0,
            });
        }
        assert_eq!(timeline.spans().len(), 2);
        assert_eq!(timeline.dropped(), 3);
    }

    #[test]
    fn progress_board_round_trips() {
        let board = ProgressBoard::new();
        board.add_states(256);
        board.add_states(10);
        board.raise_depth(7);
        board.raise_depth(3);
        board.set_frontier(12);
        board.worker_busy();
        board.worker_busy();
        board.worker_idle();
        let snap = board.snapshot();
        assert_eq!(
            snap,
            ProgressSnapshot {
                states: 266,
                depth: 7,
                frontier: 12,
                busy: 1,
            }
        );
        assert!(!board.is_done());
        board.finish();
        assert!(board.is_done());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<_> = METRIC_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRIC_NAMES.len());
    }
}
