//! The explorer flight recorder: structured profiles of where an
//! exploration spent its time (DESIGN.md §15).
//!
//! The v2 profile records, per worker of the claim-table explorer
//! (DESIGN.md §13), how work moved: states donated to and taken from
//! the shared pool, child claims kept on the worker's own stack, and
//! idle polls of an empty pool. It also records the POR fixpoint round
//! count and whether the run fell back to the serial explorer. Those
//! fields keep the names of the earlier ownership-routing explorer the
//! schema was written for (`route_send`, `route_recv`, `local_msgs`,
//! `queue_full_spins`), so readers of `analyzer-profile/v2` need no
//! change. The document serializes as that stable JSON plus a Perfetto
//! trace with one track per worker.
//!
//! Profiling never changes findings: every hook is behind an `Option`
//! that is `None` unless `profile=`/`progress=` asked for it, and the
//! hooks only *read* explorer state (asserted by the invariance test in
//! `tests/full_pipeline.rs`).

use std::sync::Arc;

use session_obs::json::JsonWriter;
use session_obs::{export, ProgressBoard, WorkerTimeline};

/// How many timeline spans / inbox-depth samples each worker keeps
/// before counting overflow instead (bounds profile size on huge runs).
pub(crate) const FLIGHT_BUFFER_CAP: usize = 4096;

/// What the caller asked the flight recorder to do.
///
/// The default (`profile` off, no progress board) is the zero-cost path:
/// the explorer's hooks reduce to a branch on `None`.
#[derive(Clone, Debug, Default)]
pub struct FlightOpts {
    /// Collect an [`ExploreProfile`] for this exploration.
    pub profile: bool,
    /// Scoreboard for the live `progress=on` stderr line, polled by a
    /// monitor thread owned by the caller.
    pub progress: Option<Arc<ProgressBoard>>,
}

impl FlightOpts {
    /// Profiling on, no progress board.
    pub fn profiled() -> FlightOpts {
        FlightOpts {
            profile: true,
            progress: None,
        }
    }
}

/// Progress updates are batched: an explorer publishes to the shared
/// [`ProgressBoard`] once per this many expanded states, amortizing the
/// atomic traffic to nothing.
const PROGRESS_BATCH: u64 = 256;

/// One explorer thread's batched updates to the live-progress board;
/// inert without a board.
pub(crate) struct ProgressBatch<'a> {
    pub(crate) board: Option<&'a ProgressBoard>,
    states: u64,
    depth: u64,
}

impl<'a> ProgressBatch<'a> {
    pub(crate) fn new(board: Option<&'a ProgressBoard>) -> ProgressBatch<'a> {
        ProgressBatch {
            board,
            states: 0,
            depth: 0,
        }
    }

    /// Counts one state expanded at `depth`. Returns the board when this
    /// published a full batch to it.
    pub(crate) fn tick(&mut self, depth: usize) -> Option<&'a ProgressBoard> {
        self.board?;
        self.states += 1;
        self.depth = self.depth.max(depth as u64);
        if self.states < PROGRESS_BATCH {
            return None;
        }
        self.flush()
    }

    /// Publishes the batched states and depth; returns the board.
    pub(crate) fn flush(&mut self) -> Option<&'a ProgressBoard> {
        let board = self.board?;
        if self.states > 0 {
            board.add_states(self.states);
            self.states = 0;
        }
        board.raise_depth(self.depth);
        Some(board)
    }
}

/// Per-worker flight data, owned by exactly one worker thread during
/// Phase A and merged into the profile after the join. With POR
/// fixpoint re-rounds the per-round profiles are summed per worker id.
#[derive(Clone, Debug)]
pub struct WorkerProfile {
    /// States this worker expanded (the claims it won).
    pub states: u64,
    /// Child claims this worker attempted, won or lost.
    pub items: u64,
    /// Time spent in work bursts: from taking work off the pool until
    /// the worker's own stack ran dry.
    pub busy_ns: u64,
    /// Time spent idle: empty stack, polling the pool for work or for
    /// termination.
    pub idle_ns: u64,
    /// Residual expansion time: `busy - route_send - route_recv`
    /// (cloning machines, applying steps, firing lints, claims).
    pub expand_ns: u64,
    /// Time donating states to the pool.
    pub route_send_ns: u64,
    /// Time taking states from the pool.
    pub route_recv_ns: u64,
    /// States this worker donated to the pool.
    pub route_send: u64,
    /// States this worker took from the pool.
    pub route_recv: u64,
    /// Child claims this worker won and kept on its own stack.
    pub local_msgs: u64,
    /// Idle polls that found the pool empty.
    pub queue_full_spins: u64,
    /// Always zero for the claim-table explorer (one winner per claim);
    /// the serial explorer counts its budget-growth re-walks here.
    pub duplicate_expansions: u64,
    /// One span per work burst, for the per-worker Perfetto track
    /// (`detail` = fixpoint round index).
    pub timeline: WorkerTimeline,
    /// `(t_ns, pool_depth)` samples: how many states the pool held each
    /// time this worker took from it.
    pub inbox_depth: Vec<(u64, u64)>,
}

impl WorkerProfile {
    pub(crate) fn new() -> WorkerProfile {
        WorkerProfile {
            states: 0,
            items: 0,
            busy_ns: 0,
            idle_ns: 0,
            expand_ns: 0,
            route_send_ns: 0,
            route_recv_ns: 0,
            route_send: 0,
            route_recv: 0,
            local_msgs: 0,
            queue_full_spins: 0,
            duplicate_expansions: 0,
            timeline: WorkerTimeline::with_capacity(FLIGHT_BUFFER_CAP),
            inbox_depth: Vec::new(),
        }
    }

    /// Fills the residual `expand_ns` slot once all other slots are
    /// final.
    pub(crate) fn seal(&mut self) {
        self.expand_ns = self
            .busy_ns
            .saturating_sub(self.route_send_ns + self.route_recv_ns);
    }

    /// Folds another round's profile for the same worker id into this
    /// one (numeric fields summed, timeline and samples appended).
    pub(crate) fn absorb(&mut self, other: WorkerProfile) {
        self.states += other.states;
        self.items += other.items;
        self.busy_ns += other.busy_ns;
        self.idle_ns += other.idle_ns;
        self.route_send_ns += other.route_send_ns;
        self.route_recv_ns += other.route_recv_ns;
        self.route_send += other.route_send;
        self.route_recv += other.route_recv;
        self.local_msgs += other.local_msgs;
        self.queue_full_spins += other.queue_full_spins;
        self.duplicate_expansions += other.duplicate_expansions;
        for span in other.timeline.spans() {
            self.timeline.push(*span);
        }
        for sample in other.inbox_depth {
            if self.inbox_depth.len() < FLIGHT_BUFFER_CAP {
                self.inbox_depth.push(sample);
            }
        }
        self.seal();
    }

    /// `local_msgs / (local_msgs + route_send)`: near 1 when this
    /// worker's work rarely changed hands.
    #[allow(clippy::cast_precision_loss)]
    pub fn owner_local_ratio(&self) -> f64 {
        let kept_or_donated = self.local_msgs + self.route_send;
        if kept_or_donated == 0 {
            return 1.0;
        }
        self.local_msgs as f64 / kept_or_donated as f64
    }
}

/// A complete flight-recorder profile of one exploration, serializable
/// as the stable `analyzer-profile/v2` JSON document.
#[derive(Clone, Debug)]
pub struct ExploreProfile {
    /// Target name (empty when the caller explored raw roots).
    pub target: String,
    /// Scope: number of processes.
    pub n: usize,
    /// Scope: sessions required.
    pub s: u64,
    /// Worker threads (1 = the serial explorer).
    pub threads: usize,
    /// Depth budget of the exploration.
    pub max_depth: usize,
    /// Whether partial-order reduction was on.
    pub por: bool,
    /// States the serial replay counted — the serial explorer's
    /// `states`. The per-worker `states` are Phase A expansions.
    pub states: u64,
    /// Entries in the replay's memo (the serial explorer reports its
    /// memo size here).
    pub unique_states: u64,
    /// Budget-growth re-walks of the replay (the serial explorer's
    /// count).
    pub duplicate_expansions: u64,
    /// States donated to the pool, all workers.
    pub route_send: u64,
    /// States taken from the pool, all workers.
    pub route_recv: u64,
    /// Child claims won and kept on the claimer's stack, all workers.
    pub local_msgs: u64,
    /// Idle polls that found the pool empty, all workers.
    pub queue_full_spins: u64,
    /// Phase A rounds (1 + POR proviso fixpoint re-rounds).
    pub rounds: u64,
    /// The run hit a depth cut and fell back to the serial explorer.
    pub fallback: bool,
    /// End-to-end wall clock (all phases), nanoseconds.
    pub wall_ns: u64,
    /// Phase A (parallel claim walk, all rounds) wall clock; the whole
    /// walk for the serial explorer.
    pub phase_a_ns: u64,
    /// Serial replay over the logged key-graph, wall clock.
    pub replay_ns: u64,
    /// Witness walks wall clock: each recorded witness path walked once
    /// from its root for its message, session count and trace (the slot
    /// keeps the name of the serial witness walk it replaced).
    pub phase_b_ns: u64,
    /// One entry per worker.
    pub workers: Vec<WorkerProfile>,
}

impl ExploreProfile {
    /// Serializes the profile as the `analyzer-profile/v2` document.
    ///
    /// Field order is fixed, so the output is a deterministic function
    /// of the profile (asserted byte-for-byte by
    /// `tests/profile_export_golden.rs`).
    #[allow(clippy::cast_precision_loss)]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "analyzer-profile/v2");
        w.field_str("target", &self.target);
        w.field_u64("n", self.n as u64);
        w.field_u64("s", self.s);
        w.field_u64("threads", self.threads as u64);
        w.field_u64("max_depth", self.max_depth as u64);
        w.key("opts");
        w.begin_object();
        w.field_bool("por", self.por);
        // A constant keeps v2 byte-stable; v3 (ROADMAP item 6) drops it.
        w.field_bool("symmetry", false);
        w.end_object();
        w.field_u64("states", self.states);
        w.field_u64("unique_states", self.unique_states);
        w.field_u64("duplicate_expansions", self.duplicate_expansions);
        w.key("routing");
        w.begin_object();
        w.field_u64("send", self.route_send);
        w.field_u64("recv", self.route_recv);
        w.field_u64("local", self.local_msgs);
        w.field_u64("queue_full_spins", self.queue_full_spins);
        w.field_f64("owner_local_ratio", self.owner_local_ratio());
        w.field_u64("rounds", self.rounds);
        w.field_bool("fallback", self.fallback);
        w.end_object();
        w.field_u64("wall_ns", self.wall_ns);
        w.field_u64("phase_a_ns", self.phase_a_ns);
        w.field_u64("replay_ns", self.replay_ns);
        w.field_u64("phase_b_ns", self.phase_b_ns);
        w.key("workers");
        w.begin_array();
        for (id, worker) in self.workers.iter().enumerate() {
            w.begin_object();
            w.field_u64("id", id as u64);
            w.field_u64("states", worker.states);
            w.field_u64("items", worker.items);
            w.field_u64("busy_ns", worker.busy_ns);
            w.field_f64("utilization", self.utilization_of(worker));
            w.key("time_ns");
            w.begin_object();
            w.field_u64("expand", worker.expand_ns);
            w.field_u64("route_send", worker.route_send_ns);
            w.field_u64("route_recv", worker.route_recv_ns);
            w.field_u64("idle", worker.idle_ns);
            w.end_object();
            w.field_u64("route_send", worker.route_send);
            w.field_u64("route_recv", worker.route_recv);
            w.field_u64("local_msgs", worker.local_msgs);
            w.field_u64("queue_full_spins", worker.queue_full_spins);
            w.field_f64("owner_local_ratio", worker.owner_local_ratio());
            w.field_u64("duplicate_expansions", worker.duplicate_expansions);
            w.key("timeline");
            w.begin_array();
            for span in worker.timeline.spans() {
                w.begin_object();
                w.field_str("name", span.name);
                w.field_u64("start_ns", span.start_ns);
                w.field_u64("end_ns", span.end_ns);
                w.field_u64("round", span.detail);
                w.end_object();
            }
            w.end_array();
            w.field_u64("timeline_dropped", worker.timeline.dropped());
            w.key("inbox_depth");
            w.begin_array();
            for &(t_ns, depth) in &worker.inbox_depth {
                w.begin_array();
                w.value_u64(t_ns);
                w.value_u64(depth);
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Renders the per-worker timelines as a Perfetto trace (one track
    /// per worker; see [`session_obs::export::flight_perfetto_json`]).
    pub fn to_perfetto(&self) -> String {
        let title = if self.target.is_empty() {
            "analyzer".to_owned()
        } else {
            format!("analyzer: {}", self.target)
        };
        let tracks: Vec<_> = self
            .workers
            .iter()
            .enumerate()
            .map(|(id, worker)| (format!("worker {id}"), worker.timeline.spans().to_vec()))
            .collect();
        export::flight_perfetto_json(&title, &tracks)
    }

    /// One worker's busy fraction of the Phase A wall clock.
    #[allow(clippy::cast_precision_loss)]
    fn utilization_of(&self, worker: &WorkerProfile) -> f64 {
        if self.phase_a_ns == 0 {
            return 0.0;
        }
        worker.busy_ns as f64 / self.phase_a_ns as f64
    }

    /// `local_msgs / (local_msgs + route_send)` over all workers: near 1
    /// when work rarely changed hands.
    #[allow(clippy::cast_precision_loss)]
    pub fn owner_local_ratio(&self) -> f64 {
        let kept_or_donated = self.local_msgs + self.route_send;
        if kept_or_donated == 0 {
            return 1.0;
        }
        self.local_msgs as f64 / kept_or_donated as f64
    }

    /// A one-paragraph accounting summary (used by `bench_analyzer
    /// --profile` and handy in tests): busy vs idle vs pool time and
    /// the share of claims never donated.
    #[allow(clippy::cast_precision_loss)]
    pub fn summary(&self) -> String {
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        let idle: u64 = self.workers.iter().map(|w| w.idle_ns).sum();
        let pool: u64 = self
            .workers
            .iter()
            .map(|w| w.route_send_ns + w.route_recv_ns)
            .sum();
        let dup_pct = if self.states == 0 {
            0.0
        } else {
            100.0 * self.duplicate_expansions as f64 / self.states as f64
        };
        format!(
            "threads={} states={} unique={} dup={} ({dup_pct:.1}%) \
             busy_ms={:.1} idle_ms={:.1} pool_ms={:.1} local={:.2} \
             rounds={} fallback={} phase_a_ms={:.1} phase_b_ms={:.1}",
            self.threads,
            self.states,
            self.unique_states,
            self.duplicate_expansions,
            busy as f64 / 1e6,
            idle as f64 / 1e6,
            pool as f64 / 1e6,
            self.owner_local_ratio(),
            self.rounds,
            self.fallback,
            self.phase_a_ns as f64 / 1e6,
            self.phase_b_ns as f64 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use session_obs::json;
    use session_obs::TimelineSpan;

    /// A fully hand-specified profile — also the shape the golden test
    /// pins byte-for-byte.
    pub(crate) fn synthetic() -> ExploreProfile {
        let mut timeline = WorkerTimeline::with_capacity(4);
        timeline.push(TimelineSpan {
            name: "work",
            start_ns: 1000,
            end_ns: 51000,
            detail: 0,
        });
        timeline.push(TimelineSpan {
            name: "work",
            start_ns: 60000,
            end_ns: 80000,
            detail: 1,
        });
        let worker0 = WorkerProfile {
            states: 900,
            items: 1100,
            busy_ns: 70000,
            idle_ns: 10000,
            expand_ns: 61000,
            route_send_ns: 6000,
            route_recv_ns: 3000,
            route_send: 500,
            route_recv: 400,
            local_msgs: 700,
            queue_full_spins: 3,
            duplicate_expansions: 0,
            timeline,
            inbox_depth: vec![(1000, 3), (60000, 1)],
        };
        let worker1 = WorkerProfile {
            states: 100,
            items: 420,
            busy_ns: 20000,
            idle_ns: 60000,
            expand_ns: 20000,
            route_send_ns: 0,
            route_recv_ns: 0,
            route_send: 100,
            route_recv: 200,
            local_msgs: 100,
            queue_full_spins: 0,
            duplicate_expansions: 0,
            timeline: WorkerTimeline::with_capacity(4),
            inbox_depth: vec![(2000, 2)],
        };
        ExploreProfile {
            target: "PeriodicMp".to_owned(),
            n: 3,
            s: 3,
            threads: 2,
            max_depth: 27,
            por: false,
            states: 1000,
            unique_states: 1000,
            duplicate_expansions: 0,
            route_send: 600,
            route_recv: 600,
            local_msgs: 800,
            queue_full_spins: 3,
            rounds: 2,
            fallback: false,
            wall_ns: 100000,
            phase_a_ns: 80000,
            replay_ns: 5000,
            phase_b_ns: 15000,
            workers: vec![worker0, worker1],
        }
    }

    #[test]
    fn profile_json_is_valid_and_carries_the_schema() {
        let doc = synthetic().to_json();
        json::validate(&doc).unwrap();
        let v = json::parse(&doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("analyzer-profile/v2")
        );
        assert_eq!(v.get("threads").and_then(json::JsonValue::as_u64), Some(2));
        let routing = v.get("routing").unwrap();
        assert_eq!(
            routing.get("send").and_then(json::JsonValue::as_u64),
            Some(600)
        );
        assert_eq!(
            routing.get("rounds").and_then(json::JsonValue::as_u64),
            Some(2)
        );
        let workers = v
            .get("workers")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(
            workers[0]
                .get("time_ns")
                .and_then(|t| t.get("route_send"))
                .and_then(json::JsonValue::as_u64),
            Some(6000)
        );
        assert_eq!(
            workers[0]
                .get("queue_full_spins")
                .and_then(json::JsonValue::as_u64),
            Some(3)
        );
    }

    #[test]
    fn perfetto_export_has_one_track_per_worker() {
        let out = synthetic().to_perfetto();
        json::validate(&out).unwrap();
        assert!(out.contains("\"name\":\"worker 0\""), "{out}");
        assert!(out.contains("\"name\":\"worker 1\""), "{out}");
        assert!(out.contains("\"name\":\"analyzer: PeriodicMp\""), "{out}");
    }

    #[test]
    fn utilization_and_summary_account_for_the_time() {
        let profile = synthetic();
        let doc = profile.to_json();
        let v = json::parse(&doc).unwrap();
        let workers = v
            .get("workers")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        let util0 = workers[0]
            .get("utilization")
            .and_then(json::JsonValue::as_f64)
            .unwrap();
        assert!((util0 - 0.875).abs() < 1e-9, "{util0}");
        let summary = profile.summary();
        assert!(summary.contains("dup=0 (0.0%)"), "{summary}");
        assert!(summary.contains("threads=2"), "{summary}");
        assert!(summary.contains("rounds=2"), "{summary}");
    }

    #[test]
    fn owner_local_ratio_splits_local_from_routed() {
        let profile = synthetic();
        // 800 local of 1400 generated successors.
        assert!((profile.owner_local_ratio() - 800.0 / 1400.0).abs() < 1e-9);
        let lone = WorkerProfile::new();
        assert!((lone.owner_local_ratio() - 1.0).abs() < 1e-9, "no traffic");
    }

    #[test]
    fn sealing_fills_the_residual_expand_slot() {
        let mut worker = WorkerProfile::new();
        worker.busy_ns = 100;
        worker.route_send_ns = 20;
        worker.route_recv_ns = 10;
        worker.seal();
        assert_eq!(worker.expand_ns, 70);
        worker.busy_ns = 10;
        worker.seal();
        assert_eq!(worker.expand_ns, 0, "residual saturates at zero");
    }

    #[test]
    fn absorb_sums_rounds_per_worker() {
        let mut first = WorkerProfile::new();
        first.states = 10;
        first.busy_ns = 100;
        first.route_send = 5;
        let mut second = WorkerProfile::new();
        second.states = 7;
        second.busy_ns = 50;
        second.route_send = 2;
        second.inbox_depth.push((123, 4));
        first.absorb(second);
        assert_eq!(first.states, 17);
        assert_eq!(first.busy_ns, 150);
        assert_eq!(first.route_send, 7);
        assert_eq!(first.inbox_depth, vec![(123, 4)]);
    }
}
