//! Memoized depth-first exploration of a machine's complete reachable
//! state space, with the session counter and the lint triggers.
//!
//! The explorer walks every branch of [`AnyMachine`]'s choice menu. Along
//! each path it maintains an incremental copy of the greedy session
//! counter (`session_core::verify::count_sessions` semantics, verified
//! equivalent in the test suite), because the session count is
//! history-dependent: two paths can reach the same machine state having
//! closed different numbers of sessions. The memo key therefore combines
//! the machine state with the counter state — pruning on machine state
//! alone would be unsound.
//!
//! Triggers:
//! * quiescent leaf with fewer than `s` sessions → `SA001`;
//! * a step pushing a variable past its `b`-bound → `SA002`;
//! * any process claiming more sessions than counted → `SA003`;
//! * an idle process un-idling → `SA004`;
//! * a state repeating on the current path (an admissible lasso that
//!   never quiesces) → `SA005`.
//!
//! Running out of the depth budget is *not* a finding: it is recorded as
//! [`Exploration::truncated`] (with a cut-path count), so a clean verdict
//! can be told apart from a clean-but-partial one. A state whose subtree
//! was cut at the budget is memoized together with the budget it was
//! explored at — revisiting it through a shorter path (more remaining
//! budget) re-explores it, while revisits with no more budget are
//! skipped, which keeps depth-limited exploration polynomial in the
//! number of reachable states.
//!
//! Two optional reduction layers, both off by default
//! ([`ExploreOpts`]), shrink the explored space without changing any
//! verdict: [`crate::por`] selects an ample subset of each state's choice
//! menu, and [`crate::symmetry`] canonicalizes states of identity-free
//! message-passing targets under process permutation before the memo
//! lookup. [`Exploration::stats`] reports what they saved.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rustc_hash::{FxHashMap, FxHashSet, FxHasher};
use session_obs::{NullRecorder, ProgressBoard, Recorder};
use session_types::Dur;

use crate::diag::LintCode;
use crate::machine::{MpMachine, SmMachine, StepInfo};
use crate::partition::PROGRESS_BATCH;
use crate::profile::{ExploreProfile, FlightOpts, WorkerProfile};
use crate::{por, symmetry};

/// Either machine, so the explorer and replayer are substrate-agnostic.
#[derive(Clone, Debug)]
pub enum AnyMachine {
    /// Shared memory.
    Sm(SmMachine),
    /// Message passing.
    Mp(MpMachine),
}

impl AnyMachine {
    /// See [`SmMachine::choice_count`].
    pub fn choice_count(&self) -> usize {
        match self {
            AnyMachine::Sm(m) => m.choice_count(),
            AnyMachine::Mp(m) => m.choice_count(),
        }
    }

    /// See [`SmMachine::apply`].
    pub fn apply(&mut self, choice: usize, trace: Option<&mut session_sim::Trace>) -> StepInfo {
        match self {
            AnyMachine::Sm(m) => m.apply(choice, trace),
            AnyMachine::Mp(m) => m.apply(choice, trace),
        }
    }

    /// See [`SmMachine::is_quiescent`].
    pub fn is_quiescent(&self) -> bool {
        match self {
            AnyMachine::Sm(m) => m.is_quiescent(),
            AnyMachine::Mp(m) => m.is_quiescent(),
        }
    }

    /// See [`SmMachine::state_hash`].
    pub fn state_hash(&self) -> u64 {
        match self {
            AnyMachine::Sm(m) => m.state_hash(),
            AnyMachine::Mp(m) => m.state_hash(),
        }
    }

    /// See [`MpMachine::claimed_sessions_max`] (`None` for shared memory).
    pub fn claimed_sessions_max(&self) -> Option<u64> {
        match self {
            AnyMachine::Sm(_) => None,
            AnyMachine::Mp(m) => m.claimed_sessions_max(),
        }
    }

    /// See [`SmMachine::control_hash`] / [`MpMachine::control_hash`].
    pub(crate) fn control_hash(&self) -> u64 {
        match self {
            AnyMachine::Sm(m) => m.control_hash(),
            AnyMachine::Mp(m) => m.control_hash(),
        }
    }

    /// See [`SmMachine::initial_windows`] / [`MpMachine::initial_windows`].
    pub(crate) fn initial_windows(&self) -> Vec<(crate::machine::ZoneEvent, Dur, Dur)> {
        match self {
            AnyMachine::Sm(m) => m.initial_windows(),
            AnyMachine::Mp(m) => m.initial_windows(),
        }
    }

    /// See [`SmMachine::gap_window`] / [`MpMachine::gap_window`].
    pub(crate) fn gap_window(&self, p: usize) -> (Dur, Dur) {
        match self {
            AnyMachine::Sm(m) => m.gap_window(p),
            AnyMachine::Mp(m) => m.gap_window(p),
        }
    }

    /// See [`MpMachine::delay_window`] (`None` for shared memory, which
    /// has no messages).
    pub(crate) fn delay_window(&self) -> Option<(Dur, Dur)> {
        match self {
            AnyMachine::Sm(_) => None,
            AnyMachine::Mp(m) => Some(m.delay_window()),
        }
    }

    /// See [`SmMachine::zone_apply`] / [`MpMachine::zone_apply`].
    pub(crate) fn zone_apply(
        &mut self,
        ev: crate::machine::ZoneEvent,
    ) -> (StepInfo, Vec<crate::machine::ZoneEvent>) {
        match self {
            AnyMachine::Sm(m) => m.zone_apply(ev),
            AnyMachine::Mp(m) => m.zone_apply(ev),
        }
    }
}

/// Incremental greedy session counter, mirroring
/// `session_core::verify::count_sessions` step for step: only port steps
/// are visible; the step on which a process idles still counts; later
/// steps of an idle process never do.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct SessionCounter {
    n: usize,
    /// Sessions closed so far, saturated at `s` (further sessions cannot
    /// change any verdict, and saturating keeps the memo key space finite).
    sessions: u64,
    saturate_at: u64,
    covered: BTreeSet<usize>,
    idle: BTreeSet<usize>,
}

impl SessionCounter {
    /// A fresh counter for `n` ports, saturating at `s`.
    pub fn new(n: usize, s: u64) -> SessionCounter {
        SessionCounter {
            n,
            sessions: 0,
            saturate_at: s,
            covered: BTreeSet::new(),
            idle: BTreeSet::new(),
        }
    }

    /// Sessions closed so far (saturated at `s`).
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// Feeds one applied transition.
    pub fn observe(&mut self, info: &StepInfo) {
        let Some(port) = info.port else { return };
        let p = info.process.index();
        let was_idle = self.idle.contains(&p);
        if info.idle_after {
            self.idle.insert(p);
        }
        if was_idle {
            return;
        }
        self.covered.insert(port.index());
        if self.covered.len() >= self.n {
            self.sessions = (self.sessions + 1).min(self.saturate_at);
            self.covered.clear();
        }
    }

    /// Ports required to close the current session.
    pub(crate) fn ports_missing(&self) -> usize {
        self.n - self.covered.len()
    }

    /// Whether `port` is already covered in the current session window.
    pub(crate) fn covers(&self, port: usize) -> bool {
        self.covered.contains(&port)
    }

    /// Whether the counter has marked process `p` idle (its later port
    /// steps no longer cover).
    pub(crate) fn is_idle(&self, p: usize) -> bool {
        self.idle.contains(&p)
    }

    /// Hashes the counter as it would look after renaming process/port `i`
    /// to `sigma[i]` (MP targets only: port ids coincide with process
    /// ids there, so one permutation renames both).
    pub(crate) fn hash_permuted<H: Hasher>(&self, sigma: &[usize], hasher: &mut H) {
        self.n.hash(hasher);
        self.sessions.hash(hasher);
        self.saturate_at.hash(hasher);
        let covered: BTreeSet<usize> = self.covered.iter().map(|&p| sigma[p]).collect();
        covered.hash(hasher);
        let idle: BTreeSet<usize> = self.idle.iter().map(|&p| sigma[p]).collect();
        idle.hash(hasher);
    }
}

/// A lint rule fired during exploration.
#[derive(Clone, Debug)]
pub struct FoundViolation {
    /// Which rule.
    pub code: LintCode,
    /// One-line description.
    pub message: String,
    /// The branch choices leading from the root to the violation —
    /// replaying them through a clone of the root machine reproduces it
    /// exactly.
    pub path: Vec<usize>,
    /// Index of the root (first-step / period assignment) the violation
    /// was found under.
    pub root: usize,
}

/// Which reduction layers the explorer applies, and how many worker
/// threads it runs. Reductions default to off and threads to 1, so every
/// historical verdict is reproduced bit for bit unless a caller opts in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreOpts {
    /// Partial-order reduction: expand only an ample subset of each
    /// state's choice menu (see [`crate::por`]).
    pub por: bool,
    /// Symmetry reduction: canonicalize identity-free MP states under
    /// process permutation before the memo lookup (see
    /// [`crate::symmetry`]).
    pub symmetry: bool,
    /// Worker threads. `1` (the default) runs the classic serial DFS;
    /// `> 1` runs the claim-table parallel explorer in
    /// [`crate::partition`], whose findings *and counters* are
    /// bit-identical to the serial path's (see DESIGN.md §13 for the
    /// determinism argument). Must be at least 1.
    pub threads: usize,
}

impl Default for ExploreOpts {
    fn default() -> ExploreOpts {
        ExploreOpts {
            por: false,
            symmetry: false,
            threads: 1,
        }
    }
}

impl ExploreOpts {
    /// Every reduction on (still single-threaded).
    pub fn reduced() -> ExploreOpts {
        ExploreOpts {
            por: true,
            symmetry: true,
            threads: 1,
        }
    }
}

/// What the reduction layers saved during one exploration. All zeros when
/// both layers are off (the memo-hit counter is tracked either way).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Successor choices skipped by the ample-set selector.
    pub pruned: u64,
    /// Memo-table hits (revisits of an already fully explored state —
    /// with symmetry on, of any state in its orbit).
    pub memo_hits: u64,
}

/// The result of exploring one target.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Distinct states visited across all roots.
    pub states: u64,
    /// The violations found: the first witness of each distinct lint code
    /// (exploration prunes below a violation but keeps searching the rest
    /// of the space, so one target can exhibit several codes — e.g. a
    /// phantom-certifying algorithm both claims too much on some schedules
    /// and under-delivers on others).
    pub violations: Vec<FoundViolation>,
    /// `true` when at least one path was cut at the depth budget: a clean
    /// verdict then covers only the explored prefix of the space.
    pub truncated: bool,
    /// How many paths were cut at the depth budget.
    pub depth_hits: u64,
    /// What the reduction layers saved.
    pub stats: ReductionStats,
}

/// Exhaustively explores every root machine, sharing the memo across
/// roots. `s` is the required session count, `n` the number of ports,
/// `max_depth` the per-path event budget.
pub fn explore(roots: &[AnyMachine], n: usize, s: u64, max_depth: usize) -> Exploration {
    explore_recorded(roots, n, s, max_depth, &mut NullRecorder)
}

/// [`explore`] with reduction layers enabled per `opts`.
pub fn explore_with_opts(
    roots: &[AnyMachine],
    n: usize,
    s: u64,
    max_depth: usize,
    opts: ExploreOpts,
) -> Exploration {
    explore_recorded_opts(roots, n, s, max_depth, opts, &mut NullRecorder)
}

/// [`explore`] with instrumentation: emits `explore.memo_hits` /
/// `explore.memo_misses` counters, an `explore.frontier_depth` histogram
/// (DFS path length at each expansion) and final `explore.states` /
/// `explore.states_per_sec` gauges to `recorder`, timing each root under
/// an `explore.root` span.
pub fn explore_recorded(
    roots: &[AnyMachine],
    n: usize,
    s: u64,
    max_depth: usize,
    recorder: &mut dyn Recorder,
) -> Exploration {
    explore_recorded_opts(roots, n, s, max_depth, ExploreOpts::default(), recorder)
}

/// [`explore_recorded`] with reduction layers enabled per `opts`. Adds an
/// `explore.pruned_choices` counter when partial-order reduction skips
/// successors.
pub fn explore_recorded_opts(
    roots: &[AnyMachine],
    n: usize,
    s: u64,
    max_depth: usize,
    opts: ExploreOpts,
    recorder: &mut dyn Recorder,
) -> Exploration {
    explore_flight(
        roots,
        n,
        s,
        max_depth,
        opts,
        recorder,
        &FlightOpts::default(),
    )
    .0
}

/// [`explore_recorded_opts`] with the flight recorder attached (DESIGN.md
/// §15): when `flight.profile` is set, the returned [`ExploreProfile`]
/// breaks down where the exploration spent its time — per worker for the
/// parallel path, as one degenerate all-expand worker for the serial
/// path — and when `flight.progress` carries a board, the explorer
/// publishes batched live progress to it. The `Exploration` itself is
/// bit-identical with or without either.
#[allow(clippy::cast_precision_loss)]
pub fn explore_flight(
    roots: &[AnyMachine],
    n: usize,
    s: u64,
    max_depth: usize,
    opts: ExploreOpts,
    recorder: &mut dyn Recorder,
    flight: &FlightOpts,
) -> (Exploration, Option<ExploreProfile>) {
    assert!(opts.threads >= 1, "ExploreOpts::threads must be >= 1");
    if opts.threads > 1 {
        return crate::partition::explore_parallel_flight(
            roots, n, s, max_depth, opts, recorder, flight,
        );
    }
    // wslint: allow(ws001): live progress reports real elapsed time by design
    let started = Instant::now();
    let progress = flight.progress.as_deref();
    if let Some(board) = progress {
        board.worker_busy();
    }
    let mut explorer = Explorer {
        memo: FxHashMap::default(),
        on_path: FxHashSet::default(),
        violations: Vec::new(),
        states: 0,
        pruned: 0,
        memo_hit_count: 0,
        depth_hits: 0,
        duplicates: 0,
        current_root: 0,
        s,
        max_depth,
        opts,
        early_stop: None,
        recorder,
        progress,
        batch_states: 0,
        batch_depth: 0,
    };
    for (root_index, root) in roots.iter().enumerate() {
        explorer.current_root = root_index;
        let counter = SessionCounter::new(n, s);
        let mut path = Vec::new();
        explorer.recorder.span_start("explore.root");
        explorer.dfs(root.clone(), &counter, &mut path);
        explorer.recorder.span_end();
    }
    explorer.flush_progress();
    let memo_entries = explorer.memo.len() as u64;
    let Explorer {
        states,
        violations,
        pruned,
        memo_hit_count,
        depth_hits,
        duplicates,
        ..
    } = explorer;
    if let Some(board) = progress {
        board.worker_idle();
    }
    if recorder.is_enabled() {
        recorder.gauge("explore.states", states as f64);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            recorder.gauge("explore.states_per_sec", states as f64 / elapsed);
        }
    }
    let profile = flight.profile.then(|| {
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut worker = WorkerProfile::new();
        worker.states = states;
        worker.items = roots.len() as u64;
        worker.busy_ns = wall_ns;
        worker.duplicate_expansions = duplicates;
        worker.seal();
        ExploreProfile {
            target: String::new(),
            n,
            s,
            threads: 1,
            max_depth,
            por: opts.por,
            symmetry: opts.symmetry,
            states,
            unique_states: memo_entries,
            duplicate_expansions: duplicates,
            route_send: 0,
            route_recv: 0,
            local_msgs: 0,
            queue_full_spins: 0,
            rounds: 1,
            fallback: false,
            wall_ns,
            phase_a_ns: wall_ns,
            replay_ns: 0,
            phase_b_ns: 0,
            workers: vec![worker],
        }
    });
    let exploration = Exploration {
        states,
        violations,
        truncated: depth_hits > 0,
        depth_hits,
        stats: ReductionStats {
            pruned,
            memo_hits: memo_hit_count,
        },
    };
    (exploration, profile)
}

/// What a `dfs` call reports back to its parent expansion.
#[derive(Clone, Copy)]
struct SubtreeOutcome {
    /// `false` when the depth budget cut something below this state — the
    /// state must then not be memoized, so a shallower revisit gets to
    /// finish the job.
    complete: bool,
    /// `true` when this state itself closed a cycle on the DFS stack.
    /// Feeds the ample selector's cycle proviso: an ample successor that
    /// loops straight back onto the stack could postpone the pruned
    /// events forever, so the parent falls back to full expansion.
    closed_cycle: bool,
}

/// Memo value marking a subtree explored with no depth cut below it —
/// nothing on any continuation remains unseen, at any budget.
pub(crate) const MEMO_COMPLETE: usize = usize::MAX;

/// The (machine × counter) memo key: the symmetry-canonical key when the
/// reduction is on and the target is eligible, the plain combined
/// fingerprint otherwise. Shared by the serial explorer and the parallel
/// explorer's replay so both paths prune identically. Equal keys imply equal
/// choice menus — [`MpMachine::eligible`] enumerates in the canonical
/// order the hash is computed over — so the key is graph-determining:
/// the parallel explorer claims and logs records by it, and
/// whichever representative of the class a worker expands first yields
/// the same record any other would have.
///
/// [`MpMachine::eligible`]: crate::machine::MpMachine
pub(crate) fn state_key(machine: &AnyMachine, counter: &SessionCounter, symmetry: bool) -> u64 {
    if symmetry {
        if let Some(canonical) = symmetry::canonical_key(machine, counter) {
            return canonical;
        }
    }
    let mut hasher = FxHasher::default();
    machine.state_hash().hash(&mut hasher);
    counter.hash(&mut hasher);
    hasher.finish()
}

/// The (machine × counter) claim key of the parallel explorer: the
/// plain combined fingerprint, never symmetry-canonicalized. Symmetry
/// reduction equates permuted states whose choice menus rename processes
/// differently, so the canonical key is *not* graph-determining — which
/// permuted representative a worker expanded first would leak into the
/// logged menu. The plain key is graph-determining, so claims and
/// record identity use it; the replay pass then collapses orbits under
/// the memo key ([`state_key`]) exactly where the serial explorer does.
/// Whenever symmetry is off — or refused for the target, which covers
/// every identity-carrying algorithm — the two keys are computed
/// identically and Phase A expands exactly the states serial visits.
pub(crate) fn route_key(machine: &AnyMachine, counter: &SessionCounter) -> u64 {
    state_key(machine, counter, false)
}

/// Step-level rules: `SA002`, `SA003`, `SA004` (un-idle). Pure edge
/// predicate — shared by every exploration mode (and exercised directly
/// by the lint-registry test suite).
pub fn check_step(
    info: &StepInfo,
    machine: &AnyMachine,
    counter: &SessionCounter,
) -> Option<(LintCode, String)> {
    if let Some(var) = info.b_violation {
        return Some((
            LintCode::BBoundViolation,
            format!(
                "variable {var} accessed by more than b distinct processes (process {} was one too many)",
                info.process
            ),
        ));
    }
    if info.is_process_step && info.was_idle && !info.idle_after {
        return Some((
            LintCode::InadmissibleStep,
            format!(
                "process {} un-idled: idle states must be closed under steps",
                info.process
            ),
        ));
    }
    if let Some(claimed) = machine.claimed_sessions_max() {
        if claimed > counter.sessions() {
            return Some((
                LintCode::StaleEvidence,
                format!(
                    "a process claims {claimed} sessions but only {} actually happened",
                    counter.sessions()
                ),
            ));
        }
    }
    None
}

/// Re-derives the canonical (serial first-witness) violation paths for a
/// known set of lint codes: runs the serial DFS in the exact order
/// [`explore_recorded_opts`] uses, but stops as soon as every wanted code
/// has a recorded witness. The parallel explorer uses this to report the
/// same counterexamples the serial path would, independent of thread
/// interleaving — and on clean targets (empty `codes`) it costs nothing.
pub(crate) fn explore_witnesses(
    roots: &[AnyMachine],
    n: usize,
    s: u64,
    max_depth: usize,
    opts: ExploreOpts,
    codes: &BTreeSet<LintCode>,
) -> Vec<FoundViolation> {
    if codes.is_empty() {
        return Vec::new();
    }
    let mut explorer = Explorer {
        memo: FxHashMap::default(),
        on_path: FxHashSet::default(),
        violations: Vec::new(),
        states: 0,
        pruned: 0,
        memo_hit_count: 0,
        depth_hits: 0,
        duplicates: 0,
        current_root: 0,
        s,
        max_depth,
        opts: ExploreOpts { threads: 1, ..opts },
        early_stop: Some(codes.clone()),
        recorder: &mut NullRecorder,
        progress: None,
        batch_states: 0,
        batch_depth: 0,
    };
    for (root_index, root) in roots.iter().enumerate() {
        if explorer.early_stop_satisfied() {
            break;
        }
        explorer.current_root = root_index;
        let counter = SessionCounter::new(n, s);
        let mut path = Vec::new();
        explorer.dfs(root.clone(), &counter, &mut path);
    }
    explorer.violations
}

struct Explorer<'r> {
    /// States (machine × counter) already explored, mapped to the largest
    /// remaining-depth budget that exploration had: [`MEMO_COMPLETE`] for
    /// fully explored subtrees, otherwise the budget a truncated
    /// exploration ran with. A revisit with no more budget than a stored
    /// entry cannot reach anything new (every violation within the
    /// smaller budget was already recorded), so only strictly deeper
    /// revisits re-expand — this is what keeps depth-limited exploration
    /// of wide spaces from re-walking truncated subtrees exponentially.
    memo: FxHashMap<u64, usize>,
    /// States on the current DFS path, for lasso detection.
    on_path: FxHashSet<u64>,
    /// First witness per lint code.
    violations: Vec<FoundViolation>,
    states: u64,
    pruned: u64,
    memo_hit_count: u64,
    depth_hits: u64,
    /// Re-expansions of a state already memoized at a smaller budget
    /// (the serial baseline for the parallel explorer's
    /// duplicate-expansion count).
    duplicates: u64,
    current_root: usize,
    s: u64,
    max_depth: usize,
    opts: ExploreOpts,
    /// When set, exploration stops as soon as every listed code has a
    /// recorded witness (the parallel explorer's witness re-derivation).
    early_stop: Option<BTreeSet<LintCode>>,
    recorder: &'r mut dyn Recorder,
    /// Live-progress scoreboard, updated in [`PROGRESS_BATCH`] batches.
    progress: Option<&'r ProgressBoard>,
    batch_states: u64,
    batch_depth: u64,
}

impl Explorer<'_> {
    fn key(&self, machine: &AnyMachine, counter: &SessionCounter) -> u64 {
        state_key(machine, counter, self.opts.symmetry)
    }

    /// Whether early-stop mode has found everything it was asked for.
    fn early_stop_satisfied(&self) -> bool {
        self.early_stop.as_ref().is_some_and(|want| {
            want.iter()
                .all(|code| self.violations.iter().any(|v| v.code == *code))
        })
    }

    fn record(&mut self, code: LintCode, message: String, path: &[usize]) {
        if self.violations.iter().any(|v| v.code == code) {
            return;
        }
        self.violations.push(FoundViolation {
            code,
            message,
            path: path.to_vec(),
            root: self.current_root,
        });
    }

    fn dfs(
        &mut self,
        machine: AnyMachine,
        counter: &SessionCounter,
        path: &mut Vec<usize>,
    ) -> SubtreeOutcome {
        let done = SubtreeOutcome {
            complete: true,
            closed_cycle: false,
        };
        if self.early_stop_satisfied() {
            // Witness re-derivation has everything it needs; unwind without
            // memoizing (a cut here is not a budget truncation).
            return SubtreeOutcome {
                complete: false,
                closed_cycle: false,
            };
        }
        if machine.is_quiescent() {
            if counter.sessions() < self.s {
                let message = format!(
                    "admissible schedule reaches quiescence with {} of {} required sessions",
                    counter.sessions(),
                    self.s
                );
                self.record(LintCode::SessionDeficit, message, path);
            }
            return done;
        }
        let key = self.key(&machine, counter);
        if self.on_path.contains(&key) {
            self.record(
                LintCode::NonTermination,
                "admissible schedule loops without reaching quiescence (lasso)".to_string(),
                path,
            );
            return SubtreeOutcome {
                complete: true,
                closed_cycle: true,
            };
        }
        let remaining = self.max_depth.saturating_sub(path.len());
        if let Some(&budget) = self.memo.get(&key) {
            if budget >= remaining {
                self.memo_hit_count += 1;
                self.recorder.counter("explore.memo_hits", 1);
                if budget == MEMO_COMPLETE {
                    return done;
                }
                // The stored exploration was cut at a budget at least as
                // large as this one, so this revisit would be cut too.
                self.depth_hits += 1;
                return SubtreeOutcome {
                    complete: false,
                    closed_cycle: false,
                };
            }
        }
        self.recorder.counter("explore.memo_misses", 1);
        if path.len() >= self.max_depth {
            self.depth_hits += 1;
            return SubtreeOutcome {
                complete: false,
                closed_cycle: false,
            };
        }
        self.states += 1;
        if self.progress.is_some() {
            self.batch_states += 1;
            self.batch_depth = self.batch_depth.max(path.len() as u64);
            if self.batch_states >= PROGRESS_BATCH {
                self.flush_progress();
            }
        }
        self.on_path.insert(key);
        let complete = self.expand(&machine, counter, path);
        self.on_path.remove(&key);
        let explored_budget = if complete { MEMO_COMPLETE } else { remaining };
        match self.memo.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                // This expansion redid work an earlier, smaller-budget walk
                // of the same state had already done.
                self.duplicates += 1;
                let stored = entry.get_mut();
                *stored = (*stored).max(explored_budget);
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(explored_budget);
            }
        }
        SubtreeOutcome {
            complete,
            closed_cycle: false,
        }
    }

    /// Publishes the batched progress counters to the scoreboard.
    fn flush_progress(&mut self) {
        let Some(board) = self.progress else { return };
        if self.batch_states > 0 {
            board.add_states(self.batch_states);
            self.batch_states = 0;
        }
        board.raise_depth(self.batch_depth);
    }

    /// Expands one choice and recurses; returns the child's outcome
    /// (`complete` when the edge was pruned at a step-level violation —
    /// pruning below a witness is deliberate, not a budget cut).
    fn explore_choice(
        &mut self,
        machine: &AnyMachine,
        counter: &SessionCounter,
        choice: usize,
        path: &mut Vec<usize>,
    ) -> SubtreeOutcome {
        path.push(choice);
        let mut next = machine.clone();
        let info = next.apply(choice, None);
        // The counter only advances on port steps — deliveries and relay
        // steps (the bulk of most menus) reuse the parent's counter
        // without cloning it.
        let observed;
        let next_counter = if info.port.is_some() {
            let mut cloned = counter.clone();
            cloned.observe(&info);
            observed = cloned;
            &observed
        } else {
            counter
        };
        let outcome = match check_step(&info, &next, next_counter) {
            Some((code, message)) => {
                self.record(code, message, path);
                SubtreeOutcome {
                    complete: true,
                    closed_cycle: false,
                }
            }
            None => self.dfs(next, next_counter, path),
        };
        path.pop();
        outcome
    }

    /// Expands a state's successors — the ample subset when partial-order
    /// reduction is on and finds one, the full menu otherwise. Returns
    /// `false` when any explored subtree was cut at the depth budget.
    fn expand(
        &mut self,
        machine: &AnyMachine,
        counter: &SessionCounter,
        path: &mut Vec<usize>,
    ) -> bool {
        let choices = machine.choice_count();
        debug_assert!(choices > 0, "non-quiescent machine must have events");
        if self.recorder.is_enabled() {
            self.recorder
                .observe("explore.frontier_depth", path.len() as f64);
        }
        let ample = if self.opts.por {
            por::select_ample(machine, counter)
        } else {
            None
        };
        let Some(ample) = ample else {
            let mut complete = true;
            for choice in 0..choices {
                complete &= self.explore_choice(machine, counter, choice, path).complete;
            }
            return complete;
        };
        debug_assert!(ample.end <= choices && !ample.is_empty());
        let mut complete = true;
        let mut closed_cycle = false;
        for choice in ample.start..ample.end {
            let outcome = self.explore_choice(machine, counter, choice, path);
            complete &= outcome.complete;
            closed_cycle |= outcome.closed_cycle;
        }
        if closed_cycle {
            // Cycle proviso: an ample successor landed back on the DFS
            // stack, so the pruned events could be postponed around that
            // loop forever. Expand the rest of the menu too.
            for choice in (0..ample.start).chain(ample.end..choices) {
                complete &= self.explore_choice(machine, counter, choice, path).complete;
            }
        } else {
            let skipped = (choices - ample.len()) as u64;
            self.pruned += skipped;
            self.recorder.counter("explore.pruned_choices", skipped);
        }
        complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use session_types::{PortId, ProcessId, Time};

    fn port_step(p: usize, port: usize, idle_after: bool) -> StepInfo {
        StepInfo {
            time: Time::ZERO,
            process: ProcessId::new(p),
            port: Some(PortId::new(port)),
            was_idle: false,
            idle_after,
            is_process_step: true,
            b_violation: None,
        }
    }

    #[test]
    fn counter_counts_simple_sessions() {
        let mut counter = SessionCounter::new(2, 10);
        counter.observe(&port_step(0, 0, false));
        assert_eq!(counter.sessions(), 0);
        counter.observe(&port_step(1, 1, false));
        assert_eq!(counter.sessions(), 1, "both ports covered closes a session");
        counter.observe(&port_step(0, 0, false));
        counter.observe(&port_step(0, 0, false));
        assert_eq!(counter.sessions(), 1, "one port alone cannot close another");
        counter.observe(&port_step(1, 1, false));
        assert_eq!(counter.sessions(), 2);
    }

    #[test]
    fn counter_idling_step_counts_but_later_steps_do_not() {
        let mut counter = SessionCounter::new(2, 10);
        // p0's idling step still covers port 0…
        counter.observe(&port_step(0, 0, true));
        counter.observe(&port_step(1, 1, false));
        assert_eq!(counter.sessions(), 1);
        // …but its steps after idling never cover again.
        counter.observe(&port_step(0, 0, true));
        counter.observe(&port_step(1, 1, false));
        assert_eq!(counter.sessions(), 1);
    }

    #[test]
    fn counter_ignores_deliveries() {
        let mut counter = SessionCounter::new(1, 10);
        counter.observe(&StepInfo {
            time: Time::ZERO,
            process: ProcessId::new(0),
            port: None,
            was_idle: false,
            idle_after: false,
            is_process_step: false,
            b_violation: None,
        });
        assert_eq!(counter.sessions(), 0);
    }

    #[test]
    fn counter_saturates_at_s() {
        let mut counter = SessionCounter::new(1, 2);
        for _ in 0..5 {
            counter.observe(&port_step(0, 0, false));
        }
        assert_eq!(counter.sessions(), 2);
    }

    #[test]
    fn counter_permuted_hash_is_permutation_sensitive() {
        let mut counter = SessionCounter::new(3, 5);
        counter.observe(&port_step(0, 0, false));
        counter.observe(&port_step(1, 1, true));
        // Swapping processes 0 and 1 must rename both the covered port
        // and the idle process.
        let mut swapped = SessionCounter::new(3, 5);
        swapped.observe(&port_step(1, 1, false));
        swapped.observe(&port_step(0, 0, true));
        let hash = |c: &SessionCounter, sigma: &[usize]| {
            let mut h = FxHasher::default();
            c.hash_permuted(sigma, &mut h);
            h.finish()
        };
        assert_eq!(hash(&counter, &[1, 0, 2]), hash(&swapped, &[0, 1, 2]));
        assert_ne!(hash(&counter, &[0, 1, 2]), hash(&swapped, &[0, 1, 2]));
    }
}
