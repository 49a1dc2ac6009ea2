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
//! One optional reduction layer, off by default ([`ExploreOpts`]),
//! shrinks the explored space without changing any verdict:
//! [`crate::por`] selects an ample subset of each state's choice menu.
//! [`Exploration::stats`] reports what it saved.

use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rustc_hash::{FxHashSet, FxHasher};
use session_obs::{NullRecorder, Recorder};
use session_types::Dur;

use crate::diag::LintCode;
use crate::machine::{with_menu, GapMode, Menu, MpMachine, SmMachine, StepInfo};
use crate::por;
use crate::profile::{ExploreProfile, FlightOpts, ProgressBatch, WorkerProfile};
use crate::replay::{replay, Counterexample};
use crate::scope::Scope;
use crate::walk::{Counts, Edge, Expansion, Space, Walk};
use crate::zones::ExplicitReach;

/// Either machine, so the explorer and replayer are substrate-agnostic.
#[derive(Clone, Debug)]
pub enum AnyMachine {
    /// Shared memory.
    Sm(SmMachine),
    /// Message passing.
    Mp(MpMachine),
}

impl AnyMachine {
    /// The number of admissible transitions from this state. Builds the
    /// state's menu for this one call, in a per-thread scratch buffer.
    pub fn choice_count(&self) -> usize {
        with_menu(|menu| {
            self.build_menu(menu);
            menu.choice_count()
        })
    }

    /// Applies transition `choice` (must be `< choice_count()`), recording
    /// it into `trace` when one is given. Builds the state's menu for this
    /// one call; the explorers and [`crate::replay::replay`] build it once
    /// per state instead (`AnyMachine::build_menu`,
    /// `AnyMachine::apply_menu`).
    pub fn apply(&mut self, choice: usize, trace: Option<&mut session_sim::Trace>) -> StepInfo {
        with_menu(|menu| {
            self.build_menu(menu);
            self.apply_menu(menu, choice, trace)
        })
    }

    /// Fills `menu` with this state's choice menu.
    pub(crate) fn build_menu(&self, menu: &mut Menu) {
        match self {
            AnyMachine::Sm(m) => m.build_menu(menu),
            AnyMachine::Mp(m) => m.build_menu(menu),
        }
    }

    /// Applies `choice` from `menu`, which must have been built from this
    /// state (the parent a child was cloned from), recording the event
    /// into `trace` when one is given, exactly as the engine would.
    pub(crate) fn apply_menu(
        &mut self,
        menu: &Menu,
        choice: usize,
        trace: Option<&mut session_sim::Trace>,
    ) -> StepInfo {
        match self {
            AnyMachine::Sm(m) => m.apply_menu(menu, choice, trace),
            AnyMachine::Mp(m) => m.apply_menu(menu, choice, trace),
        }
    }

    /// Moves this state onto `Arc`s that no other state shares, so a
    /// worker thread that adopts it never writes a refcount another
    /// worker writes too.
    pub(crate) fn rehome(&mut self) {
        match self {
            AnyMachine::Sm(m) => m.rehome(),
            AnyMachine::Mp(m) => m.rehome(),
        }
    }

    /// The number of processes, relays included (a trace's width).
    pub(crate) fn num_processes(&self) -> usize {
        match self {
            AnyMachine::Sm(m) => m.algos().len(),
            AnyMachine::Mp(m) => m.num_processes(),
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
    pub fn control_hash(&self) -> u64 {
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

    /// How the machine's step gaps are chosen.
    pub(crate) fn gaps(&self) -> &GapMode {
        match self {
            AnyMachine::Sm(m) => m.gaps(),
            AnyMachine::Mp(m) => m.gaps(),
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
///
/// The covered ports and the idle processes are bitmasks (bit `p` for
/// port or process `p`), so forking a counter allocates nothing.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct SessionCounter {
    n: usize,
    /// Sessions closed so far, saturated at `s` (further sessions cannot
    /// change any verdict, and saturating keeps the memo key space finite).
    sessions: u64,
    saturate_at: u64,
    covered: u64,
    idle: u64,
}

impl SessionCounter {
    /// The most ports a counter tracks: the port and process sets are
    /// `u64` masks.
    pub const MAX_PORTS: usize = 64;

    /// A fresh counter for `n` ports, saturating at `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`SessionCounter::MAX_PORTS`].
    pub fn new(n: usize, s: u64) -> SessionCounter {
        assert!(
            n <= Self::MAX_PORTS,
            "the session counter tracks at most 64 ports"
        );
        SessionCounter {
            n,
            sessions: 0,
            saturate_at: s,
            covered: 0,
            idle: 0,
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
        let was_idle = self.is_idle(p);
        if info.idle_after {
            self.idle |= 1 << p;
        }
        if was_idle {
            return;
        }
        self.covered |= 1 << port.index();
        if self.covered.count_ones() as usize >= self.n {
            self.sessions = (self.sessions + 1).min(self.saturate_at);
            self.covered = 0;
        }
    }

    /// Ports required to close the current session.
    pub(crate) fn ports_missing(&self) -> usize {
        self.n - self.covered.count_ones() as usize
    }

    /// Whether `port` is already covered in the current session window.
    pub(crate) fn covers(&self, port: usize) -> bool {
        self.covered & 1 << port != 0
    }

    /// Whether the counter has marked process `p` idle (its later port
    /// steps no longer cover).
    pub(crate) fn is_idle(&self, p: usize) -> bool {
        self.idle & 1 << p != 0
    }
}

/// A lint rule fired during exploration.
#[derive(Clone, Debug)]
pub struct FoundViolation {
    /// Which rule the search recorded.
    pub code: LintCode,
    /// The branch choices leading from the root to the violation —
    /// replaying them through a clone of the root machine reproduces it
    /// exactly.
    pub path: Vec<usize>,
    /// Index of the root (first-step / period assignment) the violation
    /// was found under.
    pub root: usize,
    /// The one walk of `path` after the search: the finding's message,
    /// session count, end state, trace and step script. Its `code` equals
    /// [`FoundViolation::code`] unless the checker is at fault, which
    /// [`crate::replay::self_check`] reports.
    pub counterexample: Counterexample,
}

/// Whether the explorer applies partial-order reduction, and how many
/// worker threads it runs. POR defaults to off and threads to 1, so every
/// historical verdict is reproduced bit for bit unless a caller opts in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreOpts {
    /// Partial-order reduction: expand only an ample subset of each
    /// state's choice menu (see [`crate::por`]).
    pub por: bool,
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
            threads: 1,
        }
    }
}

impl ExploreOpts {
    /// Partial-order reduction on (still single-threaded).
    pub fn reduced() -> ExploreOpts {
        ExploreOpts {
            por: true,
            threads: 1,
        }
    }
}

/// What the reduction layer saved during one exploration. `pruned` is
/// zero when POR is off (the memo-hit counter is tracked either way).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Successor choices skipped by the ample-set selector.
    pub pruned: u64,
    /// Memo-table hits (revisits of an already fully explored state).
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
    /// What the reduction layer saved.
    pub stats: ReductionStats,
}

impl Exploration {
    /// The exploration a walk with `counts` and `violations` reports.
    pub(crate) fn new(counts: Counts, violations: Vec<FoundViolation>) -> Exploration {
        Exploration {
            states: counts.states,
            violations,
            truncated: counts.depth_hits > 0,
            depth_hits: counts.depth_hits,
            stats: ReductionStats {
                pruned: counts.pruned,
                memo_hits: counts.memo_hits,
            },
        }
    }
}

/// Exhaustively explores every root machine, sharing the memo across
/// roots, with partial-order reduction enabled per `opts`. `s` is the required
/// session count, `n` the number of ports, `max_depth` the per-path event
/// budget.
pub fn explore_with_opts(
    roots: &[AnyMachine],
    n: usize,
    s: u64,
    max_depth: usize,
    opts: ExploreOpts,
) -> Exploration {
    explore_flight(
        roots,
        n,
        s,
        max_depth,
        opts,
        &mut NullRecorder,
        &FlightOpts::default(),
    )
    .0
}

/// [`explore_with_opts`] with instrumentation and the flight recorder
/// attached. To `recorder` it emits an `explore.frontier_depth` histogram
/// (DFS path length at each expansion), final `explore.memo_hits` /
/// `explore.memo_misses` / `explore.pruned_choices` counters and
/// `explore.states` / `explore.states_per_sec` gauges, timing each root
/// under an `explore.root` span. With the flight recorder (DESIGN.md
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
    let space = Explicit {
        progress: ProgressBatch::new(progress),
        ..Explicit::new(s, opts, recorder)
    };
    let mut walk = walk_roots(space, roots, n, max_depth);
    walk.space.progress.flush();
    if let Some(board) = progress {
        board.worker_idle();
    }
    let memo_entries = walk.memo_len() as u64;
    let counts = walk.counts;
    let (violations, phase_b_ns) = walk.space.witnesses.violations(roots, n, s);
    if recorder.is_enabled() {
        record_totals(recorder, &counts, started);
    }
    let profile = flight.profile.then(|| {
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut worker = WorkerProfile::new();
        worker.states = counts.states;
        worker.items = roots.len() as u64;
        worker.busy_ns = wall_ns;
        worker.duplicate_expansions = counts.duplicates;
        worker.seal();
        ExploreProfile {
            target: String::new(),
            n,
            s,
            threads: 1,
            max_depth,
            por: opts.por,
            states: counts.states,
            unique_states: memo_entries,
            duplicate_expansions: counts.duplicates,
            route_send: 0,
            route_recv: 0,
            local_msgs: 0,
            queue_full_spins: 0,
            rounds: 1,
            fallback: false,
            wall_ns,
            phase_a_ns: wall_ns.saturating_sub(phase_b_ns),
            replay_ns: 0,
            phase_b_ns,
            workers: vec![worker],
        }
    });
    (Exploration::new(counts, violations), profile)
}

/// Emits the `explore.*` totals both explorers report from their walk's
/// `counts`: the memo and partial-order counters, `explore.states` and
/// `explore.states_per_sec` over the time since `started`.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn record_totals(recorder: &mut dyn Recorder, counts: &Counts, started: Instant) {
    recorder.counter("explore.memo_hits", counts.memo_hits);
    recorder.counter("explore.memo_misses", counts.memo_misses);
    recorder.counter("explore.pruned_choices", counts.pruned);
    recorder.gauge("explore.states", counts.states as f64);
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > 0.0 {
        recorder.gauge("explore.states_per_sec", counts.states as f64 / elapsed);
    }
}

/// The (machine × counter) state key: the combined fingerprint the
/// serial explorer memoizes on and the parallel explorer claims, logs and
/// replays by, so both paths prune identically. Equal keys imply equal
/// choice menus — [`MpMachine`] keeps its pending events in the canonical
/// order the hash is computed over, and its menu is their eligible prefix
/// — so the key is graph-determining: whichever representative of the
/// class a worker expands first yields the same record any other would
/// have.
pub fn state_key(machine: &AnyMachine, counter: &SessionCounter) -> u64 {
    let mut hasher = FxHasher::default();
    machine.state_hash().hash(&mut hasher);
    counter.hash(&mut hasher);
    hasher.finish()
}

/// `SA001`'s message when a quiescent state's `counter` closed fewer
/// than `s` sessions.
pub(crate) fn session_deficit(counter: &SessionCounter, s: u64) -> Option<String> {
    let sessions = counter.sessions();
    (sessions < s).then(|| {
        format!("admissible schedule reaches quiescence with {sessions} of {s} required sessions")
    })
}

/// `SA005`'s message.
pub(crate) const LASSO: &str = "admissible schedule loops without reaching quiescence (lasso)";

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

/// The first witness of each lint code a walk found, in the order it
/// found them: the code, the index of the witness's root in `roots` and
/// the walk's path of choices from that root. The serial explorer and
/// the parallel explorer's replay record into it at the same points of
/// the same DFS, so both report the same witnesses.
#[derive(Default)]
pub(crate) struct Witnesses {
    /// Index of the root the walk is under.
    pub(crate) root: usize,
    /// Each witness: its code, root index and path.
    pub(crate) found: Vec<(LintCode, usize, Vec<usize>)>,
}

impl Witnesses {
    /// Records `path` under the current root as `code`'s witness, unless
    /// `code` already has one.
    pub(crate) fn record(&mut self, code: LintCode, path: &[usize]) {
        if self.found.iter().all(|(known, ..)| *known != code) {
            self.found.push((code, self.root, path.to_vec()));
        }
    }

    /// The violations the witnesses show, each with the one [`replay`]
    /// walk of its path, and the wall time the walks took.
    pub(crate) fn violations(
        self,
        roots: &[AnyMachine],
        n: usize,
        s: u64,
    ) -> (Vec<FoundViolation>, u64) {
        // wslint: allow(ws001): flight profiler measures real elapsed time by design
        let started = Instant::now();
        let violations = self
            .found
            .into_iter()
            .map(|(code, root, path)| FoundViolation {
                counterexample: replay(&roots[root], n, s, &path),
                code,
                path,
                root,
            })
            .collect();
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (violations, nanos)
    }
}

/// A state of the explicit walks. Steps the session counter does not see
/// (the bulk of most menus) borrow the parent's counter.
struct Node<'a> {
    machine: AnyMachine,
    counter: Cow<'a, SessionCounter>,
}

/// A successor edge's result: pruned at a step-level lint, or an open
/// child state (with its advanced counter when the step was visible to
/// the session counter).
pub(crate) enum Child {
    Pruned(LintCode),
    Open(AnyMachine, Option<SessionCounter>),
}

/// The child of `machine` at `choice` of its built `menu`.
pub(crate) fn make_child(
    machine: &AnyMachine,
    menu: &Menu,
    counter: &SessionCounter,
    choice: usize,
) -> Child {
    let mut next = machine.clone();
    let info = next.apply_menu(menu, choice, None);
    let next_counter = info.port.is_some().then(|| {
        let mut cloned = counter.clone();
        cloned.observe(&info);
        cloned
    });
    let effective = next_counter.as_ref().unwrap_or(counter);
    match check_step(&info, &next, effective) {
        Some((code, _)) => Child::Pruned(code),
        None => Child::Open(next, next_counter),
    }
}

/// The explicit state space, keyed by [`state_key`]: the serial explorer
/// and, collecting control hashes, the explicit side of the `SA012`
/// cross-check.
struct Explicit<'r> {
    s: u64,
    opts: ExploreOpts,
    witnesses: Witnesses,
    recorder: &'r mut dyn Recorder,
    progress: ProgressBatch<'r>,
    /// One reused menu buffer per path depth.
    menus: Vec<Menu>,
    /// When set, collects the control hash of every expanded state.
    controls: Option<FxHashSet<u64>>,
}

impl<'r> Explicit<'r> {
    fn new(s: u64, opts: ExploreOpts, recorder: &'r mut dyn Recorder) -> Explicit<'r> {
        Explicit {
            s,
            opts,
            witnesses: Witnesses::default(),
            recorder,
            progress: ProgressBatch::new(None),
            menus: Vec::new(),
            controls: None,
        }
    }
}

impl Space for Explicit<'_> {
    type State<'a> = Node<'a>;
    type Summary = ();

    fn key(&mut self, node: &Node<'_>, path: &[usize]) -> Option<u64> {
        if node.machine.is_quiescent() {
            if node.counter.sessions() < self.s {
                self.witnesses.record(LintCode::SessionDeficit, path);
            }
            return None;
        }
        Some(state_key(&node.machine, &node.counter))
    }

    fn lasso(&mut self, path: &[usize]) {
        self.witnesses.record(LintCode::NonTermination, path);
    }

    fn expand(&mut self, node: &Node<'_>, path: &[usize]) -> Expansion {
        if let Some(controls) = &mut self.controls {
            controls.insert(node.machine.control_hash());
        }
        self.progress.tick(path.len());
        if self.recorder.is_enabled() {
            self.recorder
                .observe("explore.frontier_depth", path.len() as f64);
        }
        let depth = path.len();
        if self.menus.len() <= depth {
            self.menus.resize_with(depth + 1, Menu::default);
        }
        let menu = &mut self.menus[depth];
        node.machine.build_menu(menu);
        let choices = menu.choice_count();
        debug_assert!(choices > 0, "non-quiescent machine must have events");
        let ample = if self.opts.por {
            por::select_ample(&node.machine, menu, &node.counter)
        } else {
            None
        };
        Expansion {
            choices,
            ample,
            partial: None,
        }
    }

    fn child<'b>(
        &mut self,
        parent: &'b Node<'_>,
        choice: usize,
        path: &[usize],
    ) -> Edge<Node<'b>, ()> {
        let menu = &self.menus[path.len() - 1];
        match make_child(&parent.machine, menu, &parent.counter, choice) {
            Child::Pruned(code) => {
                self.witnesses.record(code, path);
                Edge::Pruned(())
            }
            Child::Open(machine, counter) => {
                let counter = counter.map_or(Cow::Borrowed(&*parent.counter), Cow::Owned);
                Edge::Open(Node { machine, counter }, ())
            }
        }
    }
}

/// Walks `space` from every root in order, sharing the memo across roots.
fn walk_roots<'r>(
    space: Explicit<'r>,
    roots: &[AnyMachine],
    n: usize,
    max_depth: usize,
) -> Walk<Explicit<'r>> {
    let mut walk = Walk::new(space, max_depth, 0);
    for (index, root) in roots.iter().enumerate() {
        walk.space.witnesses.root = index;
        walk.space.recorder.span_start("explore.root");
        walk.visit(Node {
            machine: root.clone(),
            counter: Cow::Owned(SessionCounter::new(n, walk.space.s)),
        });
        walk.space.recorder.span_end();
    }
    walk
}

/// The explicit side of the SA012 cross-check: a serial full-menu walk
/// (no POR — a reduction must not be able to mask a divergence)
/// collecting the reachable control-hash set.
pub fn explicit_control_reach(roots: &[AnyMachine], scope: &Scope) -> ExplicitReach {
    let mut recorder = NullRecorder;
    let space = Explicit {
        controls: Some(FxHashSet::default()),
        ..Explicit::new(scope.s, ExploreOpts::default(), &mut recorder)
    };
    let walk = walk_roots(space, roots, scope.n, scope.max_depth);
    ExplicitReach {
        states: walk.counts.states,
        truncated: walk.counts.depth_hits > 0,
        controls: walk.space.controls.unwrap_or_default(),
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
}
