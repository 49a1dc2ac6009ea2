//! Cloneable state machines mirroring the engines, with an enumerated
//! branch menu at every state.
//!
//! The real engines ([`session_smm::SmEngine`], [`session_mpm::MpEngine`])
//! execute *one* schedule chosen by a [`session_sim::StepSchedule`]. The
//! checker instead needs, at every reachable state, the *set* of admissible
//! next transitions. [`SmMachine`] and [`MpMachine`] reimplement the
//! engines' exact step semantics (variable access and port tagging for
//! shared memory; delivery buffering, broadcast fan-out and event ordering
//! for message passing) over cloneable process values, exposing a flat
//! `0..choice_count()` menu whose entries enumerate: which eligible event
//! fires next (equal-time events may fire in any order), which admissible
//! gap the stepping process's *next* step is scheduled after, and — for a
//! broadcasting message-passing step — which admissible delay each
//! recipient's copy is assigned.
//!
//! Fidelity to the engines is not taken on faith: `replay` re-executes
//! counterexample paths through the real `SmEngine` and compares global
//! states, and the test suite runs differential machine-vs-engine checks.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rustc_hash::FxHasher;

use session_adversary::naive::{NaiveMpPort, NaiveSmPort};
use session_core::algorithms::{
    AsyncMpPort, AsyncSmPort, PeriodicMpPort, PeriodicSmPort, SemiSyncMpPort, SemiSyncSmPort,
    SporadicMpPort, StepCountingMpPort, StepCountingSmPort, SyncMpPort, SyncSmPort,
};
use session_core::SessionMsg;
use session_mpm::{Envelope, MpProcess};
use session_smm::{Knowledge, RelayProcess, SmProcess, TreeSpec};
use session_types::{Dur, MsgId, PortId, ProcessId, Time, VarId};

/// Every shared-memory process the checker can host, as a cloneable value.
///
/// (The engines take `Box<dyn SmProcess>`, which cannot be cloned; the
/// checker needs cloning to fork a state per branch.)
#[derive(Clone, Debug)]
pub enum SmAlgo {
    /// `A(syn)`: `s` silent steps.
    Sync(SyncSmPort),
    /// `A(p)`: announce step counts, wait to hear everyone.
    Periodic(PeriodicSmPort),
    /// `A(ss)`: step counting or waves, whichever is cheaper.
    SemiSync(SemiSyncSmPort),
    /// `A(a)` (also the sporadic-model algorithm): the wave protocol.
    Async(AsyncSmPort),
    /// A tree-network relay (never idles).
    Relay(RelayProcess),
    /// The silent naive witness.
    Naive(NaiveSmPort),
    /// The step-counting witness with a cheated (halved) block constant.
    CheatStepCounting(StepCountingSmPort),
}

impl SmProcess<Knowledge> for SmAlgo {
    fn target(&self) -> VarId {
        match self {
            SmAlgo::Sync(p) => p.target(),
            SmAlgo::Periodic(p) => p.target(),
            SmAlgo::SemiSync(p) => p.target(),
            SmAlgo::Async(p) => p.target(),
            SmAlgo::Relay(p) => p.target(),
            SmAlgo::Naive(p) => p.target(),
            SmAlgo::CheatStepCounting(p) => p.target(),
        }
    }

    fn step(&mut self, value: &Knowledge) -> Knowledge {
        match self {
            SmAlgo::Sync(p) => p.step(value),
            SmAlgo::Periodic(p) => p.step(value),
            SmAlgo::SemiSync(p) => p.step(value),
            SmAlgo::Async(p) => p.step(value),
            SmAlgo::Relay(p) => p.step(value),
            SmAlgo::Naive(p) => p.step(value),
            SmAlgo::CheatStepCounting(p) => p.step(value),
        }
    }

    fn is_idle(&self) -> bool {
        match self {
            SmAlgo::Sync(p) => p.is_idle(),
            SmAlgo::Periodic(p) => p.is_idle(),
            SmAlgo::SemiSync(p) => p.is_idle(),
            SmAlgo::Async(p) => p.is_idle(),
            SmAlgo::Relay(p) => p.is_idle(),
            SmAlgo::Naive(p) => p.is_idle(),
            SmAlgo::CheatStepCounting(p) => p.is_idle(),
        }
    }
}

/// Every message-passing process the checker can host, as a cloneable
/// value.
#[derive(Clone, Debug)]
pub enum MpAlgo {
    /// `A(syn)`: `s` silent steps.
    Sync(SyncMpPort),
    /// `A(p)`: announce step counts, wait to hear everyone.
    Periodic(PeriodicMpPort),
    /// `A(ss)`: step counting or the wave protocol.
    SemiSync(SemiSyncMpPort),
    /// `A(sp)`: freshness evidence with the waiting constant `B`.
    Sporadic(SporadicMpPort),
    /// `A(a)`: the wave protocol.
    Async(AsyncMpPort),
    /// The silent naive witness.
    Naive(NaiveMpPort),
    /// The silent step-counting arm on its own.
    StepCounting(StepCountingMpPort),
}

impl MpProcess<SessionMsg> for MpAlgo {
    fn step(&mut self, inbox: Vec<Envelope<SessionMsg>>) -> Option<SessionMsg> {
        match self {
            MpAlgo::Sync(p) => p.step(inbox),
            MpAlgo::Periodic(p) => p.step(inbox),
            MpAlgo::SemiSync(p) => p.step(inbox),
            MpAlgo::Sporadic(p) => p.step(inbox),
            MpAlgo::Async(p) => p.step(inbox),
            MpAlgo::Naive(p) => p.step(inbox),
            MpAlgo::StepCounting(p) => p.step(inbox),
        }
    }

    fn is_idle(&self) -> bool {
        match self {
            MpAlgo::Sync(p) => p.is_idle(),
            MpAlgo::Periodic(p) => p.is_idle(),
            MpAlgo::SemiSync(p) => p.is_idle(),
            MpAlgo::Sporadic(p) => p.is_idle(),
            MpAlgo::Async(p) => p.is_idle(),
            MpAlgo::Naive(p) => p.is_idle(),
            MpAlgo::StepCounting(p) => p.is_idle(),
        }
    }
}

impl MpAlgo {
    /// The number of sessions this process *claims* have happened, when the
    /// algorithm maintains such a counter (`A(sp)`'s `session` variable).
    /// The `SA003` invariant: the claim may never exceed the sessions the
    /// independent counter has actually observed (Lemma 6.3).
    pub fn claimed_sessions(&self) -> Option<u64> {
        match self {
            MpAlgo::Sporadic(p) => Some(p.session()),
            _ => None,
        }
    }

    /// Whether this process's state mentions no process identities: its
    /// fingerprint is then invariant under renaming the *other* processes,
    /// and renaming it moves its whole local state unchanged to the new
    /// slot. This is the soundness gate for symmetry reduction — processes
    /// that remember *who* they heard from (`A(p)`'s done-set, `A(a)`'s
    /// knowledge, `A(sp)`'s evidence) break the permutation automorphism,
    /// because their stored ids would need rewriting inside an opaque
    /// fingerprint.
    pub(crate) fn id_free(&self) -> bool {
        match self {
            MpAlgo::Sync(_) | MpAlgo::Naive(_) | MpAlgo::StepCounting(_) => true,
            MpAlgo::SemiSync(p) => matches!(
                p.strategy(),
                session_core::algorithms::MpStrategy::StepCounting
            ),
            MpAlgo::Periodic(_) | MpAlgo::Sporadic(_) | MpAlgo::Async(_) => false,
        }
    }
}

/// How step gaps are chosen.
#[derive(Clone, Debug)]
pub enum GapMode {
    /// Each step independently picks any gap from the scope menu
    /// (synchronous/semi-synchronous/sporadic/asynchronous models; the
    /// synchronous menu has one entry, so the choice is forced).
    PerStep(Vec<Dur>),
    /// Every process was assigned one fixed period at the root of the
    /// exploration (the periodic model: gaps must be one constant per
    /// process).
    FixedPerProcess(Vec<Dur>),
}

impl GapMode {
    fn menu_len(&self) -> usize {
        match self {
            GapMode::PerStep(menu) => menu.len(),
            GapMode::FixedPerProcess(_) => 1,
        }
    }

    fn gap(&self, process: usize, index: usize) -> Dur {
        match self {
            GapMode::PerStep(menu) => menu[index],
            GapMode::FixedPerProcess(periods) => periods[process],
        }
    }
}

/// One schedulable event as the zone walker ([`crate::zones`]) identifies
/// it: *which* event fires, with no concrete firing time — the symbolic
/// walker keeps times in a DBM instead of in the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ZoneEvent {
    /// Process `p`'s (unique) next step.
    Step(usize),
    /// The in-flight delivery with pending sequence `seq`, addressed to
    /// `to`. Sender and payload ride along so the walker can key its memo
    /// on which message each clock tracks (`seq` itself is an enumeration
    /// artifact and must stay out of state identity).
    Deliver {
        /// The pending-queue sequence number identifying the delivery.
        seq: u64,
        /// The recipient.
        to: usize,
        /// The sender.
        from: usize,
        /// The message payload value.
        value: u64,
    },
}

/// What one applied transition did, for the explorer's session counter and
/// lint rules.
#[derive(Clone, Debug)]
pub struct StepInfo {
    /// When the event fired.
    pub time: Time,
    /// The process that stepped (or received the delivery).
    pub process: ProcessId,
    /// The port tag of the step, exactly as the engine's trace would tag
    /// it (`None` for relays and deliveries).
    pub port: Option<PortId>,
    /// Whether the process was idle before the event.
    pub was_idle: bool,
    /// Whether the process is idle after the event.
    pub idle_after: bool,
    /// `true` for a process step, `false` for a delivery.
    pub is_process_step: bool,
    /// A shared-variable fan-in violation (`SA002`): more than `b` distinct
    /// processes have now accessed this variable.
    pub b_violation: Option<VarId>,
}

/// The per-exploration-root immutable configuration of an [`SmMachine`],
/// shared by every state forked from that root. Forking a state must not
/// copy any of this — it rides along behind one `Arc`.
#[derive(Debug)]
struct SmStatics {
    gaps: GapMode,
    b: usize,
    n_ports: usize,
}

/// The exhaustive shared-memory machine: mirrors [`session_smm::SmEngine`]
/// over cloneable [`SmAlgo`] processes.
///
/// Every component a transition does *not* touch is interned behind an
/// `Arc`: cloning the machine to fork a branch bumps refcounts instead of
/// deep-copying process states, variable values and accessor sets, and
/// `apply` copies-on-write only the cells it actually mutates
/// ([`Arc::make_mut`]).
#[derive(Clone, Debug)]
pub struct SmMachine {
    algos: Vec<Arc<SmAlgo>>,
    memory: Vec<Arc<Knowledge>>,
    /// Lifetime accessor set per variable (the `b`-bound is on *distinct
    /// processes ever accessing* a variable, as in `SharedMemory`).
    accessors: Vec<Arc<BTreeSet<usize>>>,
    /// Next pending step time per process (each process always has exactly
    /// one pending step).
    due: Vec<Time>,
    statics: Arc<SmStatics>,
}

impl SmMachine {
    /// Builds the machine over the standard tree-network layout (port
    /// process `i` ↔ variable `i` ↔ port `i`, as `build_sm_system` wires
    /// it). `first_steps` are the initial step times (branched over at the
    /// exploration root); `num_vars` is the tree's node count.
    pub fn new(
        algos: Vec<SmAlgo>,
        num_vars: usize,
        b: usize,
        n_ports: usize,
        gaps: GapMode,
        first_steps: Vec<Time>,
    ) -> SmMachine {
        assert_eq!(algos.len(), first_steps.len());
        let empty_value = Arc::new(Knowledge::new());
        let empty_accessors = Arc::new(BTreeSet::new());
        SmMachine {
            memory: vec![empty_value; num_vars],
            accessors: vec![empty_accessors; num_vars],
            due: first_steps,
            algos: algos.into_iter().map(Arc::new).collect(),
            statics: Arc::new(SmStatics { gaps, b, n_ports }),
        }
    }

    /// The processes, for rebuilding a real engine in replay.
    pub fn algos(&self) -> &[Arc<SmAlgo>] {
        &self.algos
    }

    /// Current variable values (replay compares these against the real
    /// engine's global state).
    pub fn memory(&self) -> &[Arc<Knowledge>] {
        &self.memory
    }

    /// Per-process fingerprints, comparable with the engine's.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.algos.iter().map(|a| a.fingerprint()).collect()
    }

    /// The fan-in bound `b`.
    pub fn b(&self) -> usize {
        self.statics.b
    }

    /// The number of ports.
    pub fn n_ports(&self) -> usize {
        self.statics.n_ports
    }

    fn t_min(&self) -> Time {
        *self.due.iter().min().expect("machine has >= 1 process")
    }

    fn eligible(&self) -> Vec<usize> {
        let t = self.t_min();
        (0..self.due.len()).filter(|&p| self.due[p] == t).collect()
    }

    /// The processes whose next step is due at the current instant, in the
    /// order `apply` enumerates them (for the ample-set selector).
    pub(crate) fn eligible_processes(&self) -> Vec<usize> {
        self.eligible()
    }

    /// Gap choices per step (each eligible process's block width in the
    /// flat choice menu).
    pub(crate) fn menu_len(&self) -> usize {
        self.statics.gaps.menu_len()
    }

    /// The variable process `p` will access on its next step.
    pub(crate) fn current_target(&self, p: usize) -> usize {
        self.algos[p].target().index()
    }

    /// Every port process idle (relays never are, and never count).
    pub fn is_quiescent(&self) -> bool {
        (0..self.statics.n_ports).all(|p| self.algos[p].is_idle())
    }

    /// The number of admissible transitions from this state.
    pub fn choice_count(&self) -> usize {
        self.eligible().len() * self.statics.gaps.menu_len()
    }

    /// The step body shared by [`SmMachine::apply`] and the zone walker's
    /// time-free stepping: access the target variable, step the process,
    /// write the result back. Leaves `due` untouched so both callers can
    /// schedule (or symbolically constrain) the next step their own way.
    fn perform_step(&mut self, p: usize, now: Time) -> (StepInfo, VarId) {
        let was_idle = self.algos[p].is_idle();
        let var = self.algos[p].target();
        Arc::make_mut(&mut self.accessors[var.index()]).insert(p);
        let b_violation = (self.accessors[var.index()].len() > self.statics.b).then_some(var);
        let new_value = Arc::make_mut(&mut self.algos[p]).step(&self.memory[var.index()]);
        self.memory[var.index()] = Arc::new(new_value);
        let idle_after = self.algos[p].is_idle();

        // Port tag, exactly as the engine computes it: the access counts as
        // a port step only when the variable is a port *and* the stepping
        // process is its bound port process.
        let port = (var.index() < self.statics.n_ports && p == var.index())
            .then(|| PortId::new(var.index()));

        let info = StepInfo {
            time: now,
            process: ProcessId::new(p),
            port,
            was_idle,
            idle_after,
            is_process_step: true,
            b_violation,
        };
        (info, var)
    }

    /// Applies transition `choice` (must be `< choice_count()`). When
    /// `trace` is given, records the step exactly as the engine would.
    pub fn apply(&mut self, choice: usize, trace: Option<&mut session_sim::Trace>) -> StepInfo {
        let now = self.t_min();
        let per = self.statics.gaps.menu_len();
        let eligible = self.eligible();
        let p = eligible[choice / per];
        let gap_index = choice % per;

        let (info, var) = self.perform_step(p, now);
        self.due[p] = now + self.statics.gaps.gap(p, gap_index);

        if let Some(trace) = trace {
            trace.push(session_sim::TraceEvent {
                time: now,
                process: ProcessId::new(p),
                kind: session_sim::StepKind::VarAccess {
                    var,
                    port: info.port,
                },
                idle_after: info.idle_after,
            });
        }

        info
    }

    /// The initial scheduling windows at the exploration root: each
    /// process's first step fires exactly at its concrete `first_steps`
    /// time (the root already branched over the first-step menu).
    pub(crate) fn initial_windows(&self) -> Vec<(ZoneEvent, Dur, Dur)> {
        self.due
            .iter()
            .enumerate()
            .map(|(p, &t)| (ZoneEvent::Step(p), t.since_origin(), t.since_origin()))
            .collect()
    }

    /// The window (relative to the firing instant) within which process
    /// `p`'s *next* step must fire: the hull of the gap menu, or the
    /// process's fixed period.
    pub(crate) fn gap_window(&self, p: usize) -> (Dur, Dur) {
        match &self.statics.gaps {
            GapMode::PerStep(menu) => {
                let lo = menu
                    .iter()
                    .copied()
                    .reduce(Dur::min)
                    .expect("nonempty menu");
                let hi = menu
                    .iter()
                    .copied()
                    .reduce(Dur::max)
                    .expect("nonempty menu");
                (lo, hi)
            }
            GapMode::FixedPerProcess(periods) => (periods[p], periods[p]),
        }
    }

    /// Fires process `p`'s step for the zone walker: identical discrete
    /// semantics to [`SmMachine::apply`] (shared body), but no concrete
    /// time and no `due` bookkeeping — the walker's DBM carries the
    /// schedule. The returned events are the clocks to (re)schedule: the
    /// stepping process's own next step.
    pub(crate) fn zone_apply(&mut self, ev: ZoneEvent) -> (StepInfo, Vec<ZoneEvent>) {
        let ZoneEvent::Step(p) = ev else {
            unreachable!("shared-memory machines have no deliveries");
        };
        (self.perform_step(p, Time::ZERO).0, vec![ZoneEvent::Step(p)])
    }

    /// A hash of the discrete control state only: [`SmMachine::state_hash`]
    /// minus the `due` times. This is the common currency between the
    /// explicit explorer and the zone walker (the SA012 cross-check
    /// compares reachable control-hash sets), and part of the zone memo
    /// key.
    pub(crate) fn control_hash(&self) -> u64 {
        let mut hasher = FxHasher::default();
        for algo in &self.algos {
            algo.fingerprint().hash(&mut hasher);
        }
        for value in &self.memory {
            value.hash(&mut hasher);
        }
        for set in &self.accessors {
            set.hash(&mut hasher);
        }
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            periods.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// A hash of the machine state with times made relative to the next
    /// event, so states that differ only by a time shift coincide.
    pub fn state_hash(&self) -> u64 {
        let mut hasher = FxHasher::default();
        let t = self.t_min();
        for algo in &self.algos {
            algo.fingerprint().hash(&mut hasher);
        }
        for value in &self.memory {
            value.hash(&mut hasher);
        }
        for set in &self.accessors {
            set.hash(&mut hasher);
        }
        for &due in &self.due {
            (due - t).hash(&mut hasher);
        }
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            periods.hash(&mut hasher);
        }
        hasher.finish()
    }
}

/// The standard tree-network shared-memory system for `n` ports with
/// fan-in `b`: the given port algorithms (one per port) plus the tree's
/// relay processes, exactly as `session_core::system::build_sm_system`
/// assembles it. Returns the machine's process list and the node count.
pub fn sm_system_algos(port_algos: Vec<SmAlgo>, n: usize, b: usize) -> (Vec<SmAlgo>, usize) {
    assert_eq!(port_algos.len(), n);
    let tree = TreeSpec::build(n, b);
    let mut algos = port_algos;
    for relay in tree.relay_processes() {
        algos.push(SmAlgo::Relay(relay));
    }
    (algos, tree.num_nodes())
}

/// One pending message-passing event, mirroring the engine's queue entry.
#[derive(Clone, Debug)]
struct Pending {
    time: Time,
    /// Insertion sequence — only used to keep enumeration order stable
    /// (the engine's FIFO tie-break is itself one of the branched orders).
    seq: u64,
    kind: PendingKind,
}

#[derive(Clone, Debug)]
enum PendingKind {
    Step(usize),
    Deliver {
        to: usize,
        from: usize,
        value: u64,
        /// The trace message id, assigned in send order during replay so
        /// deliveries can be recorded against the right send.
        msg: Option<MsgId>,
    },
}

/// One eligible event of an [`MpMachine`], as the ample-set selector sees
/// it: the event kind plus the width of its contiguous block in the flat
/// choice menu.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EligibleEvent {
    /// What fires.
    pub(crate) kind: EligibleKind,
    /// How many flat choices the event owns (gap × delay-combo fan-out
    /// for broadcasting steps).
    pub(crate) weight: usize,
}

/// The kind of an eligible MP event.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EligibleKind {
    /// Process `process` takes its step (`broadcasts` when that step will
    /// send with the current inbox).
    Step {
        /// The stepping process.
        process: usize,
        /// Whether the step broadcasts.
        broadcasts: bool,
    },
    /// A buffered message is delivered to `to`'s inbox.
    Deliver {
        /// The recipient.
        to: usize,
    },
}

/// The per-exploration-root immutable configuration of an [`MpMachine`],
/// shared by every state forked from that root (see [`SmStatics`]).
#[derive(Debug)]
struct MpStatics {
    gaps: GapMode,
    delays: Vec<Dur>,
    /// The shared empty inbox value: consuming an inbox swaps this in, so
    /// the steady state ("most inboxes empty most of the time") costs no
    /// allocation per step.
    empty_inbox: Arc<Vec<Envelope<SessionMsg>>>,
}

/// The exhaustive message-passing machine: mirrors
/// [`session_mpm::MpEngine`] over cloneable [`MpAlgo`] processes. All `n`
/// processes are port processes (`p`'s buffer is port `p`), as
/// `build_mp_system` wires it.
///
/// Like [`SmMachine`], per-process states and inboxes are interned behind
/// `Arc`s: forking a branch is refcount traffic, and `apply` copies only
/// the one process (and one inbox) the event touches.
#[derive(Clone, Debug)]
pub struct MpMachine {
    algos: Vec<Arc<MpAlgo>>,
    inboxes: Vec<Arc<Vec<Envelope<SessionMsg>>>>,
    pending: Vec<Pending>,
    next_seq: u64,
    statics: Arc<MpStatics>,
    n: usize,
}

impl MpMachine {
    /// Builds the machine; `first_steps` are the initial step times
    /// (branched over at the exploration root).
    pub fn new(
        algos: Vec<MpAlgo>,
        gaps: GapMode,
        delays: Vec<Dur>,
        first_steps: Vec<Time>,
    ) -> MpMachine {
        assert!(!delays.is_empty(), "delay menu must be nonempty");
        let n = algos.len();
        assert_eq!(n, first_steps.len());
        let pending = first_steps
            .iter()
            .enumerate()
            .map(|(p, &time)| Pending {
                time,
                seq: p as u64,
                kind: PendingKind::Step(p),
            })
            .collect();
        let empty_inbox = Arc::new(Vec::new());
        MpMachine {
            inboxes: vec![Arc::clone(&empty_inbox); n],
            pending,
            next_seq: n as u64,
            algos: algos.into_iter().map(Arc::new).collect(),
            statics: Arc::new(MpStatics {
                gaps,
                delays,
                empty_inbox,
            }),
            n,
        }
    }

    /// Per-process fingerprints.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.algos.iter().map(|a| a.fingerprint()).collect()
    }

    /// The largest session count any process currently claims, if any
    /// process maintains one.
    pub fn claimed_sessions_max(&self) -> Option<u64> {
        self.algos.iter().filter_map(|a| a.claimed_sessions()).max()
    }

    /// Every (port) process idle.
    pub fn is_quiescent(&self) -> bool {
        self.algos.iter().all(|a| a.is_idle())
    }

    fn t_min(&self) -> Time {
        self.pending
            .iter()
            .map(|e| e.time)
            .min()
            .expect("each process always has a pending step")
    }

    /// Indices into `pending` of the events eligible to fire now, in
    /// **canonical event order**: sorted by the same `(kind, process,
    /// from, value)` tuple [`MpMachine::state_hash`] canonicalizes
    /// pending events with (every eligible event fires at `t_min`, so
    /// time never discriminates), with the insertion `seq` as the final
    /// tie-break between byte-identical duplicates — which are
    /// interchangeable, so the resulting menu order is a function of the
    /// canonical state, not of the queue history that produced this
    /// representative. That is what lets the memo (and the parallel
    /// explorer's claim table) use `state_hash` as a *graph-determining* key:
    /// two machines with equal hashes enumerate identical choice menus
    /// and therefore expand to identical successor lists, so it does not
    /// matter which representative of the equivalence class gets
    /// expanded. With an insertion-order tie-break instead, equal-hash
    /// representatives could present the same events in different menu
    /// orders, and anything order-sensitive downstream (POR's ample
    /// ranges, depth-budget truncation, witness choice paths) would
    /// depend on which representative happened to be reached first.
    fn eligible(&self) -> Vec<usize> {
        let t = self.t_min();
        let mut indices: Vec<usize> = (0..self.pending.len())
            .filter(|&i| self.pending[i].time == t)
            .collect();
        indices.sort_by_key(|&i| {
            let e = &self.pending[i];
            match e.kind {
                PendingKind::Step(p) => (0u8, p, 0, 0u64, e.seq),
                PendingKind::Deliver {
                    to, from, value, ..
                } => (1u8, to, from, value, e.seq),
            }
        });
        indices
    }

    fn delay_combos(&self) -> usize {
        self.statics.delays.len().pow(self.n as u32)
    }

    /// Whether stepping `p` with its current inbox would broadcast
    /// (determines how many delay choices the step carries). Probed on a
    /// scratch clone; `apply` then performs the step for real.
    fn would_broadcast(&self, p: usize) -> bool {
        let mut scratch = (*self.algos[p]).clone();
        scratch.step((*self.inboxes[p]).clone()).is_some()
    }

    fn event_weight(&self, pending_index: usize) -> usize {
        match self.pending[pending_index].kind {
            PendingKind::Deliver { .. } => 1,
            PendingKind::Step(p) => {
                let gaps = self.statics.gaps.menu_len();
                if self.would_broadcast(p) {
                    gaps * self.delay_combos()
                } else {
                    gaps
                }
            }
        }
    }

    /// The number of admissible transitions from this state.
    pub fn choice_count(&self) -> usize {
        self.eligible().iter().map(|&i| self.event_weight(i)).sum()
    }

    /// The eligible events in `apply`'s enumeration order, with each
    /// event's block width in the flat choice menu (for the ample-set
    /// selector: one event owns one contiguous choice range).
    pub(crate) fn eligible_events(&self) -> Vec<EligibleEvent> {
        self.eligible()
            .into_iter()
            .map(|i| {
                let weight = self.event_weight(i);
                let kind = match self.pending[i].kind {
                    PendingKind::Step(p) => EligibleKind::Step {
                        process: p,
                        broadcasts: self.would_broadcast(p),
                    },
                    PendingKind::Deliver { to, .. } => EligibleKind::Deliver { to },
                };
                EligibleEvent { kind, weight }
            })
            .collect()
    }

    /// Whether the delay menu contains zero — a broadcast can then enable
    /// same-instant deliveries.
    pub(crate) fn has_zero_delay(&self) -> bool {
        self.statics.delays.iter().any(|d| d.is_zero())
    }

    /// Number of processes.
    pub(crate) fn num_processes(&self) -> usize {
        self.n
    }

    /// Whether every hosted process is identity-free, so the whole system
    /// is invariant under process permutation (the gate for symmetry
    /// reduction; see [`MpAlgo::id_free`]).
    pub(crate) fn symmetric(&self) -> bool {
        self.algos.iter().all(|a| a.id_free())
    }

    /// Hashes the state as it would look after renaming process `i` to
    /// `sigma[i]` — the same normalization as [`MpMachine::state_hash`]
    /// (relative times, inbox multisets, canonical pending order), with
    /// every process index routed through `sigma`. `sigma = identity`
    /// hashes the same information as `state_hash` does.
    pub(crate) fn hash_permuted<H: Hasher>(&self, sigma: &[usize], hasher: &mut H) {
        debug_assert_eq!(sigma.len(), self.n);
        let mut inverse = vec![0usize; self.n];
        for (old, &new) in sigma.iter().enumerate() {
            inverse[new] = old;
        }
        let t = self.t_min();
        for &old in &inverse {
            self.algos[old].fingerprint().hash(hasher);
        }
        for &old in &inverse {
            let mut entries: Vec<(usize, u64)> = self.inboxes[old]
                .iter()
                .map(|env| (sigma[env.from.index()], env.payload.value))
                .collect();
            entries.sort_unstable();
            entries.hash(hasher);
        }
        let mut canonical: Vec<(Dur, u8, usize, usize, u64)> = self
            .pending
            .iter()
            .map(|e| match e.kind {
                PendingKind::Step(p) => (e.time - t, 0u8, sigma[p], 0, 0),
                PendingKind::Deliver {
                    to, from, value, ..
                } => (e.time - t, 1u8, sigma[to], sigma[from], value),
            })
            .collect();
        canonical.sort();
        canonical.hash(hasher);
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            for &old in &inverse {
                periods[old].hash(hasher);
            }
        }
    }

    /// The step body shared by [`MpMachine::apply`] and the zone walker's
    /// time-free stepping: consume the inbox (swapping the shared empty
    /// value in — sibling branches usually share pre-consumption inboxes,
    /// in which case the contents are cloned out) and step the process.
    /// Scheduling the resulting deliveries and the next step stays with
    /// the caller. Returns `(received, was_idle, idle_after, outgoing)`.
    fn perform_step(&mut self, p: usize) -> (usize, bool, bool, Option<SessionMsg>) {
        let inbox_cell =
            std::mem::replace(&mut self.inboxes[p], Arc::clone(&self.statics.empty_inbox));
        let inbox = Arc::try_unwrap(inbox_cell).unwrap_or_else(|shared| (*shared).clone());
        let received = inbox.len();
        let was_idle = self.algos[p].is_idle();
        let outgoing = Arc::make_mut(&mut self.algos[p]).step(inbox);
        let idle_after = self.algos[p].is_idle();
        (received, was_idle, idle_after, outgoing)
    }

    /// Applies transition `choice` (must be `< choice_count()`). When
    /// `trace` is given, records the event exactly as the engine would
    /// (sends in recipient order before the step event, delivery records
    /// on arrival).
    pub fn apply(&mut self, choice: usize, mut trace: Option<&mut session_sim::Trace>) -> StepInfo {
        let now = self.t_min();
        let (pending_index, sub) = {
            let mut remaining = choice;
            let mut found = None;
            for i in self.eligible() {
                let weight = self.event_weight(i);
                if remaining < weight {
                    found = Some((i, remaining));
                    break;
                }
                remaining -= weight;
            }
            found.expect("choice < choice_count()")
        };

        match self.pending[pending_index].kind {
            PendingKind::Deliver {
                to,
                from,
                value,
                msg,
            } => {
                self.pending.swap_remove(pending_index);
                Arc::make_mut(&mut self.inboxes[to])
                    .push(Envelope::new(ProcessId::new(from), SessionMsg::new(value)));
                let idle = self.algos[to].is_idle();
                if let Some(trace) = trace.as_deref_mut() {
                    let msg = msg.expect("traced replay assigns message ids at send time");
                    trace.record_delivery(msg, now);
                    trace.push(session_sim::TraceEvent {
                        time: now,
                        process: ProcessId::new(to),
                        kind: session_sim::StepKind::Deliver { msg },
                        idle_after: idle,
                    });
                }
                StepInfo {
                    time: now,
                    process: ProcessId::new(to),
                    port: None,
                    was_idle: idle,
                    idle_after: idle,
                    is_process_step: false,
                    b_violation: None,
                }
            }
            PendingKind::Step(p) => {
                let gaps_len = self.statics.gaps.menu_len();
                let (gap_index, combo) = if self.would_broadcast(p) {
                    (sub / self.delay_combos(), sub % self.delay_combos())
                } else {
                    (sub, 0)
                };
                self.pending.swap_remove(pending_index);
                let (received, was_idle, idle_after, outgoing) = self.perform_step(p);
                debug_assert!(gap_index < gaps_len);

                // Deliveries are enqueued before the process's own next
                // step, in recipient order — the engine's exact order.
                if let Some(payload) = outgoing {
                    let mut combo_rest = combo;
                    for q in 0..self.n {
                        let delay = self.statics.delays[combo_rest % self.statics.delays.len()];
                        combo_rest /= self.statics.delays.len();
                        let msg = trace
                            .as_deref_mut()
                            .map(|t| t.record_send(ProcessId::new(p), ProcessId::new(q), now));
                        self.pending.push(Pending {
                            time: now + delay,
                            seq: self.next_seq,
                            kind: PendingKind::Deliver {
                                to: q,
                                from: p,
                                value: payload.value,
                                msg,
                            },
                        });
                        self.next_seq += 1;
                    }
                }
                if let Some(trace) = trace {
                    trace.push(session_sim::TraceEvent {
                        time: now,
                        process: ProcessId::new(p),
                        kind: session_sim::StepKind::MpStep {
                            received,
                            broadcast: outgoing.is_some(),
                        },
                        idle_after,
                    });
                }
                self.pending.push(Pending {
                    time: now + self.statics.gaps.gap(p, gap_index),
                    seq: self.next_seq,
                    kind: PendingKind::Step(p),
                });
                self.next_seq += 1;

                StepInfo {
                    time: now,
                    process: ProcessId::new(p),
                    port: Some(PortId::new(p)),
                    was_idle,
                    idle_after,
                    is_process_step: true,
                    b_violation: None,
                }
            }
        }
    }

    /// A hash of the machine state with times made relative to the next
    /// event. Pending events are hashed in canonical order (their
    /// insertion sequence is an enumeration artifact, not state).
    /// Because [`MpMachine::eligible`] enumerates the choice menu in the
    /// same canonical order, equal hashes mean equal menus — the hash is
    /// graph-determining, which the parallel explorer's claim table
    /// relies on.
    pub fn state_hash(&self) -> u64 {
        let mut hasher = FxHasher::default();
        let t = self.t_min();
        for algo in &self.algos {
            algo.fingerprint().hash(&mut hasher);
        }
        // Inboxes are hashed as multisets: every hosted algorithm consumes
        // its inbox as a commutative join (set inserts / lattice joins), so
        // arrival-order permutations are semantically equivalent states.
        // Hashing them apart would make delivery interleavings that
        // converge semantically never converge in the memo.
        for inbox in &self.inboxes {
            let mut entries: Vec<(usize, u64)> = inbox
                .iter()
                .map(|env| (env.from.index(), env.payload.value))
                .collect();
            entries.sort_unstable();
            entries.hash(&mut hasher);
        }
        let mut canonical: Vec<(Dur, u8, usize, usize, u64)> = self
            .pending
            .iter()
            .map(|e| match e.kind {
                PendingKind::Step(p) => (e.time - t, 0u8, p, 0, 0),
                PendingKind::Deliver {
                    to, from, value, ..
                } => (e.time - t, 1u8, to, from, value),
            })
            .collect();
        canonical.sort();
        canonical.hash(&mut hasher);
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            periods.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The initial scheduling windows at the exploration root: every
    /// pending event (at the root, each process's first step) fires
    /// exactly at its concrete scheduled time.
    pub(crate) fn initial_windows(&self) -> Vec<(ZoneEvent, Dur, Dur)> {
        self.pending
            .iter()
            .map(|e| {
                let ev = match e.kind {
                    PendingKind::Step(p) => ZoneEvent::Step(p),
                    PendingKind::Deliver {
                        to, from, value, ..
                    } => ZoneEvent::Deliver {
                        seq: e.seq,
                        to,
                        from,
                        value,
                    },
                };
                (ev, e.time.since_origin(), e.time.since_origin())
            })
            .collect()
    }

    /// The window (relative to the firing instant) within which process
    /// `p`'s *next* step must fire: the hull of the gap menu, or the
    /// process's fixed period.
    pub(crate) fn gap_window(&self, p: usize) -> (Dur, Dur) {
        match &self.statics.gaps {
            GapMode::PerStep(menu) => {
                let lo = menu
                    .iter()
                    .copied()
                    .reduce(Dur::min)
                    .expect("nonempty menu");
                let hi = menu
                    .iter()
                    .copied()
                    .reduce(Dur::max)
                    .expect("nonempty menu");
                (lo, hi)
            }
            GapMode::FixedPerProcess(periods) => (periods[p], periods[p]),
        }
    }

    /// The window (relative to the send instant) within which any
    /// in-flight message must be delivered: the hull of the delay menu.
    pub(crate) fn delay_window(&self) -> (Dur, Dur) {
        let delays = &self.statics.delays;
        let lo = delays
            .iter()
            .copied()
            .reduce(Dur::min)
            .expect("nonempty menu");
        let hi = delays
            .iter()
            .copied()
            .reduce(Dur::max)
            .expect("nonempty menu");
        (lo, hi)
    }

    /// Fires `ev` for the zone walker: identical discrete semantics to
    /// [`MpMachine::apply`] (shared step body, same delivery-then-own-step
    /// scheduling order), but no concrete times — pending entries get
    /// placeholder times, and the returned [`ZoneEvent`]s tell the walker
    /// which clocks to schedule (deliveries in recipient order, then the
    /// stepping process's next step).
    pub(crate) fn zone_apply(&mut self, ev: ZoneEvent) -> (StepInfo, Vec<ZoneEvent>) {
        match ev {
            ZoneEvent::Deliver { seq, to, .. } => {
                let idx = self
                    .pending
                    .iter()
                    .position(|e| e.seq == seq)
                    .expect("zone event is pending");
                let PendingKind::Deliver {
                    to: t, from, value, ..
                } = self.pending[idx].kind
                else {
                    unreachable!("delivery sequence numbers identify deliveries");
                };
                debug_assert_eq!(to, t);
                self.pending.swap_remove(idx);
                Arc::make_mut(&mut self.inboxes[to])
                    .push(Envelope::new(ProcessId::new(from), SessionMsg::new(value)));
                let idle = self.algos[to].is_idle();
                let info = StepInfo {
                    time: Time::ZERO,
                    process: ProcessId::new(to),
                    port: None,
                    was_idle: idle,
                    idle_after: idle,
                    is_process_step: false,
                    b_violation: None,
                };
                (info, Vec::new())
            }
            ZoneEvent::Step(p) => {
                let idx = self
                    .pending
                    .iter()
                    .position(|e| matches!(e.kind, PendingKind::Step(q) if q == p))
                    .expect("every process always has a pending step");
                self.pending.swap_remove(idx);
                let (_received, was_idle, idle_after, outgoing) = self.perform_step(p);

                let mut scheduled = Vec::new();
                if let Some(payload) = outgoing {
                    for q in 0..self.n {
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        self.pending.push(Pending {
                            time: Time::ZERO,
                            seq,
                            kind: PendingKind::Deliver {
                                to: q,
                                from: p,
                                value: payload.value,
                                msg: None,
                            },
                        });
                        scheduled.push(ZoneEvent::Deliver {
                            seq,
                            to: q,
                            from: p,
                            value: payload.value,
                        });
                    }
                }
                self.pending.push(Pending {
                    time: Time::ZERO,
                    seq: self.next_seq,
                    kind: PendingKind::Step(p),
                });
                self.next_seq += 1;
                scheduled.push(ZoneEvent::Step(p));

                let info = StepInfo {
                    time: Time::ZERO,
                    process: ProcessId::new(p),
                    port: Some(PortId::new(p)),
                    was_idle,
                    idle_after,
                    is_process_step: true,
                    b_violation: None,
                };
                (info, scheduled)
            }
        }
    }

    /// A hash of the discrete control state only: [`MpMachine::state_hash`]
    /// minus every pending time (see [`SmMachine::control_hash`]). The
    /// pending *set* — which deliveries are in flight, as a multiset —
    /// remains part of control.
    pub(crate) fn control_hash(&self) -> u64 {
        let mut hasher = FxHasher::default();
        for algo in &self.algos {
            algo.fingerprint().hash(&mut hasher);
        }
        for inbox in &self.inboxes {
            let mut entries: Vec<(usize, u64)> = inbox
                .iter()
                .map(|env| (env.from.index(), env.payload.value))
                .collect();
            entries.sort_unstable();
            entries.hash(&mut hasher);
        }
        let mut canonical: Vec<(u8, usize, usize, u64)> = self
            .pending
            .iter()
            .map(|e| match e.kind {
                PendingKind::Step(p) => (0u8, p, 0, 0),
                PendingKind::Deliver {
                    to, from, value, ..
                } => (1u8, to, from, value),
            })
            .collect();
        canonical.sort_unstable();
        canonical.hash(&mut hasher);
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            periods.hash(&mut hasher);
        }
        hasher.finish()
    }
}

/// All `menu.len()^k` assignment vectors of menu entries to `k` slots —
/// the root branches for first-step times and for periodic period
/// assignments.
pub fn assignments(menu: &[Dur], k: usize) -> Vec<Vec<Dur>> {
    let mut out = vec![Vec::new()];
    for _ in 0..k {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                menu.iter().map(move |&d| {
                    let mut next = prefix.clone();
                    next.push(d);
                    next
                })
            })
            .collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignments_enumerate_the_cartesian_power() {
        let menu = [Dur::from_int(1), Dur::from_int(2)];
        let all = assignments(&menu, 3);
        assert_eq!(all.len(), 8);
        let distinct: BTreeSet<Vec<Dur>> = all.into_iter().collect();
        assert_eq!(distinct.len(), 8);
    }

    fn sync_sm_machine(n: usize, s: u64) -> SmMachine {
        let ports: Vec<SmAlgo> = (0..n)
            .map(|i| SmAlgo::Sync(SyncSmPort::new(VarId::new(i), s)))
            .collect();
        let (algos, num_vars) = sm_system_algos(ports, n, 2);
        let k = algos.len();
        let gap = Dur::from_int(1);
        SmMachine::new(
            algos,
            num_vars,
            2,
            n,
            GapMode::PerStep(vec![gap]),
            vec![Time::ZERO + gap; k],
        )
    }

    #[test]
    fn sm_machine_steps_and_quiesces() {
        let mut machine = sync_sm_machine(2, 1);
        assert!(!machine.is_quiescent());
        // One gap, all processes due together: one choice per process.
        assert_eq!(machine.choice_count(), machine.algos().len());
        let info = machine.apply(0, None);
        assert!(info.is_process_step);
        assert_eq!(info.port, Some(PortId::new(0)));
        assert!(info.idle_after, "s = 1: one step and the port idles");
        let info = machine.apply(0, None);
        assert_eq!(info.port, Some(PortId::new(1)));
        assert!(machine.is_quiescent(), "both ports idle");
    }

    #[test]
    fn sm_relay_steps_are_not_port_steps() {
        let mut machine = sync_sm_machine(2, 1);
        let relay_choice = machine
            .eligible()
            .iter()
            .position(|&p| p >= 2)
            .expect("tree has a relay");
        let info = machine.apply(relay_choice, None);
        assert_eq!(info.port, None);
        assert!(!info.idle_after, "relays never idle");
    }

    #[test]
    fn sm_state_hash_is_time_shift_invariant() {
        let a = sync_sm_machine(2, 2);
        let mut b = sync_sm_machine(2, 2);
        for due in &mut b.due {
            *due += Dur::from_int(5);
        }
        assert_eq!(a.state_hash(), b.state_hash());
    }

    fn sporadic_mp_machine(s: u64) -> MpMachine {
        let c1 = Dur::from_int(1);
        let algos: Vec<MpAlgo> = (0..2)
            .map(|i| {
                MpAlgo::Sporadic(
                    SporadicMpPort::new(ProcessId::new(i), s, 2, c1, Dur::ZERO, Dur::from_int(2))
                        .expect("valid params"),
                )
            })
            .collect();
        MpMachine::new(
            algos,
            GapMode::PerStep(vec![c1, Dur::from_int(7)]),
            vec![Dur::ZERO, Dur::from_int(2)],
            vec![Time::ZERO + c1; 2],
        )
    }

    #[test]
    fn mp_broadcasting_step_fans_out_gap_and_delay_choices() {
        let machine = sporadic_mp_machine(3);
        // Both processes due at t=1, each broadcasts: 2 gaps × 2² delay
        // combos = 8 choices each.
        assert_eq!(machine.choice_count(), 16);
    }

    #[test]
    fn mp_apply_creates_deliveries_then_next_step() {
        let mut machine = sporadic_mp_machine(3);
        let info = machine.apply(0, None);
        assert!(info.is_process_step);
        assert_eq!(info.port, Some(PortId::new(0)));
        // p0 stepped and broadcast to both: 2 deliveries + p0's next step
        // + p1's pending first step.
        assert_eq!(machine.pending.len(), 4);
        assert_eq!(machine.claimed_sessions_max(), Some(0));
    }

    #[test]
    fn mp_delivery_fills_inbox() {
        let mut machine = sporadic_mp_machine(3);
        // Fire p0's step with delay combo 0 (both deliveries at delay 0,
        // i.e. due immediately).
        let _ = machine.apply(0, None);
        let deliveries: Vec<usize> = machine
            .eligible()
            .into_iter()
            .filter(|&i| matches!(machine.pending[i].kind, PendingKind::Deliver { .. }))
            .collect();
        assert_eq!(deliveries.len(), 2, "delay 0 deliveries due at once");
        // Flat choice for the first delivery: skip past the weights of the
        // eligible events before it (p1's own first step broadcasts, so it
        // carries 2 gaps × 4 delay combos = 8 choices).
        let first_delivery = machine
            .eligible()
            .into_iter()
            .take_while(|&i| !matches!(machine.pending[i].kind, PendingKind::Deliver { .. }))
            .map(|i| machine.event_weight(i))
            .sum::<usize>();
        let info = machine.apply(first_delivery, None);
        assert!(!info.is_process_step);
        assert_eq!(machine.inboxes.iter().map(|i| i.len()).sum::<usize>(), 1);
    }

    #[test]
    fn mp_state_hash_ignores_insertion_sequence() {
        let mut a = sporadic_mp_machine(3);
        let mut b = sporadic_mp_machine(3);
        let _ = a.apply(0, None);
        let _ = b.apply(0, None);
        // Renumber b's sequences: the hash must not change.
        for pending in &mut b.pending {
            pending.seq += 1000;
        }
        assert_eq!(a.state_hash(), b.state_hash());
    }
}
