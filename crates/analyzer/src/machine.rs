//! Cloneable state machines mirroring the engines, with an enumerated
//! branch menu at every state.
//!
//! The real engines ([`session_smm::SmEngine`], [`session_mpm::MpEngine`])
//! execute *one* schedule chosen by a [`session_sim::StepSchedule`]. The
//! checker instead needs, at every reachable state, the *set* of admissible
//! next transitions. [`SmMachine`] and [`MpMachine`] mirror the engines'
//! exact step semantics (variable access and port tagging for shared
//! memory; delivery buffering, broadcast fan-out and event ordering for
//! message passing) over cloneable process values, exposing a flat
//! `0..choice_count()` menu whose entries enumerate: which eligible event
//! fires next (equal-time events may fire in any order), which admissible
//! gap the stepping process's *next* step is scheduled after, and — for a
//! broadcasting message-passing step — which admissible delay each
//! recipient's copy is assigned.
//!
//! The message-passing machine does not reimplement the algorithm step:
//! it steps a process through [`session_mpm::step_process`], the function
//! the simulator engine, the real-clock runtime and the session service
//! use. A step is taken once per state, while the menu is built, and every
//! child of that menu entry (one per gap × delay combo) installs the same
//! outcome. The explicit explorers and the zone walker then fire it
//! through one body, `MpMachine::fire`.
//!
//! Fidelity to the engines is not taken on faith: `replay` re-executes
//! counterexample paths through the real `SmEngine` and compares global
//! states, and the test suite runs differential machine-vs-engine checks
//! (`MpEngine` along the engine's own FIFO order, in this module's tests).

use std::cell::Cell;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use rustc_hash::FxHasher;

use session_adversary::naive::{NaiveMpPort, NaiveSmPort};
use session_core::algorithms::{
    AsyncMpPort, AsyncSmPort, PeriodicMpPort, PeriodicSmPort, SemiSyncMpPort, SemiSyncSmPort,
    SporadicMpPort, StepCountingMpPort, StepCountingSmPort, SyncMpPort, SyncSmPort,
};
use session_core::SessionMsg;
use session_mpm::{step_process, Envelope, MpProcess, StepResult};
use session_smm::{Knowledge, RelayProcess, SmProcess, TreeSpec};
use session_types::{Dur, MsgId, PortId, ProcessId, Time, VarId};

use crate::symmetry::MAX_PERMUTED;

/// Every shared-memory process the checker can host, as a cloneable value.
///
/// (The engines take `Box<dyn SmProcess>`, which cannot be cloned; the
/// checker needs cloning to fork a state per branch.)
#[derive(Clone, Debug, Hash)]
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

    /// The wrapped port's own fingerprint, so the engine (which may host
    /// the bare port) and the machine agree.
    fn fingerprint(&self) -> u64 {
        match self {
            SmAlgo::Sync(p) => p.fingerprint(),
            SmAlgo::Periodic(p) => p.fingerprint(),
            SmAlgo::SemiSync(p) => p.fingerprint(),
            SmAlgo::Async(p) => p.fingerprint(),
            SmAlgo::Relay(p) => p.fingerprint(),
            SmAlgo::Naive(p) => p.fingerprint(),
            SmAlgo::CheatStepCounting(p) => p.fingerprint(),
        }
    }
}

/// Every message-passing process the checker can host, as a cloneable
/// value.
#[derive(Clone, Debug, Hash)]
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

    /// The wrapped port's own fingerprint (see [`SmAlgo`]'s).
    fn fingerprint(&self) -> u64 {
        match self {
            MpAlgo::Sync(p) => p.fingerprint(),
            MpAlgo::Periodic(p) => p.fingerprint(),
            MpAlgo::SemiSync(p) => p.fingerprint(),
            MpAlgo::Sporadic(p) => p.fingerprint(),
            MpAlgo::Async(p) => p.fingerprint(),
            MpAlgo::Naive(p) => p.fingerprint(),
            MpAlgo::StepCounting(p) => p.fingerprint(),
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

    /// The window (relative to the firing instant) within which process
    /// `p`'s *next* step must fire: the hull of the gap menu, or the
    /// process's fixed period.
    pub(crate) fn window(&self, p: usize) -> (Dur, Dur) {
        match self {
            GapMode::PerStep(menu) => hull(menu),
            GapMode::FixedPerProcess(periods) => (periods[p], periods[p]),
        }
    }
}

/// The convex hull `(min, max)` of a nonempty menu.
fn hull(menu: &[Dur]) -> (Dur, Dur) {
    let lo = menu.iter().copied().reduce(Dur::min);
    let hi = menu.iter().copied().reduce(Dur::max);
    lo.zip(hi).expect("nonempty menu")
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

    /// Fills `menu` with this state's choice menu: every process due at
    /// the current instant, in process order, each owning one block of
    /// gap choices.
    pub(crate) fn build_menu(&self, menu: &mut Menu) {
        menu.clear();
        let t = self.t_min();
        let weight = self.statics.gaps.menu_len();
        for (process, &due) in self.due.iter().enumerate() {
            if due == t {
                menu.push(EligibleEvent {
                    kind: EligibleKind::Step {
                        process,
                        broadcasts: false,
                    },
                    weight,
                    at: process,
                });
            }
        }
    }

    /// The variable process `p` will access on its next step.
    pub(crate) fn current_target(&self, p: usize) -> usize {
        self.algos[p].target().index()
    }

    /// Every port process idle (relays never are, and never count).
    pub fn is_quiescent(&self) -> bool {
        (0..self.statics.n_ports).all(|p| self.algos[p].is_idle())
    }

    /// The step body shared by [`SmMachine::apply_menu`] and the zone
    /// walker's time-free stepping: access the target variable, step the
    /// process, write the result back. Leaves `due` untouched so both
    /// callers can schedule (or symbolically constrain) the next step
    /// their own way.
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

    /// Applies transition `choice` of this state's built `menu` (must be
    /// `< menu.choice_count()`). When `trace` is given, records the step
    /// exactly as the engine would.
    pub(crate) fn apply_menu(
        &mut self,
        menu: &Menu,
        choice: usize,
        trace: Option<&mut session_sim::Trace>,
    ) -> StepInfo {
        let now = self.t_min();
        let (event, gap_index) = menu.locate(choice);
        let p = event.at;

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

    /// How this machine's step gaps are chosen.
    pub(crate) fn gaps(&self) -> &GapMode {
        &self.statics.gaps
    }

    /// Fires process `p`'s step for the zone walker: identical discrete
    /// semantics to [`SmMachine::apply_menu`] (shared body), but no
    /// concrete time and no `due` bookkeeping — the walker's DBM carries
    /// the schedule. The returned events are the clocks to (re)schedule:
    /// the stepping process's own next step.
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
    pub fn control_hash(&self) -> u64 {
        self.hash(false)
    }

    /// A hash of the machine state with times made relative to the next
    /// event, so states that differ only by a time shift coincide.
    pub fn state_hash(&self) -> u64 {
        self.hash(true)
    }

    /// The two hashes above: the `due` times count only when `timed`.
    fn hash(&self, timed: bool) -> u64 {
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
        if timed {
            let t = self.t_min();
            for &due in &self.due {
                (due - t).hash(&mut hasher);
            }
        }
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            periods.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The full state the hashes above compress, rendered component by
    /// component: each process's `Debug` rendering, each variable's value,
    /// each accessor set, then (only when `timed`) the `due` times relative
    /// to the next step, then the periods. See
    /// [`MpMachine::canonical_encoding`].
    pub fn canonical_encoding(&self, timed: bool) -> Vec<String> {
        let t = self.t_min();
        let mut parts: Vec<String> = self.algos.iter().map(|a| format!("{a:?}")).collect();
        parts.extend(self.memory.iter().map(|value| format!("value {value:?}")));
        parts.extend(
            self.accessors
                .iter()
                .map(|set| format!("accessors {set:?}")),
        );
        if timed {
            let due: Vec<Dur> = self.due.iter().map(|&due| due - t).collect();
            parts.push(format!("due {due:?}"));
        }
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            parts.push(format!("periods {periods:?}"));
        }
        parts
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
    /// between byte-identical entries (the engine's FIFO tie-break is
    /// itself one of the branched orders).
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

/// What a pending event is, without when it fires: `(kind, process,
/// from, value)`, with kind 0 for a step of `process` and 1 for a delivery
/// to `process`. State hashes and the menu order go by it.
type Identity = (u8, usize, usize, u64);

/// The high bit of a pending-event word: set, the word is an escape and
/// the event's field is spelled out in the words after it; clear, the
/// word holds the field itself.
const ESCAPE: u64 = 1 << 63;

/// Feeds one pending event to `hasher` as [`MpMachine::state_hash`] and
/// its kin encode it: the time relative to the next event (left out for
/// the control hash, which has none), then the identity, one word each in
/// the common case.
///
/// - Time: an integer in `0..2^63` is its own word. Any other value is
///   [`ESCAPE`] followed by its numerator and denominator.
/// - Identity: `kind << 62 | process << 54 | from << 46 | value` when
///   the process and sender fit in 8 bits and the value in 46. Otherwise
///   `ESCAPE | kind` followed by the process, the sender and the value.
///
/// A word with the high bit clear is a whole field, and an escape word
/// says how many words follow, so the encoding is prefix-free and a word
/// stream decodes to one event sequence.
fn hash_event<H: Hasher>(time: Option<Dur>, identity: Identity, hasher: &mut H) {
    if let Some(time) = time {
        let time = time.as_ratio();
        match u64::try_from(time.numer()) {
            Ok(word) if time.is_integer() && word < ESCAPE => hasher.write_u64(word),
            _ => {
                hasher.write_u64(ESCAPE);
                hasher.write_i128(time.numer());
                hasher.write_i128(time.denom());
            }
        }
    }
    let (kind, p, from, value) = identity;
    debug_assert!(kind <= 1, "an identity's kind is 0 or 1");
    if p < 1 << 8 && from < 1 << 8 && value < 1 << 46 {
        hasher.write_u64(u64::from(kind) << 62 | (p as u64) << 54 | (from as u64) << 46 | value);
    } else {
        hasher.write_u64(ESCAPE | u64::from(kind));
        hasher.write_usize(p);
        hasher.write_usize(from);
        hasher.write_u64(value);
    }
}

impl Pending {
    /// The event's [`Identity`].
    fn identity(&self) -> Identity {
        match self.kind {
            PendingKind::Step(p) => (0, p, 0, 0),
            PendingKind::Deliver {
                to, from, value, ..
            } => (1, to, from, value),
        }
    }

    /// The canonical order [`MpMachine`] keeps `pending` in: by time, then
    /// identity, then insertion sequence.
    fn order(&self) -> (Time, Identity, u64) {
        (self.time, self.identity(), self.seq)
    }
}

/// One eligible event of a state's [`Menu`]: the event kind plus the width
/// of its contiguous block in the flat choice menu.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EligibleEvent {
    /// What fires.
    pub(crate) kind: EligibleKind,
    /// How many flat choices the event owns (gap × delay-combo fan-out
    /// for broadcasting steps).
    pub(crate) weight: usize,
    /// Where the event lives in its machine: the index into `pending`
    /// for message passing, the process for shared memory.
    at: usize,
}

/// The kind of an eligible event.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EligibleKind {
    /// Process `process` takes its step (`broadcasts` when that step will
    /// send with the current inbox; always `false` in shared memory).
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

/// A state's choice menu: its eligible events in enumeration order, each
/// owning a contiguous block of the flat `0..choice_count()` range.
///
/// The explorers build it once per expanded state into a reused buffer
/// ([`crate::explore::AnyMachine::build_menu`]) and hand that one menu to
/// the ample-set selector and to every child's apply. It is valid only
/// for the state it was built from (and clones of it not yet stepped).
///
/// A message-passing menu also holds each eligible step's outcome: the
/// step is taken once, while the menu is built, and every child of that
/// event installs it.
#[derive(Default)]
pub(crate) struct Menu {
    events: Vec<EligibleEvent>,
    /// The message-passing step outcomes, one per eligible step, in
    /// event order (empty for shared memory).
    steps: Vec<Stepped>,
    choices: usize,
}

impl Menu {
    fn clear(&mut self) {
        self.events.clear();
        self.steps.clear();
        self.choices = 0;
    }

    /// Process `p`'s step outcome (each process has at most one
    /// eligible step).
    fn step(&self, p: usize) -> &Stepped {
        let step = self.steps.iter().find(|step| step.process == p);
        step.expect("every eligible step has its outcome")
    }

    fn push(&mut self, event: EligibleEvent) {
        self.choices += event.weight;
        self.events.push(event);
    }

    /// The eligible events in enumeration order.
    pub(crate) fn events(&self) -> &[EligibleEvent] {
        &self.events
    }

    /// The number of admissible transitions.
    pub(crate) fn choice_count(&self) -> usize {
        self.choices
    }

    /// The flat choices event `i` owns.
    pub(crate) fn range(&self, i: usize) -> Range<usize> {
        let start = self.events[..i].iter().map(|e| e.weight).sum();
        start..start + self.events[i].weight
    }

    /// The event owning flat `choice`, and `choice`'s offset in its block.
    fn locate(&self, choice: usize) -> (&EligibleEvent, usize) {
        let mut rest = choice;
        for event in &self.events {
            if rest < event.weight {
                return (event, rest);
            }
            rest -= event.weight;
        }
        panic!("choice {choice} is past the {}-choice menu", self.choices);
    }
}

/// Runs `f` on this thread's scratch [`Menu`], for the one-off
/// [`AnyMachine::apply`](crate::explore::AnyMachine::apply) and
/// `choice_count` wrappers (the explorers and the witness walk keep their
/// own buffers). The menu is moved out for the call and cleared after it,
/// so no outcome outlives the call and a nested call starts from empty.
pub(crate) fn with_menu<R>(f: impl FnOnce(&mut Menu) -> R) -> R {
    thread_local! {
        static MENU: Cell<Menu> = Cell::new(Menu::default());
    }
    MENU.with(|cell| {
        let mut menu = cell.take();
        let out = f(&mut menu);
        menu.clear();
        cell.set(menu);
        out
    })
}

/// One message-passing step's outcome, taken once per state through
/// [`step_process`] on a clone of the process and its inbox. Every child
/// of the step's menu entry installs it, whatever its gap and delays.
pub(crate) struct Stepped {
    /// The stepping process.
    process: usize,
    /// The process after the step, as every child installs it.
    algo: Arc<MpAlgo>,
    /// `algo`'s fingerprint, taken once here for every child's key.
    print: u64,
    /// Whether the process was idle before the step.
    was_idle: bool,
    /// What the step consumed and broadcast, and whether it idled.
    result: StepResult<SessionMsg>,
}

/// Reused buffers for hashing multisets in canonical (sorted) order, one
/// set per thread, so computing a state key allocates nothing.
#[derive(Default)]
struct HashScratch {
    /// One inbox's `(sender, value)` entries.
    inbox: Vec<(usize, u64)>,
    /// Pending events as `(relative time, identity)`.
    pending: Vec<(Dur, Identity)>,
    /// Pending events without their times.
    identities: Vec<Identity>,
}

/// Runs `f` with this thread's [`HashScratch`]. The buffers are moved out
/// for the call and back after it, so no borrow can fail; a nested call
/// just starts from empty buffers.
fn with_scratch<R>(f: impl FnOnce(&mut HashScratch) -> R) -> R {
    thread_local! {
        static SCRATCH: Cell<HashScratch> = const {
            Cell::new(HashScratch {
                inbox: Vec::new(),
                pending: Vec::new(),
                identities: Vec::new(),
            })
        };
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let out = f(&mut scratch);
        cell.set(scratch);
        out
    })
}

/// Hashes one inbox as a multiset of `(sender, value)` pairs, senders
/// renamed through `sigma`. Every hosted algorithm consumes its inbox as a
/// commutative join (set inserts / lattice joins), so arrival-order
/// permutations are semantically equivalent states. Hashing them apart
/// would make delivery interleavings that converge semantically never
/// converge in the memo.
fn hash_inbox<H: Hasher>(
    inbox: &[Envelope<SessionMsg>],
    sigma: impl Fn(usize) -> usize,
    scratch: &mut Vec<(usize, u64)>,
    hasher: &mut H,
) {
    scratch.clear();
    scratch.extend(
        inbox
            .iter()
            .map(|env| (sigma(env.from.index()), env.payload.value)),
    );
    scratch.sort_unstable();
    scratch.hash(hasher);
}

/// One hosted message-passing process in [`MpMachine`]'s table.
#[derive(Clone, Debug)]
struct Proc {
    /// The process state.
    algo: Arc<MpAlgo>,
    /// `algo.fingerprint()`, computed once when the state was made (at
    /// the root, or by the menu step that produced it).
    print: u64,
    /// Messages delivered since the process last stepped.
    inbox: Arc<Vec<Envelope<SessionMsg>>>,
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
/// The processes live in one table of [`Proc`]s, each holding its state
/// and its inbox behind `Arc`s and its fingerprint cached beside them:
/// forking a branch copies the table and `pending` (two allocations) and
/// bumps refcounts, `apply` copies only the one process (and one inbox)
/// the event touches, and hashing a state reads the cached fingerprints
/// instead of walking every process again.
///
/// `pending` is kept in **canonical order** ([`Pending::order`]): by time,
/// then by what the event is, with the insertion `seq` as the final
/// tie-break between byte-identical duplicates — which are
/// interchangeable. The events eligible now are therefore a prefix of
/// `pending`, already in menu order, and that order is a function of the
/// canonical state, not of the queue history that produced this
/// representative. That is what lets the memo (and the parallel
/// explorer's claim table) use [`MpMachine::state_hash`] as a
/// *graph-determining* key: two machines with equal hashes enumerate
/// identical choice menus and therefore expand to identical successor
/// lists, so it does not matter which representative of the equivalence
/// class gets expanded. With an insertion-order tie-break instead,
/// equal-hash representatives could present the same events in different
/// menu orders, and anything order-sensitive downstream (POR's ample
/// ranges, depth-budget truncation, witness choice paths) would depend on
/// which representative happened to be reached first.
#[derive(Clone, Debug)]
pub struct MpMachine {
    procs: Vec<Proc>,
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
        let mut pending: Vec<Pending> = first_steps
            .iter()
            .enumerate()
            .map(|(p, &time)| Pending {
                time,
                seq: p as u64,
                kind: PendingKind::Step(p),
            })
            .collect();
        pending.sort_by_key(Pending::order);
        let empty_inbox = Arc::new(Vec::new());
        let procs = algos
            .into_iter()
            .map(|algo| Proc {
                print: algo.fingerprint(),
                algo: Arc::new(algo),
                inbox: Arc::clone(&empty_inbox),
            })
            .collect();
        MpMachine {
            procs,
            pending,
            next_seq: n as u64,
            statics: Arc::new(MpStatics {
                gaps,
                delays,
                empty_inbox,
            }),
            n,
        }
    }

    /// Per-process fingerprints, recomputed from the process states
    /// (replay compares them with the engine's).
    pub fn fingerprints(&self) -> Vec<u64> {
        self.procs.iter().map(|p| p.algo.fingerprint()).collect()
    }

    /// The largest session count any process currently claims, if any
    /// process maintains one.
    pub fn claimed_sessions_max(&self) -> Option<u64> {
        self.procs
            .iter()
            .filter_map(|p| p.algo.claimed_sessions())
            .max()
    }

    /// Every (port) process idle.
    pub fn is_quiescent(&self) -> bool {
        self.procs.iter().all(|p| p.algo.is_idle())
    }

    fn t_min(&self) -> Time {
        // Each process always has a pending step, and `pending` is sorted.
        self.pending[0].time
    }

    /// Enqueues an event at its place in the canonical order.
    fn schedule(&mut self, time: Time, kind: PendingKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Pending { time, seq, kind };
        let key = entry.order();
        let at = self.pending.partition_point(|e| e.order() < key);
        self.pending.insert(at, entry);
    }

    fn delay_combos(&self) -> usize {
        self.statics.delays.len().pow(self.n as u32)
    }

    /// The delay of recipient `q`'s copy under delay combo `combo`: the
    /// combo's `q`-th digit in base `delays.len()`.
    fn delay(&self, combo: usize, q: usize) -> Dur {
        let width = self.statics.delays.len();
        self.statics.delays[combo / width.pow(q as u32) % width]
    }

    /// Takes process `p`'s step once, through [`step_process`] on a clone
    /// of the process and its inbox. The machine itself is untouched.
    fn step(&self, p: usize) -> Stepped {
        let proc = &self.procs[p];
        let mut algo = MpAlgo::clone(&proc.algo);
        let was_idle = algo.is_idle();
        let result = step_process(&mut algo, Vec::clone(&proc.inbox));
        Stepped {
            process: p,
            print: algo.fingerprint(),
            algo: Arc::new(algo),
            was_idle,
            result,
        }
    }

    /// Fills `menu` with this state's choice menu: the eligible events
    /// (the prefix of `pending` due at the current instant, in canonical
    /// order), each with its block width. Each eligible step is taken
    /// here, once; a broadcasting step's block spans every gap × delay
    /// combo, and all its children install the one outcome.
    pub(crate) fn build_menu(&self, menu: &mut Menu) {
        menu.clear();
        let t = self.t_min();
        let gaps = self.statics.gaps.menu_len();
        for (at, event) in self.pending.iter().enumerate() {
            if event.time != t {
                break;
            }
            let (kind, weight) = match event.kind {
                PendingKind::Step(process) => {
                    let step = self.step(process);
                    let broadcasts = step.result.broadcast.is_some();
                    menu.steps.push(step);
                    let weight = if broadcasts {
                        gaps * self.delay_combos()
                    } else {
                        gaps
                    };
                    let kind = EligibleKind::Step {
                        process,
                        broadcasts,
                    };
                    (kind, weight)
                }
                PendingKind::Deliver { to, .. } => (EligibleKind::Deliver { to }, 1),
            };
            menu.push(EligibleEvent { kind, weight, at });
        }
    }

    /// Whether the delay menu contains zero — a broadcast can then enable
    /// same-instant deliveries.
    pub(crate) fn has_zero_delay(&self) -> bool {
        self.statics.delays.iter().any(|d| d.is_zero())
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Whether every hosted process is identity-free, so the whole system
    /// is invariant under process permutation (the gate for symmetry
    /// reduction; see [`MpAlgo::id_free`]).
    pub(crate) fn symmetric(&self) -> bool {
        self.procs.iter().all(|p| p.algo.id_free())
    }

    /// Hashes the state as it would look after renaming process `i` to
    /// `sigma[i]` — the same normalization as [`MpMachine::state_hash`]
    /// (relative times, inbox multisets, canonical pending order), with
    /// every process index routed through `sigma`.
    pub(crate) fn hash_permuted<H: Hasher>(&self, sigma: &[usize], hasher: &mut H) {
        debug_assert_eq!(sigma.len(), self.n);
        let mut inverse = [0usize; MAX_PERMUTED];
        for (old, &new) in sigma.iter().enumerate() {
            inverse[new] = old;
        }
        let inverse = &inverse[..self.n];
        let t = self.t_min();
        with_scratch(|scratch| {
            for &old in inverse {
                let proc = &self.procs[old];
                hasher.write_u64(proc.print);
                hash_inbox(&proc.inbox, |p| sigma[p], &mut scratch.inbox, hasher);
            }
            scratch.pending.clear();
            scratch.pending.extend(self.pending.iter().map(|e| {
                let (kind, p, from, value) = e.identity();
                let from = if kind == 0 { 0 } else { sigma[from] };
                (e.time - t, (kind, sigma[p], from, value))
            }));
            scratch.pending.sort_unstable();
            hasher.write_usize(scratch.pending.len());
            for &(time, identity) in &scratch.pending {
                hash_event(Some(time), identity, hasher);
            }
        });
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            for &old in inverse {
                periods[old].hash(hasher);
            }
        }
    }

    /// Applies transition `choice` of this state's built `menu` (must be
    /// `< menu.choice_count()`). When `trace` is given, records the event
    /// exactly as the engine would (sends in recipient order before the
    /// step event, delivery records on arrival).
    pub(crate) fn apply_menu(
        &mut self,
        menu: &Menu,
        choice: usize,
        trace: Option<&mut session_sim::Trace>,
    ) -> StepInfo {
        let (event, sub) = menu.locate(choice);
        let (step, pick) = match event.kind {
            EligibleKind::Step {
                process,
                broadcasts,
            } => {
                let combos = if broadcasts { self.delay_combos() } else { 1 };
                (Some(menu.step(process)), (sub / combos, sub % combos))
            }
            EligibleKind::Deliver { .. } => (None, (0, 0)),
        };
        let now = self.t_min();
        self.fire(event.at, now, step, Some(pick), trace).0
    }

    /// The one body every fired event goes through, for the explorers
    /// ([`MpMachine::apply_menu`]) and the zone walker
    /// ([`MpMachine::zone_apply`]) alike. Removes pending entry `at`. A
    /// delivery joins its recipient's inbox. A step installs its `step`
    /// outcome (the stepped process and an empty inbox), enqueues the
    /// broadcast's copies in recipient order and then the process's next
    /// step — the engine's exact order. `pick` is the menu entry's gap
    /// index and delay combo; with `None`, the zone walker's case, the
    /// gap and every delay are zero placeholders (its DBM carries the
    /// windows). Returns the event's facts and the seqs of the deliveries
    /// it scheduled.
    fn fire(
        &mut self,
        at: usize,
        now: Time,
        step: Option<&Stepped>,
        pick: Option<(usize, usize)>,
        mut trace: Option<&mut session_sim::Trace>,
    ) -> (StepInfo, Range<u64>) {
        let fired = self.pending.remove(at);
        let p = match fired.kind {
            PendingKind::Deliver {
                to,
                from,
                value,
                msg,
            } => {
                let proc = &mut self.procs[to];
                Arc::make_mut(&mut proc.inbox)
                    .push(Envelope::new(ProcessId::new(from), SessionMsg::new(value)));
                let idle = proc.algo.is_idle();
                if let Some(trace) = trace {
                    let msg = msg.expect("traced replay assigns message ids at send time");
                    trace.record_delivery(msg, now);
                    trace.push(session_sim::TraceEvent {
                        time: now,
                        process: ProcessId::new(to),
                        kind: session_sim::StepKind::Deliver { msg },
                        idle_after: idle,
                    });
                }
                let info = StepInfo {
                    time: now,
                    process: ProcessId::new(to),
                    port: None,
                    was_idle: idle,
                    idle_after: idle,
                    is_process_step: false,
                    b_violation: None,
                };
                return (info, 0..0);
            }
            PendingKind::Step(p) => p,
        };
        let step = step.expect("a step fires with its menu outcome");
        self.procs[p] = Proc {
            algo: Arc::clone(&step.algo),
            print: step.print,
            inbox: Arc::clone(&self.statics.empty_inbox),
        };
        let first = self.next_seq;
        if let Some(payload) = &step.result.broadcast {
            for q in 0..self.n {
                let delay = pick.map_or(Dur::ZERO, |(_, combo)| self.delay(combo, q));
                let msg = trace
                    .as_deref_mut()
                    .map(|t| t.record_send(ProcessId::new(p), ProcessId::new(q), now));
                let kind = PendingKind::Deliver {
                    to: q,
                    from: p,
                    value: payload.value,
                    msg,
                };
                self.schedule(now + delay, kind);
            }
        }
        let sent = first..self.next_seq;
        if let Some(trace) = trace {
            trace.push(session_sim::TraceEvent {
                time: now,
                process: ProcessId::new(p),
                kind: session_sim::StepKind::MpStep {
                    received: step.result.received,
                    broadcast: step.result.broadcast.is_some(),
                },
                idle_after: step.result.idle_after,
            });
        }
        let gap = pick.map_or(Dur::ZERO, |(gap, _)| self.statics.gaps.gap(p, gap));
        self.schedule(now + gap, PendingKind::Step(p));
        let info = StepInfo {
            time: now,
            process: ProcessId::new(p),
            port: Some(PortId::new(p)),
            was_idle: step.was_idle,
            idle_after: step.result.idle_after,
            is_process_step: true,
            b_violation: None,
        };
        (info, sent)
    }

    /// A hash of the machine state with times made relative to the next
    /// event. Pending events are hashed in their canonical order (their
    /// insertion sequence is an enumeration artifact, not state), which is
    /// also the menu order — so equal hashes mean equal menus: the hash is
    /// graph-determining, which the parallel explorer's claim table relies
    /// on. Allocates nothing, and reads each process's cached fingerprint;
    /// each pending event is two words ([`hash_event`]).
    pub fn state_hash(&self) -> u64 {
        debug_assert!(
            self.procs.iter().all(|p| p.print == p.algo.fingerprint()),
            "a cached process fingerprint is stale"
        );
        let mut hasher = FxHasher::default();
        let t = self.t_min();
        with_scratch(|scratch| {
            for proc in &self.procs {
                hasher.write_u64(proc.print);
                hash_inbox(&proc.inbox, |p| p, &mut scratch.inbox, &mut hasher);
            }
        });
        hasher.write_usize(self.pending.len());
        for event in &self.pending {
            hash_event(Some(event.time - t), event.identity(), &mut hasher);
        }
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            periods.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The initial scheduling windows at the exploration root: every
    /// pending event (at the root, each process's first step) fires
    /// exactly at its concrete scheduled time. Listed in insertion order.
    pub(crate) fn initial_windows(&self) -> Vec<(ZoneEvent, Dur, Dur)> {
        let mut events: Vec<&Pending> = self.pending.iter().collect();
        events.sort_by_key(|e| e.seq);
        events
            .into_iter()
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

    /// How this machine's step gaps are chosen.
    pub(crate) fn gaps(&self) -> &GapMode {
        &self.statics.gaps
    }

    /// The window (relative to the send instant) within which any
    /// in-flight message must be delivered: the hull of the delay menu.
    pub(crate) fn delay_window(&self) -> (Dur, Dur) {
        hull(&self.statics.delays)
    }

    /// Fires `ev` for the zone walker through [`MpMachine::fire`], the
    /// explorers' body, with no concrete times: a step is taken once
    /// here, and every follow-up gets a zero placeholder time. The
    /// returned [`ZoneEvent`]s tell the walker which clocks to schedule
    /// (deliveries in recipient order, then the stepping process's next
    /// step).
    pub(crate) fn zone_apply(&mut self, ev: ZoneEvent) -> (StepInfo, Vec<ZoneEvent>) {
        let at = self
            .pending
            .iter()
            .position(|e| match (ev, &e.kind) {
                (ZoneEvent::Step(p), PendingKind::Step(q)) => p == *q,
                (ZoneEvent::Deliver { seq, .. }, PendingKind::Deliver { .. }) => seq == e.seq,
                _ => false,
            })
            .expect("zone event is pending");
        let step = match ev {
            ZoneEvent::Step(p) => Some(self.step(p)),
            ZoneEvent::Deliver { .. } => None,
        };
        let (info, sent) = self.fire(at, Time::ZERO, step.as_ref(), None, None);
        let mut scheduled = Vec::new();
        if let Some(step) = &step {
            let from = info.process.index();
            if let Some(payload) = &step.result.broadcast {
                scheduled.extend(sent.zip(0..).map(|(seq, to)| ZoneEvent::Deliver {
                    seq,
                    to,
                    from,
                    value: payload.value,
                }));
            }
            scheduled.push(ZoneEvent::Step(from));
        }
        (info, scheduled)
    }

    /// A hash of the discrete control state only: [`MpMachine::state_hash`]
    /// minus every pending time (see [`SmMachine::control_hash`]). The
    /// pending *set* — which deliveries are in flight, as a multiset —
    /// remains part of control.
    pub fn control_hash(&self) -> u64 {
        let mut hasher = FxHasher::default();
        with_scratch(|scratch| {
            for proc in &self.procs {
                hasher.write_u64(proc.print);
                hash_inbox(&proc.inbox, |p| p, &mut scratch.inbox, &mut hasher);
            }
            scratch.identities.clear();
            scratch
                .identities
                .extend(self.pending.iter().map(Pending::identity));
            scratch.identities.sort_unstable();
            hasher.write_usize(scratch.identities.len());
            for &identity in &scratch.identities {
                hash_event(None, identity, &mut hasher);
            }
        });
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            periods.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// The full state the hashes above compress, rendered component by
    /// component after renaming process `i` to `sigma[i]`: each process's
    /// `Debug` rendering, each inbox as a sorted list, the pending count,
    /// each pending event in canonical order (with its time relative to
    /// the next event only when `timed`), then the periods. Two states
    /// with equal encodings under the identity are the same state, and a
    /// state's encodings over all `sigma` list its symmetry orbit. The
    /// collision audit (`crates/analyzer/tests/hash_audit.rs`) checks that
    /// distinct encodings never share a key.
    pub fn canonical_encoding(&self, sigma: &[usize], timed: bool) -> Vec<String> {
        assert_eq!(sigma.len(), self.n, "sigma must permute every process");
        let mut inverse = vec![0usize; self.n];
        for (old, &new) in sigma.iter().enumerate() {
            inverse[new] = old;
        }
        let t = self.t_min();
        let mut parts: Vec<String> = inverse
            .iter()
            .map(|&old| format!("{:?}", self.procs[old].algo))
            .collect();
        for &old in &inverse {
            let mut entries: Vec<(usize, u64)> = self.procs[old]
                .inbox
                .iter()
                .map(|env| (sigma[env.from.index()], env.payload.value))
                .collect();
            entries.sort_unstable();
            parts.push(format!("inbox {entries:?}"));
        }
        let mut pending: Vec<(Option<Dur>, Identity)> = self
            .pending
            .iter()
            .map(|e| {
                let (kind, p, from, value) = e.identity();
                let from = if kind == 0 { 0 } else { sigma[from] };
                (timed.then(|| e.time - t), (kind, sigma[p], from, value))
            })
            .collect();
        pending.sort_unstable();
        parts.push(format!("pending {}", pending.len()));
        parts.extend(pending.iter().map(|event| format!("event {event:?}")));
        if let GapMode::FixedPerProcess(periods) = &self.statics.gaps {
            let periods: Vec<Dur> = inverse.iter().map(|&old| periods[old]).collect();
            parts.push(format!("periods {periods:?}"));
        }
        parts
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
    use session_adversary::naive::{naive_semisync_sm_port, naive_sporadic_mp_port};
    use session_types::fingerprint_of;

    use crate::explore::AnyMachine;

    /// The bare port behind `algo`, fingerprinted three ways: through
    /// the port's own method, as an engine hosting it boxed would, and
    /// structurally.
    fn mp_port_fingerprints(algo: &MpAlgo) -> [u64; 3] {
        fn three<P: MpProcess<SessionMsg> + Hash>(p: &P) -> [u64; 3] {
            let hosted: &dyn MpProcess<SessionMsg> = p;
            [p.fingerprint(), hosted.fingerprint(), fingerprint_of(p)]
        }
        match algo {
            MpAlgo::Sync(p) => three(p),
            MpAlgo::Periodic(p) => three(p),
            MpAlgo::SemiSync(p) => three(p),
            MpAlgo::Sporadic(p) => three(p),
            MpAlgo::Async(p) => three(p),
            MpAlgo::Naive(p) => three(p),
            MpAlgo::StepCounting(p) => three(p),
        }
    }

    fn sm_port_fingerprints(algo: &SmAlgo) -> [u64; 3] {
        fn three<P: SmProcess<Knowledge> + Hash>(p: &P) -> [u64; 3] {
            let hosted: &dyn SmProcess<Knowledge> = p;
            [p.fingerprint(), hosted.fingerprint(), fingerprint_of(p)]
        }
        match algo {
            SmAlgo::Sync(p) => three(p),
            SmAlgo::Periodic(p) => three(p),
            SmAlgo::SemiSync(p) => three(p),
            SmAlgo::Async(p) => three(p),
            SmAlgo::Relay(p) => three(p),
            SmAlgo::Naive(p) => three(p),
            SmAlgo::CheatStepCounting(p) => three(p),
        }
    }

    /// `session_types::fingerprint_of` is the Fx hash the analyzer keys
    /// with, word for word (its hasher is a local copy).
    #[test]
    fn fingerprint_of_is_the_fx_hash() {
        use std::hash::BuildHasher;
        let fx = |value: &dyn Fn(&mut FxHasher)| {
            let mut hasher = rustc_hash::FxBuildHasher::default().build_hasher();
            value(&mut hasher);
            hasher.finish()
        };
        let port = PeriodicMpPort::new(3, 2);
        assert_eq!(fingerprint_of(&port), fx(&|h| port.hash(h)));
        let mut value = Knowledge::new();
        value.announce(ProcessId::new(1), 7);
        assert_eq!(fingerprint_of(&value), fx(&|h| value.hash(h)));
        for text in ["", "abc", "exactly8", "nine bytes"] {
            assert_eq!(fingerprint_of(text), fx(&|h| text.hash(h)), "{text:?}");
        }
        assert_eq!(fingerprint_of(&u128::MAX), fx(&|h| u128::MAX.hash(h)));
    }

    /// Every `MpAlgo` variant fingerprints exactly as its bare port, before
    /// and after each of a few steps, and the fingerprint follows the
    /// state.
    #[test]
    fn mp_algo_fingerprints_agree_with_their_ports() {
        let (c1, c2, d2) = (Dur::from_int(1), Dur::from_int(3), Dur::from_int(2));
        let algos = [
            MpAlgo::Sync(SyncMpPort::new(3)),
            MpAlgo::Periodic(PeriodicMpPort::new(3, 2)),
            MpAlgo::SemiSync(SemiSyncMpPort::new(3, 2, c1, c2, d2).expect("valid params")),
            MpAlgo::Sporadic(
                SporadicMpPort::new(ProcessId::new(0), 3, 2, c1, Dur::ZERO, d2)
                    .expect("valid params"),
            ),
            MpAlgo::Async(AsyncMpPort::new(3, 2)),
            MpAlgo::Naive(NaiveMpPort::new(3)),
            MpAlgo::StepCounting(StepCountingMpPort::new(3, c1, c2).expect("valid params")),
            MpAlgo::Sporadic(naive_sporadic_mp_port(ProcessId::new(1), 3, 2)),
        ];
        for mut algo in algos {
            let mut seen = BTreeSet::new();
            for round in 0..4u64 {
                let wrapper = algo.fingerprint();
                assert_eq!(
                    mp_port_fingerprints(&algo),
                    [wrapper; 3],
                    "{algo:?} after {round} steps"
                );
                seen.insert(wrapper);
                let inbox = vec![Envelope::new(ProcessId::new(1), SessionMsg::new(round))];
                let _ = algo.step(inbox);
            }
            assert!(seen.len() > 1, "{algo:?}: fingerprint never moved");
        }
    }

    /// The shared-memory counterpart, relays included.
    #[test]
    fn sm_algo_fingerprints_agree_with_their_ports() {
        let (c1, c2) = (Dur::from_int(1), Dur::from_int(3));
        let var = VarId::new(0);
        let me = ProcessId::new(0);
        let algos = [
            SmAlgo::Sync(SyncSmPort::new(var, 3)),
            SmAlgo::Periodic(PeriodicSmPort::new(me, var, 3, 2)),
            SmAlgo::SemiSync(SemiSyncSmPort::new(me, var, 3, 2, c1, c2, 1).expect("valid params")),
            SmAlgo::Async(AsyncSmPort::new(me, var, 3, 2)),
            SmAlgo::Relay(RelayProcess::new(vec![var, VarId::new(1)])),
            SmAlgo::Naive(NaiveSmPort::new(var, 3)),
            SmAlgo::CheatStepCounting(
                naive_semisync_sm_port(var, 3, c1, c2).expect("valid params"),
            ),
        ];
        for mut algo in algos {
            let mut seen = BTreeSet::new();
            for round in 0..4u64 {
                let wrapper = algo.fingerprint();
                assert_eq!(
                    sm_port_fingerprints(&algo),
                    [wrapper; 3],
                    "{algo:?} after {round} steps"
                );
                seen.insert(wrapper);
                let mut value = Knowledge::new();
                value.announce(ProcessId::new(1), round + 1);
                let _ = algo.step(&value);
            }
            assert!(seen.len() > 1, "{algo:?}: fingerprint never moved");
        }
    }

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

    fn sm_menu(machine: &SmMachine) -> Menu {
        let mut menu = Menu::default();
        machine.build_menu(&mut menu);
        menu
    }

    #[test]
    fn sm_machine_steps_and_quiesces() {
        let mut machine = sync_sm_machine(2, 1);
        assert!(!machine.is_quiescent());
        // One gap, all processes due together: one choice per process.
        assert_eq!(sm_menu(&machine).choice_count(), machine.algos().len());
        let info = machine.apply_menu(&sm_menu(&machine), 0, None);
        assert!(info.is_process_step);
        assert_eq!(info.port, Some(PortId::new(0)));
        assert!(info.idle_after, "s = 1: one step and the port idles");
        let info = machine.apply_menu(&sm_menu(&machine), 0, None);
        assert_eq!(info.port, Some(PortId::new(1)));
        assert!(machine.is_quiescent(), "both ports idle");
    }

    #[test]
    fn sm_relay_steps_are_not_port_steps() {
        let mut machine = sync_sm_machine(2, 1);
        let menu = sm_menu(&machine);
        let relay_choice = menu
            .events()
            .iter()
            .position(|e| e.at >= 2)
            .expect("tree has a relay");
        let info = machine.apply_menu(&menu, relay_choice, None);
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

    fn mp_menu(machine: &MpMachine) -> Menu {
        let mut menu = Menu::default();
        machine.build_menu(&mut menu);
        menu
    }

    #[test]
    fn mp_broadcasting_step_fans_out_gap_and_delay_choices() {
        let machine = sporadic_mp_machine(3);
        // Both processes due at t=1, each broadcasts: 2 gaps × 2² delay
        // combos = 8 choices each.
        assert_eq!(mp_menu(&machine).choice_count(), 16);
    }

    #[test]
    fn mp_apply_creates_deliveries_then_next_step() {
        let mut machine = sporadic_mp_machine(3);
        let info = machine.apply_menu(&mp_menu(&machine), 0, None);
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
        let _ = machine.apply_menu(&mp_menu(&machine), 0, None);
        let menu = mp_menu(&machine);
        let deliveries = menu
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EligibleKind::Deliver { .. }))
            .count();
        assert_eq!(deliveries, 2, "delay 0 deliveries due at once");
        // Flat choice for the first delivery: skip past the weights of the
        // eligible events before it (p1's own first step broadcasts, so it
        // carries 2 gaps × 4 delay combos = 8 choices).
        let first = menu
            .events()
            .iter()
            .position(|e| matches!(e.kind, EligibleKind::Deliver { .. }))
            .expect("a delivery is eligible");
        let first_delivery = menu.range(first).start;
        assert_eq!(first_delivery, 8);
        let info = machine.apply_menu(&menu, first_delivery, None);
        assert!(!info.is_process_step);
        let inboxes = machine.procs.iter().map(|p| p.inbox.len());
        assert_eq!(inboxes.sum::<usize>(), 1);
    }

    #[test]
    fn mp_state_hash_ignores_insertion_sequence() {
        let mut a = sporadic_mp_machine(3);
        let mut b = sporadic_mp_machine(3);
        let _ = a.apply_menu(&mp_menu(&a), 0, None);
        let _ = b.apply_menu(&mp_menu(&b), 0, None);
        // Renumber b's sequences: the hash must not change.
        for pending in &mut b.pending {
            pending.seq += 1000;
        }
        assert_eq!(a.state_hash(), b.state_hash());
    }

    /// Every child of one broadcasting step installs the same stepped
    /// process, whatever delays it assigns: the step was taken once, when
    /// the menu was built.
    #[test]
    fn mp_broadcasting_step_is_taken_once_for_all_its_children() {
        let machine = sporadic_mp_machine(3);
        let menu = mp_menu(&machine);
        let block = menu.range(0);
        assert!(matches!(
            menu.events()[0].kind,
            EligibleKind::Step {
                process: 0,
                broadcasts: true
            }
        ));
        let (mut a, mut b) = (machine.clone(), machine.clone());
        let _ = a.apply_menu(&menu, block.start, None);
        let _ = b.apply_menu(&menu, block.start + 1, None);
        assert_ne!(a.state_hash(), b.state_hash(), "different delay combos");
        assert!(Arc::ptr_eq(&a.procs[0].algo, &b.procs[0].algo));
    }

    /// Drives `root` to quiescence, always firing the eligible event with
    /// the smallest insertion `seq` (the engine queue's FIFO tie-break)
    /// and a pseudo-random gap and delay combo from its block. Returns
    /// the machine, its trace, each process's step times (the first and
    /// every scheduled next one) and the delays in send order.
    #[allow(clippy::type_complexity)]
    fn drive_fifo(
        root: &MpMachine,
        seed: u64,
    ) -> (
        MpMachine,
        session_sim::Trace,
        std::collections::BTreeMap<ProcessId, Vec<Time>>,
        Vec<Dur>,
    ) {
        let mut machine = root.clone();
        let mut trace = session_sim::Trace::new(machine.n);
        let step_time = |m: &MpMachine, p: usize| {
            let pending = m.pending.iter();
            let mut steps = pending.filter(|e| matches!(e.kind, PendingKind::Step(q) if q == p));
            steps.next().expect("every process has a pending step").time
        };
        let mut times: std::collections::BTreeMap<ProcessId, Vec<Time>> = (0..machine.n)
            .map(|p| (ProcessId::new(p), vec![step_time(&machine, p)]))
            .collect();
        let mut delays = Vec::new();
        let mut rng = seed | 1;
        let mut menu = Menu::default();
        for _ in 0..10_000 {
            if machine.is_quiescent() {
                return (machine, trace, times, delays);
            }
            machine.build_menu(&mut menu);
            let fifo = (0..menu.events().len())
                .min_by_key(|&i| machine.pending[menu.events()[i].at].seq)
                .expect("a non-quiescent machine has eligible events");
            let block = menu.range(fifo);
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let choice = block.start + (rng % block.len() as u64) as usize;
            let first_new = machine.next_seq;
            let info = machine.apply_menu(&menu, choice, Some(&mut trace));
            if info.is_process_step {
                let p = info.process.index();
                times
                    .get_mut(&info.process)
                    .expect("listed")
                    .push(step_time(&machine, p));
                let mut sent: Vec<&Pending> = machine
                    .pending
                    .iter()
                    .filter(|e| e.seq >= first_new && matches!(e.kind, PendingKind::Deliver { .. }))
                    .collect();
                sent.sort_by_key(|e| e.seq);
                delays.extend(sent.iter().map(|e| e.time - info.time));
            }
        }
        panic!("no quiescence within 10,000 events");
    }

    /// The machine steps message passing exactly as [`session_mpm::MpEngine`]
    /// does: along the engine's own FIFO order, with its gaps and delays
    /// scripted into the engine, both record the same events, the same
    /// message send and delivery times and the same process states up to
    /// the engine's quiescence stop.
    #[test]
    fn mp_machine_matches_the_engine_along_fifo_paths() {
        use session_sim::{ExplicitSchedule, RunLimits, ScriptedDelay};
        for name in ["SyncMp", "PeriodicMp", "SporadicMp"] {
            let space = crate::targets::scoped_target_space(name, 3, 3).expect("registered");
            for (r, root) in space.roots.iter().enumerate() {
                let AnyMachine::Mp(root) = root else {
                    panic!("{name} is a message-passing target");
                };
                for seed in [0x9e37, 0x51ed, 0xc0ffee, 0xdecade] {
                    let (end, trace, times, delays) = drive_fifo(root, seed);
                    let processes: Vec<Box<dyn MpProcess<SessionMsg>>> = root
                        .procs
                        .iter()
                        .map(|p| Box::new(MpAlgo::clone(&p.algo)) as Box<dyn MpProcess<SessionMsg>>)
                        .collect();
                    let ports = (0..root.n)
                        .map(|i| (ProcessId::new(i), PortId::new(i)))
                        .collect();
                    let mut engine = session_mpm::MpEngine::new(processes, ports).expect("engine");
                    let mut schedule =
                        ExplicitSchedule::new(times, Dur::from_int(1)).expect("scripted steps");
                    let mut policy = ScriptedDelay::new(delays, Dur::ZERO).expect("delays");
                    let outcome = engine
                        .run(&mut schedule, &mut policy, RunLimits::new(100_000))
                        .expect("engine run");
                    let at = format!("{name} root {r} seed {seed:#x}");
                    assert!(outcome.terminated, "{at}: engine quiesces");
                    assert_eq!(outcome.trace.events(), trace.events(), "{at}: events");
                    assert_eq!(outcome.trace.messages(), trace.messages(), "{at}: messages");
                    assert_eq!(engine.fingerprints(), end.fingerprints(), "{at}: states");
                }
            }
        }
    }
}
