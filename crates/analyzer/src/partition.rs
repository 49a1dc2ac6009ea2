//! Multi-core exploration: the claim-table explorer behind
//! `ExploreOpts { threads > 1 }`, whose findings *and counters* are
//! bit-identical to the serial DFS in [`crate::explore`].
//!
//! # Two phases and the replay's witnesses (DESIGN.md §13)
//!
//! * **Phase A — parallel claim walk.** Workers share one visited set,
//!   the claim table (`Frontier`): a worker expanding a state claims
//!   each open child's [`state_key`], and only the claim's winner keeps
//!   the child, on its own LIFO stack. The winner also names the
//!   child's record: an id `(owner, seq)` of its own, which the table
//!   hands every later claimant of the key. Each state is therefore
//!   expanded exactly once, by whichever worker reached it first, and
//!   machines cross threads only when a busy worker hands the oldest
//!   half of its stack to a hungry peer through the donation pool. A
//!   worker re-homes every state it takes from the pool onto `Arc`s of
//!   its own (`AnyMachine::rehome`), so no refcount is written by two
//!   workers, and answers repeated claims from a small direct-mapped
//!   filter of the ids it has already seen (`ClaimFilter`). A shared
//!   count of claimed-but-unexpanded states detects termination. Every
//!   expansion appends an annotated successor record to its worker's
//!   log, with each open child named by its id.
//! * **Counts.** After the join, the serial numbers come from the
//!   *logged id-graph*, in one of two ways:
//!   - **Closed form** (`closed_form`), for a clean round: the first
//!     round, no pruned edge, no deficit leaf or root, and a Kahn pass
//!     that visits every record with every longest root path inside the
//!     depth budget. Then the serial DFS expands each record once and
//!     every other visit is a memo hit, so `states` is the record
//!     count, `memo_hits` the open visits minus the records, and
//!     `pruned` the menu choices the ample sets left out. Debug builds
//!     run the replay as well and assert that the counts agree.
//!   - **Serial replay** (`Replay`) otherwise: the serial DFS is re-run
//!     over the logged graph, with no machine clones and no step
//!     application, just the DFS kernel of `crate::walk` (the one the
//!     serial explorer runs) over the logged records, in the serial
//!     visit order. The replay also records each lint code's first
//!     witness (code, root, path) where the serial explorer does: at
//!     the pruned edge, the quiescent-deficit edge (quiescent roots in
//!     root order) or the lasso. Each witness path is then walked once
//!     from its root ([`crate::replay::replay`]) for its message,
//!     session count and trace, so codes, roots, paths, messages and
//!     their order match `threads = 1` with no second walk of the
//!     space.
//!
//!   Either way every reported number — `states`, `pruned`,
//!   `memo_hits`, `truncated` — is *the serial explorer's number*, at
//!   every thread count, with or without POR.
//!
//! # Exactness: the replay pass and the one key
//!
//! The replay argument rests on the record graph being **race-free**:
//! the record logged for a key must not depend on which worker won its
//! claim. The state key ([`state_key`]) equates machines whose pending
//! queues hold the same multiset in a different order, which is safe
//! precisely because [`MpMachine`] keeps its pending events in the
//! canonical order the hash is computed over, and its choice menu is
//! their eligible prefix — equal hashes mean equal menus, so every
//! representative of the class expands to the same record and
//! first-claim is harmless. Phase A claims states by that key and each
//! record stores it once. Within a round the claim table makes keys and
//! record ids a bijection, so the replay, which walks and memoizes on
//! ids, prunes exactly where the serial explorer's key memo does: Phase
//! A expands exactly the states the serial explorer visits.
//!
//! [`MpMachine`]: crate::machine::MpMachine
//!
//! Two escape hatches keep that argument airtight:
//!
//! * **Depth cut → serial fallback.** The claim walk ignores the depth
//!   budget (it visits each state once, so path depth is meaningless to
//!   it), which is only sound when the whole reachable space fits in the
//!   budget. A won claim at `depth >= max_depth` raises a global cut
//!   flag; the round aborts and the caller falls back to the serial
//!   explorer wholesale. Truncated scopes were never parallel wins.
//! * **POR proviso → flag-and-re-round.** Under POR, Phase A explores
//!   ample-only menus, so a replay that hits the cycle proviso at a
//!   state whose full menu was never logged cannot continue exactly. It
//!   records the state in a `needs_full` set; the controller re-runs
//!   Phase A with those states forced to full expansion and replays
//!   again, to a fixpoint. Acyclic spaces (every `reduce=none` run,
//!   and the bench headline) take one round.

use std::ops::Range;
use std::time::{Duration, Instant};

// Under `--cfg loom` the claim table's primitives route through the loom
// facade, so `loom_tests` exercises the same types the production build
// uses.
#[cfg(loom)]
use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::Mutex;
#[cfg(loom)]
use loom::thread::yield_now;
#[cfg(not(loom))]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::Mutex;
#[cfg(not(loom))]
use std::thread::yield_now;

use rustc_hash::{FxHashMap, FxHashSet};
use session_obs::{ProgressBoard, Recorder, TimelineSpan};

use crate::diag::LintCode;
use crate::explore::{
    make_child, record_totals, state_key, AnyMachine, Child, Exploration, ExploreOpts,
    SessionCounter, Witnesses,
};
use crate::machine::Menu;
use crate::por;
use crate::profile::{ExploreProfile, FlightOpts, ProgressBatch, WorkerProfile, FLIGHT_BUFFER_CAP};
use crate::walk::{Counts, Edge, Expansion, Space, Walk};

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The claim table has `2^CLAIM_STRIPE_BITS` stripes, picked by a key's
/// top bits. A claim locks only its key's stripe. The low bits are left
/// to the stripe's own set, whose FxHash buckets by them.
const CLAIM_STRIPE_BITS: u32 = 6;

/// Bits of a record id that hold its sequence number; the bits above
/// hold its owner: the worker that won the claim, or the controller
/// (owner `threads`) for the roots.
const SEQ_BITS: u32 = 48;

/// The record id of `owner`'s `seq`-th won claim this round.
fn record_id(owner: usize, seq: u64) -> u64 {
    debug_assert!(
        seq < 1 << SEQ_BITS,
        "claim sequence exceeds the id encoding"
    );
    (owner as u64) << SEQ_BITS | seq
}

/// The owner and sequence number of a record id.
fn split_id(id: u64) -> (usize, usize) {
    (
        (id >> SEQ_BITS) as usize,
        (id & ((1 << SEQ_BITS) - 1)) as usize,
    )
}

/// What one round's workers share: the claim table, the donation pool
/// and the termination count. A worker holds at most one of its locks
/// at a time.
struct Frontier<T> {
    /// Every state key claimed this round, with the record id its winner
    /// gave it, striped by the key's top [`CLAIM_STRIPE_BITS`] bits.
    claims: Vec<Mutex<FxHashMap<u64, u64>>>,
    /// Claimed states handed over to balance load, oldest first.
    pool: Mutex<Vec<T>>,
    /// Workers whose own stack is empty, waiting on the pool. A hint
    /// that publishes no data, so `Relaxed` throughout.
    hungry: AtomicUsize,
    /// Claimed states not yet expanded, wherever they are held. Updates
    /// are `AcqRel` and [`Frontier::quiescent`] loads with `Acquire`, so
    /// a worker that reads zero sees every expansion that led there.
    pending: AtomicUsize,
    /// Raised when a claim lands at the depth budget: the round is void.
    /// Only the flag itself is published; the controller reads it after
    /// the join.
    cut: AtomicBool,
}

impl<T> Frontier<T> {
    fn new() -> Frontier<T> {
        Frontier {
            claims: (0..1 << CLAIM_STRIPE_BITS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            pool: Mutex::new(Vec::new()),
            hungry: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            cut: AtomicBool::new(false),
        }
    }

    /// Claims `key` under the caller's unused record id `fresh`, and
    /// returns the id the key holds this round. That is `fresh` for
    /// exactly one caller per key and round, which thereby owns the
    /// state and must expand it (or void the round with
    /// [`Frontier::raise_cut`]); every other caller gets the winner's id.
    fn claim(&self, key: u64, fresh: u64) -> u64 {
        *self.claims[(key >> (64 - CLAIM_STRIPE_BITS)) as usize]
            .lock()
            .expect("claim stripe")
            .entry(key)
            .or_insert(fresh)
    }

    /// Hands the claimed roots to the pool, each one pending.
    fn seed(&self, roots: Vec<T>) {
        self.pending.fetch_add(roots.len(), Ordering::AcqRel);
        self.pool.lock().expect("donation pool").extend(roots);
    }

    /// Settles one finished expansion that won `won` child claims: the
    /// parent stops being pending and its children start. One atomic
    /// update per expansion, none when exactly one child was won.
    fn settle(&self, won: usize) {
        match won {
            0 => {
                self.pending.fetch_sub(1, Ordering::AcqRel);
            }
            1 => {}
            more => {
                self.pending.fetch_add(more - 1, Ordering::AcqRel);
            }
        }
    }

    /// No claimed state is left unexpanded anywhere. Once true it stays
    /// true: `pending` only grows inside an expansion that still holds
    /// its own count.
    fn quiescent(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }

    fn raise_cut(&self) {
        self.cut.store(true, Ordering::Relaxed);
    }

    fn is_cut(&self) -> bool {
        self.cut.load(Ordering::Relaxed)
    }

    fn hungry(&self) -> bool {
        self.hungry.load(Ordering::Relaxed) > 0
    }

    /// Moves the oldest half of `stack` to the pool if the pool is empty
    /// (callers check [`Frontier::hungry`] first). Returns how many
    /// states moved.
    fn donate(&self, stack: &mut Vec<T>) -> usize {
        let mut pool = self.pool.lock().expect("donation pool");
        if !pool.is_empty() {
            return 0;
        }
        let half = stack.len() / 2;
        pool.extend(stack.drain(..half));
        half
    }

    /// Moves half the pool (rounded up) onto `stack`. Returns how many
    /// states moved and how deep the pool was.
    fn take(&self, stack: &mut Vec<T>) -> (usize, usize) {
        let mut pool = self.pool.lock().expect("donation pool");
        let depth = pool.len();
        let half = depth.div_ceil(2);
        stack.extend(pool.drain(..half));
        (half, depth)
    }

    /// Distinct keys claimed so far.
    fn claimed(&self) -> usize {
        self.claims
            .iter()
            .map(|stripe| stripe.lock().expect("claim stripe").len())
            .sum()
    }
}

/// One worker's Phase A activity in a round. The profile keeps the
/// routing-era names for these (DESIGN.md §15).
#[derive(Clone, Copy, Default)]
struct Tally {
    /// States expanded.
    expanded: u64,
    /// Won child claims, kept on this worker's stack (`local_msgs`).
    kept: u64,
    /// States donated to the pool (`route_send`).
    donated: u64,
    /// States taken from the pool (`route_recv`).
    taken: u64,
    /// Idle polls that found the pool empty (`queue_full_spins`).
    empty_polls: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.expanded += other.expanded;
        self.kept += other.kept;
        self.donated += other.donated;
        self.taken += other.taken;
        self.empty_polls += other.empty_polls;
    }
}

/// One worker's Phase A loop. It pops its own stack LIFO and hands each
/// state to `expand`, which must push exactly the children it won claims
/// for. After each expansion it donates to a hungry peer when it can.
/// With its stack empty it waits on the pool until the pool refills or
/// the frontier is quiescent.
fn work<T>(
    frontier: &Frontier<T>,
    mut expand: impl FnMut(T, &mut Vec<T>),
    mut prof: Option<&mut WorkerProfile>,
    epoch: Instant,
    round: u64,
) -> Tally {
    let profiled = prof.is_some();
    let clock = || if profiled { nanos(epoch.elapsed()) } else { 0 };
    let mut tally = Tally::default();
    let mut stack = Vec::new();
    loop {
        let idle_from = clock();
        let mut busy_from = idle_from;
        let mut took = 0;
        frontier.hungry.fetch_add(1, Ordering::Relaxed);
        while !frontier.is_cut() {
            busy_from = clock();
            let (taken, depth) = frontier.take(&mut stack);
            if taken > 0 {
                took = taken;
                if let Some(prof) = prof.as_deref_mut() {
                    prof.route_recv_ns += clock().saturating_sub(busy_from);
                    if prof.inbox_depth.len() < FLIGHT_BUFFER_CAP {
                        prof.inbox_depth.push((busy_from, depth as u64));
                    }
                }
                break;
            }
            if frontier.quiescent() {
                break;
            }
            tally.empty_polls += 1;
            yield_now();
        }
        frontier.hungry.fetch_sub(1, Ordering::Relaxed);
        if let Some(prof) = prof.as_deref_mut() {
            prof.idle_ns += busy_from.saturating_sub(idle_from);
        }
        if took == 0 {
            break;
        }
        tally.taken += took as u64;
        while let Some(item) = stack.pop() {
            let base = stack.len();
            expand(item, &mut stack);
            let won = stack.len() - base;
            frontier.settle(won);
            tally.expanded += 1;
            tally.kept += won as u64;
            if frontier.is_cut() {
                break;
            }
            if stack.len() >= 2 && frontier.hungry() {
                let from = clock();
                let moved = frontier.donate(&mut stack);
                tally.donated += moved as u64;
                if let Some(prof) = prof.as_deref_mut() {
                    prof.route_send_ns += clock().saturating_sub(from);
                }
            }
        }
        if let Some(prof) = prof.as_deref_mut() {
            let end = clock();
            prof.busy_ns += end.saturating_sub(busy_from);
            prof.timeline.push(TimelineSpan {
                name: "work",
                start_ns: busy_from,
                end_ns: end,
                detail: round,
            });
        }
        if frontier.is_cut() {
            break;
        }
    }
    tally
}

/// A state its worker won the claim for, with the session counter and
/// depth of the path that claimed it.
struct Claimed {
    machine: AnyMachine,
    counter: SessionCounter,
    depth: usize,
    /// The [`state_key`] the state was claimed by.
    key: u64,
    /// The record id the claim's winner gave it; its owner is the worker
    /// whose `Arc`s the machine shares.
    id: u64,
}

/// Slots in a worker's [`ClaimFilter`]: `2^FILTER_BITS`.
const FILTER_BITS: u32 = 14;

/// A worker's direct-mapped cache of the claims it has made, won or
/// lost, each as `(key, id)`. A key's id never changes within a round,
/// so a hit answers a claim without locking the shared table. Slots are
/// picked by a Fibonacci hash of the key, and a later key evicts an
/// earlier one.
struct ClaimFilter {
    slots: Box<[(u64, u64)]>,
}

impl ClaimFilter {
    /// An id no claim assigns: marks an empty slot.
    const EMPTY: u64 = u64::MAX;

    fn new() -> ClaimFilter {
        ClaimFilter {
            slots: vec![(0, Self::EMPTY); 1 << FILTER_BITS].into_boxed_slice(),
        }
    }

    fn slot(key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - FILTER_BITS)) as usize
    }

    /// The id `key` was claimed under, if it is still cached.
    fn get(&self, key: u64) -> Option<u64> {
        let (cached, id) = self.slots[Self::slot(key)];
        (id != Self::EMPTY && cached == key).then_some(id)
    }

    fn put(&mut self, key: u64, id: u64) {
        self.slots[Self::slot(key)] = (key, id);
    }
}

/// One worker's expansion side: walks a claimed state's menu, logs its
/// successor record and claims its open children.
struct Expander<'a> {
    frontier: &'a Frontier<Claimed>,
    /// This worker's index: the owner of the record ids it assigns.
    owner: usize,
    /// Claims this worker has won this round: the next id's sequence.
    won: u64,
    filter: ClaimFilter,
    /// States (by state key) whose full menu must be expanded this
    /// round (POR proviso fixpoint flags). Read-only during the round.
    flagged: &'a FxHashSet<u64>,
    s: u64,
    max_depth: usize,
    opts: ExploreOpts,
    log: Vec<u64>,
    /// The menu of the state being expanded, rebuilt in place per state.
    menu: Menu,
    /// Child claims attempted, won or lost.
    claims: u64,
    progress: ProgressBatch<'a>,
}

impl Expander<'_> {
    /// Claims `key` for this worker, through the filter first. Returns
    /// the key's record id and whether this call won it.
    fn claim(&mut self, key: u64) -> (u64, bool) {
        self.claims += 1;
        if let Some(id) = self.filter.get(key) {
            return (id, false);
        }
        let fresh = record_id(self.owner, self.won);
        let id = self.frontier.claim(key, fresh);
        self.filter.put(key, id);
        let won = id == fresh;
        self.won += u64::from(won);
        (id, won)
    }

    /// Expands one claimed state: walk its menu (ample-only under POR
    /// unless flagged for full expansion), log the annotated successor
    /// record, and push the open children this worker wins. A state
    /// another worker claimed (a donation or a root) is re-homed first.
    fn expand(&mut self, item: Claimed, stack: &mut Vec<Claimed>) {
        if let Some(board) = self.progress.tick(item.depth) {
            board.set_frontier(self.frontier.pending.load(Ordering::Relaxed) as u64);
        }
        let Claimed {
            mut machine,
            counter,
            depth,
            key,
            id,
        } = item;
        if split_id(id).0 != self.owner {
            machine.rehome();
        }
        let mut menu = std::mem::take(&mut self.menu);
        machine.build_menu(&mut menu);
        let choices = menu.choice_count();
        debug_assert!(choices > 0, "non-quiescent machine must have events");
        debug_assert!(choices < (1 << 16), "choice menu exceeds the log encoding");
        let ample = if self.opts.por {
            por::select_ample(&machine, &menu, &counter)
        } else {
            None
        };
        let partial = ample.is_some() && !self.flagged.contains(&key);
        let range = if partial {
            ample.clone().expect("partial implies ample")
        } else {
            0..choices
        };
        let record = self.log.len();
        self.log.push(id);
        self.log.push(key);
        self.log.push(0); // meta, patched below
        let mut flags = 0u64;
        if let Some(ample) = &ample {
            flags |= FLAG_AMPLE;
            self.log.push(ample.start as u64 | (ample.end as u64) << 32);
        }
        if partial {
            flags |= FLAG_PARTIAL;
        }
        let mut logged = 0u64;
        for choice in range {
            match make_child(&machine, &menu, &counter, choice) {
                Child::Pruned(code) => {
                    self.log.push(TAG_PRUNED);
                    self.log.push(code_tag(code));
                }
                Child::Open(next, next_counter) => {
                    let effective = next_counter.as_ref().unwrap_or(&counter);
                    if next.is_quiescent() {
                        let deficit = effective.sessions() < self.s;
                        self.log.push(TAG_QUIESCENT);
                        self.log.push(u64::from(deficit));
                    } else {
                        let child_key = state_key(&next, effective);
                        let (child, won) = self.claim(child_key);
                        self.log.push(TAG_OPEN);
                        self.log.push(child);
                        if won {
                            if depth + 1 >= self.max_depth {
                                self.frontier.raise_cut();
                            } else {
                                stack.push(Claimed {
                                    machine: next,
                                    counter: next_counter.unwrap_or_else(|| counter.clone()),
                                    depth: depth + 1,
                                    key: child_key,
                                    id: child,
                                });
                            }
                        }
                    }
                }
            }
            logged += 1;
        }
        self.log[record + 2] = logged | (choices as u64) << 16 | flags;
        self.menu = menu;
    }
}

/// What one worker hands back at the round join.
struct WorkerRoundOut {
    tally: Tally,
    log: Vec<u64>,
    /// Record ids this worker assigned: sequences `0..won`.
    won: u64,
    prof: Option<Box<WorkerProfile>>,
}

/// One worker thread of a round: the [`work`] loop over an
/// [`Expander`], with the flight recorder's bookkeeping around it.
fn run_worker(
    mut expander: Expander<'_>,
    profile: bool,
    epoch: Instant,
    round: u64,
) -> WorkerRoundOut {
    let frontier = expander.frontier;
    let mut prof = profile.then(|| Box::new(WorkerProfile::new()));
    if let Some(board) = expander.progress.board {
        board.worker_busy();
    }
    let tally = work(
        frontier,
        |item, stack| expander.expand(item, stack),
        prof.as_deref_mut(),
        epoch,
        round,
    );
    if let Some(board) = expander.progress.flush() {
        board.set_frontier(frontier.pending.load(Ordering::Relaxed) as u64);
        board.worker_idle();
    }
    if let Some(prof) = prof.as_deref_mut() {
        prof.states = tally.expanded;
        prof.items = expander.claims;
        prof.route_send = tally.donated;
        prof.route_recv = tally.taken;
        prof.local_msgs = tally.kept;
        prof.queue_full_spins = tally.empty_polls;
        prof.seal();
    }
    WorkerRoundOut {
        tally,
        log: expander.log,
        won: expander.won,
        prof,
    }
}

// ---------------------------------------------------------------------
// The successor log: each expanded state appends one flat record
//
//   [id, key, meta, (ample_word)?, tag0, payload0, ...]
//
// id    = the record id `owner << SEQ_BITS | seq` the state's claim
//         winner gave it, which the replay memoizes on
// key   = the state key the state was claimed by, which proviso flags
//         name across rounds
// meta  = logged_children | total_choices << 16 | flags
// flags = FLAG_AMPLE (an ample range follows) | FLAG_PARTIAL (only the
//         ample slice of the menu was explored and logged)
// ample_word = start | end << 32, child tags/payloads in choice order;
// open-child payloads are record ids.
// ---------------------------------------------------------------------

const TAG_OPEN: u64 = 0;
const TAG_PRUNED: u64 = 1;
const TAG_QUIESCENT: u64 = 2;

const FLAG_AMPLE: u64 = 1 << 32;
const FLAG_PARTIAL: u64 = 1 << 33;

fn code_tag(code: LintCode) -> u64 {
    match code {
        LintCode::SessionDeficit => 1,
        LintCode::BBoundViolation => 2,
        LintCode::StaleEvidence => 3,
        LintCode::InadmissibleStep => 4,
        LintCode::NonTermination => 5,
        // `check_step` only produces the step lints above; anything else
        // reaching an edge record is a bug.
        other => unreachable!("unexpected step lint {other:?}"),
    }
}

fn code_from_tag(tag: u64) -> LintCode {
    match tag {
        1 => LintCode::SessionDeficit,
        2 => LintCode::BBoundViolation,
        3 => LintCode::StaleEvidence,
        4 => LintCode::InadmissibleStep,
        5 => LintCode::NonTermination,
        other => unreachable!("corrupt edge log: code tag {other}"),
    }
}

/// Bits of a packed record position that hold the offset in its log;
/// the bits above hold the log (worker) index.
const OFFSET_BITS: u32 = 48;

/// A position no record holds: marks an id that has no record.
const NO_RECORD: u64 = u64::MAX;

/// One round's successor logs, left where the workers wrote them and
/// indexed by record id: one dense array per owner, by sequence number.
/// Each position packs (log, offset) into a word, so the join never
/// copies a log.
struct Graph {
    logs: Vec<Vec<u64>>,
    /// `positions[owner][seq]`: where record `(owner, seq)` starts.
    positions: Vec<Vec<u64>>,
    /// Each owner's first index in the round's dense record numbering.
    bases: Vec<usize>,
    /// Records in every log.
    records: usize,
}

impl Graph {
    /// Indexes `logs`, whose records carry the ids of owner `i`'s
    /// sequences `0..won[i]`.
    fn build(logs: Vec<Vec<u64>>, won: &[u64]) -> Graph {
        let mut positions: Vec<Vec<u64>> = won
            .iter()
            .map(|&won| vec![NO_RECORD; won as usize])
            .collect();
        let mut bases = Vec::with_capacity(won.len());
        let mut records = 0;
        for owned in &positions {
            bases.push(records);
            records += owned.len();
        }
        for (log_index, log) in logs.iter().enumerate() {
            let mut at = 0;
            while at < log.len() {
                debug_assert!(
                    (at as u64) < 1 << OFFSET_BITS,
                    "log exceeds the index encoding"
                );
                let (owner, seq) = split_id(log[at]);
                positions[owner][seq] = (log_index as u64) << OFFSET_BITS | at as u64;
                at += Record::parse(log, at).words;
            }
        }
        debug_assert!(
            positions.iter().flatten().all(|&at| at != NO_RECORD),
            "every won claim was expanded"
        );
        Graph {
            logs,
            positions,
            bases,
            records,
        }
    }

    /// Record `id`'s index in the round's dense numbering `0..records`.
    fn dense(&self, id: u64) -> usize {
        let (owner, seq) = split_id(id);
        self.bases[owner] + seq
    }

    /// The record of `id`, parsed.
    fn state(&self, id: u64) -> Record<'_> {
        let (owner, seq) = split_id(id);
        let at = self.positions[owner][seq];
        // Every open edge targets an expanded state in a cut-free round;
        // an absent record means the log is corrupt.
        assert!(at != NO_RECORD, "state {id:#x} expanded by no worker");
        let offset = (at & ((1 << OFFSET_BITS) - 1)) as usize;
        Record::parse(&self.logs[(at >> OFFSET_BITS) as usize], offset)
    }
}

/// A logged state.
struct Record<'g> {
    /// Its record id, which the replay memoizes on.
    id: u64,
    /// Its state key, which proviso flags name across rounds.
    key: u64,
    choices: usize,
    ample: Option<Range<usize>>,
    /// Only the ample slice of the menu was logged, from index zero.
    partial: bool,
    /// Tag/payload pairs in choice order.
    children: &'g [u64],
    /// The record's length in its log.
    words: usize,
}

impl<'g> Record<'g> {
    /// The record starting at `at` in `log`.
    fn parse(log: &'g [u64], at: usize) -> Record<'g> {
        let meta = log[at + 2];
        let logged = (meta & 0xffff) as usize;
        let (ample, start) = if meta & FLAG_AMPLE != 0 {
            let word = log[at + 3];
            let range = (word & 0xffff_ffff) as usize..(word >> 32) as usize;
            (Some(range), at + 4)
        } else {
            (None, at + 3)
        };
        let end = start + 2 * logged;
        Record {
            id: log[at],
            key: log[at + 1],
            choices: ((meta >> 16) & 0xffff) as usize,
            ample,
            partial: meta & FLAG_PARTIAL != 0,
            children: &log[start..end],
            words: end - at,
        }
    }

    /// The ids of its open children.
    fn open_children(&self) -> impl Iterator<Item = u64> + 'g {
        let children: &'g [u64] = self.children;
        children
            .chunks_exact(2)
            .filter(|pair| pair[0] == TAG_OPEN)
            .map(|pair| pair[1])
    }
}

/// The serial walk over the logged id-graph. It records each code's
/// first witness where the serial explorer does: at the pruned edge,
/// the quiescent-deficit edge or the lasso.
struct Replay<'g> {
    graph: &'g Graph,
    witnesses: Witnesses,
}

impl<'g> Space for Replay<'g> {
    type State<'a> = Record<'g>;
    type Summary = ();

    /// Quiescent states were resolved at their edge or at seed time.
    fn key(&mut self, record: &Record<'g>, _path: &[usize]) -> Option<u64> {
        Some(record.id)
    }

    fn lasso(&mut self, path: &[usize]) {
        self.witnesses.record(LintCode::NonTermination, path);
    }

    fn expand(&mut self, record: &Record<'g>, _path: &[usize]) -> Expansion {
        Expansion {
            choices: record.choices,
            ample: record.ample.clone(),
            // The proviso cannot expand what this round never explored.
            partial: record.partial.then_some(record.key),
        }
    }

    /// A pruned edge records its code, a quiescent one its `SA001` verdict.
    fn child<'b>(
        &mut self,
        parent: &'b Record<'g>,
        choice: usize,
        path: &[usize],
    ) -> Edge<Record<'g>, ()> {
        let i = match &parent.ample {
            Some(ample) if parent.partial => choice - ample.start,
            _ => choice,
        };
        let payload = parent.children[2 * i + 1];
        match parent.children[2 * i] {
            TAG_PRUNED => {
                self.witnesses.record(code_from_tag(payload), path);
                Edge::Pruned(())
            }
            TAG_QUIESCENT => {
                if payload != 0 {
                    self.witnesses.record(LintCode::SessionDeficit, path);
                }
                Edge::Pruned(())
            }
            TAG_OPEN => Edge::Open(self.graph.state(payload), ()),
            other => unreachable!("corrupt edge log: child tag {other}"),
        }
    }
}

/// Replays the serial walk over `graph` from `roots` in order: the record
/// id of each open root, `None` for a quiescent one, which has closed
/// none of the `s` required sessions.
fn replay<'g>(
    graph: &'g Graph,
    roots: &[Option<u64>],
    s: u64,
    max_depth: usize,
) -> Walk<Replay<'g>> {
    let space = Replay {
        graph,
        witnesses: Witnesses::default(),
    };
    // Growing the memo mid-replay would hold the old and new tables at
    // once, which set the exploration's peak memory.
    let mut walk = Walk::new(space, max_depth, graph.records);
    for (index, root) in roots.iter().enumerate() {
        walk.space.witnesses.root = index;
        match root {
            Some(id) => {
                walk.visit(graph.state(*id));
            }
            None if s > 0 => walk.space.witnesses.record(LintCode::SessionDeficit, &[]),
            None => {}
        }
    }
    walk
}

/// The counts [`replay`] reports for a first round, in closed form, or
/// `None` when the round is not clean and the replay must run.
///
/// A round is clean when its logged edges hold no pruned edge and no
/// deficit leaf, no quiescent root is a deficit (`s > 0`), and a Kahn
/// pass over the open edges visits every record, so the graph is
/// acyclic, with every record's longest root path shorter than
/// `max_depth`. In a first round the logged edges are the ones the
/// serial walk takes (the ample range of a state with one, else its
/// whole menu), and on a clean graph that walk meets no lasso, no
/// witness, no cycle proviso and no depth cut. So it expands each record
/// exactly once, at its first visit, and every later visit is a memo hit
/// on a complete entry:
///
/// * `states = memo_misses` = the records;
/// * `memo_hits` = open edges + open roots − records;
/// * `pruned` = Σ (choices − |ample|) over the records with an ample set;
/// * `depth_hits = duplicates = 0`.
fn closed_form(graph: &Graph, roots: &[Option<u64>], s: u64, max_depth: usize) -> Option<Counts> {
    let mut indegree = vec![0u32; graph.records];
    let (mut visits, mut pruned) = (0u64, 0u64);
    for log in &graph.logs {
        let mut at = 0;
        while at < log.len() {
            let record = Record::parse(log, at);
            at += record.words;
            if let Some(ample) = &record.ample {
                pruned += (record.choices - ample.len()) as u64;
            }
            for pair in record.children.chunks_exact(2) {
                match (pair[0], pair[1]) {
                    (TAG_OPEN, child) => {
                        visits += 1;
                        indegree[graph.dense(child)] += 1;
                    }
                    (TAG_QUIESCENT, 0) => {}
                    _ => return None,
                }
            }
        }
    }
    for root in roots {
        match root {
            Some(_) => visits += 1,
            None if s > 0 => return None,
            None => {}
        }
    }
    // Kahn's algorithm, from the records nothing points to (roots);
    // `depth` is the longest path from one, final once a record is ready.
    let mut depth = vec![0u32; graph.records];
    let mut ready: Vec<u64> = Vec::new();
    for (owner, owned) in graph.positions.iter().enumerate() {
        let base = graph.bases[owner];
        ready.extend(
            (0..owned.len())
                .filter(|&seq| indegree[base + seq] == 0)
                .map(|seq| record_id(owner, seq as u64)),
        );
    }
    let mut sorted = 0;
    while let Some(id) = ready.pop() {
        sorted += 1;
        let below = depth[graph.dense(id)];
        if below as usize >= max_depth {
            return None;
        }
        for child in graph.state(id).open_children() {
            let child_index = graph.dense(child);
            depth[child_index] = depth[child_index].max(below + 1);
            indegree[child_index] -= 1;
            if indegree[child_index] == 0 {
                ready.push(child);
            }
        }
    }
    if sorted < graph.records {
        return None; // a cycle: the replay judges its lasso
    }
    let records = graph.records as u64;
    Some(Counts {
        states: records,
        memo_hits: visits - records,
        memo_misses: records,
        depth_hits: 0,
        duplicates: 0,
        pruned,
    })
}

/// The serial-exact results of one round: the closed form's for a clean
/// round, the replay's otherwise. `needs_full` lists the state keys the
/// replay's cycle proviso asked to expand in full.
struct Counted {
    counts: Counts,
    /// Serial memo entries.
    unique_states: u64,
    witnesses: Witnesses,
    needs_full: Vec<u64>,
}

/// Counts one round over `graph`. `first` says no state was flagged for
/// full expansion, which the closed form needs. Debug builds replay a
/// closed-form round too and check that both agree.
fn count(graph: &Graph, roots: &[Option<u64>], s: u64, max_depth: usize, first: bool) -> Counted {
    let closed = first
        .then(|| closed_form(graph, roots, s, max_depth))
        .flatten();
    if let Some(counts) = closed {
        if cfg!(debug_assertions) {
            let walk = replay(graph, roots, s, max_depth);
            assert_eq!(walk.counts, counts, "closed-form counts equal the replay's");
            assert_eq!(walk.memo_len(), graph.records, "one memo entry per record");
            assert!(walk.space.witnesses.found.is_empty() && walk.needs_full.is_empty());
        }
        return Counted {
            counts,
            unique_states: graph.records as u64,
            witnesses: Witnesses::default(),
            needs_full: Vec::new(),
        };
    }
    let walk = replay(graph, roots, s, max_depth);
    Counted {
        counts: walk.counts,
        // The replay memo maps ids one to one onto the serial explorer's
        // keys, so its size matches the serial memo's.
        unique_states: walk.memo_len() as u64,
        needs_full: walk.needs_full,
        witnesses: walk.space.witnesses,
    }
}

/// Everything Phase A hands the orchestrator when the claim walk
/// finished cut-free: the replay's serial-exact counts and witnesses
/// plus activity totals.
struct PartitionRun {
    witnesses: Witnesses,
    counts: Counts,
    unique_states: u64,
    rounds: u64,
    tally: Tally,
    replay_ns: u64,
    workers: Option<Vec<WorkerProfile>>,
}

/// Runs the claim-table exploration: rounds of parallel walk + serial
/// replay, to the POR fixpoint. Returns `None` when a depth cut fired —
/// the caller must fall back to the serial explorer.
#[allow(clippy::too_many_arguments)]
fn explore_partitioned(
    roots: &[AnyMachine],
    n: usize,
    s: u64,
    max_depth: usize,
    opts: ExploreOpts,
    profile: bool,
    progress: Option<&ProgressBoard>,
    epoch: Instant,
) -> Option<PartitionRun> {
    let threads = opts.threads;
    assert!(
        (1..1 << (64 - SEQ_BITS)).contains(&threads),
        "record ids name at most 2^16 - 1 workers and the controller"
    );
    let mut flagged: FxHashSet<u64> = FxHashSet::default();
    let mut rounds = 0u64;
    let mut total = Tally::default();
    let mut replay_ns = 0u64;
    let mut workers: Option<Vec<WorkerProfile>> = None;
    loop {
        rounds += 1;
        let frontier = Frontier::new();
        let mut replay_roots = Vec::with_capacity(roots.len());
        let mut seeds = Vec::new();
        for root in roots {
            if root.is_quiescent() {
                replay_roots.push(None);
                continue;
            }
            let counter = SessionCounter::new(n, s);
            let key = state_key(root, &counter);
            // The controller owns the roots' ids, after the workers'.
            let fresh = record_id(threads, seeds.len() as u64);
            let id = frontier.claim(key, fresh);
            replay_roots.push(Some(id));
            if id == fresh {
                if max_depth == 0 {
                    return None;
                }
                seeds.push(Claimed {
                    machine: root.clone(),
                    counter,
                    depth: 0,
                    key,
                    id,
                });
            }
        }
        let mut won = vec![0; threads];
        won.push(seeds.len() as u64);
        frontier.seed(seeds);
        let outs: Vec<WorkerRoundOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|owner| {
                    let expander = Expander {
                        frontier: &frontier,
                        owner,
                        won: 0,
                        filter: ClaimFilter::new(),
                        flagged: &flagged,
                        s,
                        max_depth,
                        opts,
                        log: Vec::new(),
                        menu: Menu::default(),
                        claims: 0,
                        progress: ProgressBatch::new(progress),
                    };
                    scope.spawn(move || run_worker(expander, profile, epoch, rounds - 1))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("partition worker panicked"))
                .collect()
        });
        if frontier.is_cut() {
            return None;
        }
        let mut expanded = 0u64;
        let mut logs = Vec::with_capacity(outs.len());
        for (owner, out) in outs.into_iter().enumerate() {
            total.add(out.tally);
            expanded += out.tally.expanded;
            logs.push(out.log);
            won[owner] = out.won;
            if let Some(prof) = out.prof {
                let slots = workers
                    .get_or_insert_with(|| (0..threads).map(|_| WorkerProfile::new()).collect());
                slots[owner].absorb(*prof);
            }
        }
        debug_assert_eq!(
            expanded,
            frontier.claimed() as u64,
            "claim table: every claimed state expanded exactly once"
        );
        drop(frontier);
        let graph = Graph::build(logs, &won);
        // wslint: allow(ws001): flight profiler measures real elapsed time by design
        let replay_started = Instant::now();
        let counted = count(&graph, &replay_roots, s, max_depth, flagged.is_empty());
        replay_ns += nanos(replay_started.elapsed());
        let fresh: Vec<u64> = counted
            .needs_full
            .iter()
            .filter(|key| !flagged.contains(*key))
            .copied()
            .collect();
        if !fresh.is_empty() {
            debug_assert!(opts.por, "proviso flags require POR");
            flagged.extend(fresh);
            continue;
        }
        return Some(PartitionRun {
            counts: counted.counts,
            unique_states: counted.unique_states,
            witnesses: counted.witnesses,
            rounds,
            tally: total,
            replay_ns,
            workers,
        });
    }
}

/// The claim-table parallel explorer behind `ExploreOpts { threads > 1 }`
/// — see the module docs for the phase split. Every field of the
/// returned [`Exploration`] (codes, witness roots, witness paths,
/// `states`, `truncated`, `depth_hits`, reduction stats) is
/// bit-identical to [`crate::explore::explore_flight`] at
/// `threads = 1`.
///
/// The flight recorder rides along: when `flight.profile` is set, the
/// per-worker [`ExploreProfile`] is returned alongside the (unchanged)
/// exploration; when `flight.progress` carries a board, workers publish
/// batched progress to it. Neither influences a single exploration
/// decision.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn explore_parallel_flight(
    roots: &[AnyMachine],
    n: usize,
    s: u64,
    max_depth: usize,
    opts: ExploreOpts,
    recorder: &mut dyn Recorder,
    flight: &FlightOpts,
) -> (Exploration, Option<ExploreProfile>) {
    debug_assert!(opts.threads > 1);
    // wslint: allow(ws001): flight profiler measures real elapsed time by design
    let epoch = Instant::now();
    let progress = flight.progress.as_deref();

    let Some(mut run) = explore_partitioned(
        roots,
        n,
        s,
        max_depth,
        opts,
        flight.profile,
        progress,
        epoch,
    ) else {
        // A depth cut fired: the space is truncated at this budget, and
        // the serial `truncated` verdict is visit-order-dependent. Run
        // the serial explorer for exact fidelity (DESIGN.md §13).
        let serial = ExploreOpts { threads: 1, ..opts };
        let (exploration, profile) =
            crate::explore::explore_flight(roots, n, s, max_depth, serial, recorder, flight);
        let profile = profile.map(|mut profile| {
            profile.threads = opts.threads;
            profile.fallback = true;
            profile
        });
        return (exploration, profile);
    };
    let phase_a_ns = nanos(epoch.elapsed()).saturating_sub(run.replay_ns);
    let (violations, phase_b_ns) = run.witnesses.violations(roots, n, s);

    let tally = run.tally;
    if recorder.is_enabled() {
        record_totals(recorder, &run.counts, epoch);
        recorder.counter("explore.duplicate_expansions", run.counts.duplicates);
        recorder.counter("explore.route_send", tally.donated);
        recorder.counter("explore.route_recv", tally.taken);
        recorder.counter("explore.local_msgs", tally.kept);
        recorder.counter("explore.queue_full_spins", tally.empty_polls);
        recorder.counter("explore.rounds", run.rounds);
        recorder.gauge("explore.memo_entries", run.unique_states as f64);
        recorder.gauge("explore.threads", opts.threads as f64);
        let kept_or_donated = tally.kept + tally.donated;
        if kept_or_donated > 0 {
            recorder.gauge(
                "explore.owner_local_ratio",
                tally.kept as f64 / kept_or_donated as f64,
            );
        }
        if let Some(workers) = &run.workers {
            let expand: u64 = workers.iter().map(|w| w.expand_ns).sum();
            let idle: u64 = workers.iter().map(|w| w.idle_ns).sum();
            recorder.counter("explore.expand_ns", expand);
            recorder.counter("explore.idle_ns", idle);
            recorder.gauge("explore.phase_a_ms", phase_a_ns as f64 / 1e6);
            recorder.gauge("explore.replay_ms", run.replay_ns as f64 / 1e6);
            recorder.gauge("explore.phase_b_ms", phase_b_ns as f64 / 1e6);
        }
    }

    let profile = run.workers.take().map(|workers| ExploreProfile {
        target: String::new(),
        n,
        s,
        threads: opts.threads,
        max_depth,
        por: opts.por,
        states: run.counts.states,
        unique_states: run.unique_states,
        duplicate_expansions: run.counts.duplicates,
        route_send: tally.donated,
        route_recv: tally.taken,
        local_msgs: tally.kept,
        queue_full_spins: tally.empty_polls,
        rounds: run.rounds,
        fallback: false,
        wall_ns: nanos(epoch.elapsed()),
        phase_a_ns,
        replay_ns: run.replay_ns,
        phase_b_ns,
        workers,
    });

    let exploration = Exploration::new(run.counts, violations);
    (exploration, profile)
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn edge_log_meta_roundtrips() {
        let logged = 5u64;
        let choices = 9u64;
        let meta = logged | choices << 16 | FLAG_AMPLE | FLAG_PARTIAL;
        assert_eq!(meta & 0xffff, logged);
        assert_eq!((meta >> 16) & 0xffff, choices);
        assert!(meta & FLAG_AMPLE != 0);
        assert!(meta & FLAG_PARTIAL != 0);
        let word = 3u64 | 7u64 << 32;
        assert_eq!((word & 0xffff_ffff, word >> 32), (3, 7));
        for (owner, seq) in [(0, 0), (1, 5), (8, (1 << SEQ_BITS) - 1)] {
            assert_eq!(split_id(record_id(owner, seq as u64)), (owner, seq));
        }
        // A record: id, key, meta, ample word, two tag/payload pairs.
        let id = record_id(1, 4);
        let log = [
            id,
            99,
            2 | 9 << 16 | FLAG_AMPLE | FLAG_PARTIAL,
            word,
            TAG_OPEN,
            7,
            2,
            0,
        ];
        let record = Record::parse(&log, 0);
        assert_eq!((record.id, record.key, record.choices), (id, 99, 9));
        assert_eq!((record.ample.clone(), record.partial), (Some(3..7), true));
        assert_eq!((record.children, record.words), (&log[4..], 8));
        assert_eq!(record.open_children().collect::<Vec<_>>(), [7]);
        for code in [
            LintCode::SessionDeficit,
            LintCode::BBoundViolation,
            LintCode::StaleEvidence,
            LintCode::InadmissibleStep,
            LintCode::NonTermination,
        ] {
            assert_eq!(code_from_tag(code_tag(code)), code);
        }
    }

    #[test]
    fn graph_indexes_records_in_every_log() {
        // Owner 2 (the controller) claimed a root that worker 0 expanded;
        // worker 0 claimed its child, which worker 1 expanded. Each log
        // holds one record: id, key, meta (one open child, or none).
        let (root, child) = (record_id(2, 0), record_id(0, 0));
        let logs = vec![
            vec![root, 11, 1 | 1 << 16, TAG_OPEN, child],
            vec![child, 22, 0],
        ];
        let graph = Graph::build(logs, &[1, 0, 1]);
        assert_eq!(graph.records, 2);
        assert_eq!((graph.dense(child), graph.dense(root)), (0, 1));
        let (parent, leaf) = (graph.state(root), graph.state(child));
        assert_eq!(
            (parent.id, parent.key, parent.choices, parent.children),
            (root, 11, 1, &[TAG_OPEN, child][..])
        );
        assert_eq!(
            (leaf.id, leaf.key, leaf.choices, leaf.words),
            (child, 22, 0, 3)
        );
    }

    /// One round's records for the closed-form tests, written into
    /// `logs` like workers would: record `(owner, seq)` goes to log
    /// `seq % logs`, logged children are `(tag, payload)` pairs with
    /// open-child payloads as `(owner, seq)`, and an ample range makes
    /// the record partial, as in a first round.
    struct Synthetic {
        logs: Vec<Vec<u64>>,
        won: Vec<u64>,
    }

    /// A logged child: open, quiescent (`SA001` deficit or not), or
    /// pruned at a step lint.
    enum Logged {
        Open(usize, u64),
        Quiescent(bool),
        Pruned,
    }

    impl Synthetic {
        fn new(owners: usize, logs: usize) -> Synthetic {
            Synthetic {
                logs: vec![Vec::new(); logs],
                won: vec![0; owners],
            }
        }

        fn record(
            &mut self,
            (owner, seq): (usize, u64),
            choices: usize,
            ample: Option<Range<usize>>,
            children: &[Logged],
        ) -> &mut Synthetic {
            let id = record_id(owner, seq);
            self.won[owner] = self.won[owner].max(seq + 1);
            let count = self.logs.len() as u64;
            let log = &mut self.logs[(seq % count) as usize];
            let mut meta = children.len() as u64 | (choices as u64) << 16;
            if ample.is_some() {
                meta |= FLAG_AMPLE | FLAG_PARTIAL;
            }
            log.extend([id, !id, meta]);
            if let Some(ample) = ample {
                log.push(ample.start as u64 | (ample.end as u64) << 32);
            }
            for child in children {
                log.extend(match *child {
                    Logged::Open(owner, seq) => [TAG_OPEN, record_id(owner, seq)],
                    Logged::Quiescent(deficit) => [TAG_QUIESCENT, u64::from(deficit)],
                    Logged::Pruned => [TAG_PRUNED, code_tag(LintCode::StaleEvidence)],
                });
            }
            self
        }

        fn graph(&self) -> Graph {
            Graph::build(self.logs.clone(), &self.won)
        }
    }

    /// A round that must be replayed: its name, records, roots, whether
    /// it is a first round, and the witness the replay finds.
    type Unclean<'a> = (
        &'a str,
        &'a Synthetic,
        &'a [Option<u64>],
        bool,
        Option<LintCode>,
    );

    /// A DAG over three owners and two logs: roots R0 and R1 (owner 2,
    /// R1 listed twice), a diamond below R0 through an ample record,
    /// a shared child, and quiescent leaves that closed every session.
    fn dag() -> Synthetic {
        use Logged::{Open, Quiescent};
        let mut dag = Synthetic::new(3, 2);
        dag.record((2, 0), 3, Some(0..2), &[Open(0, 0), Open(0, 1)])
            .record((2, 1), 2, None, &[Open(0, 1), Quiescent(false)])
            .record((0, 0), 2, None, &[Open(1, 0), Open(0, 1)])
            .record((0, 1), 4, Some(1..2), &[Open(1, 0)])
            .record((1, 0), 1, None, &[Quiescent(false)]);
        dag
    }

    #[test]
    fn closed_form_counts_equal_the_replays_on_a_dag() {
        let dag = dag();
        let graph = dag.graph();
        let roots = [
            Some(record_id(2, 0)),
            None,
            Some(record_id(2, 1)),
            Some(record_id(2, 1)),
        ];
        let open_roots = [Some(record_id(2, 1)), Some(record_id(2, 0))];
        for s in [0, 3] {
            let roots = if s == 0 { &roots[..] } else { &open_roots[..] };
            let counts = closed_form(&graph, roots, s, 8).expect("a clean round");
            let walk = replay(&graph, roots, s, 8);
            assert_eq!(counts, walk.counts);
            assert!(walk.space.witnesses.found.is_empty());
            assert_eq!(walk.memo_len(), graph.records);
        }
        let counts = closed_form(&graph, &roots, 0, 8).expect("a clean round");
        // Five records; six open edges and three open roots visit.
        assert_eq!((counts.states, counts.memo_hits, counts.pruned), (5, 4, 4));
        // Longest root path: R0 → (0,0) → (0,1) → (1,0) has 3 edges.
        assert!(closed_form(&graph, &roots, 0, 4).is_some());
    }

    /// Each unclean round leaves the counting to the replay, whose
    /// counts and witnesses [`count`] then reports.
    #[test]
    fn an_unclean_round_is_counted_by_the_replay() {
        use Logged::{Open, Pruned, Quiescent};
        let roots = [Some(record_id(2, 0))];
        let mut cycle = Synthetic::new(3, 2);
        cycle.record((2, 0), 1, None, &[Open(0, 0)]).record(
            (0, 0),
            2,
            None,
            &[Open(2, 0), Quiescent(false)],
        );
        let mut pruned = Synthetic::new(3, 1);
        pruned.record((2, 0), 2, None, &[Pruned, Quiescent(false)]);
        let mut deficit = Synthetic::new(3, 1);
        deficit.record((2, 0), 2, None, &[Quiescent(false), Quiescent(true)]);
        let cases: [Unclean<'_>; 5] = [
            (
                "cycle",
                &cycle,
                &roots,
                true,
                Some(LintCode::NonTermination),
            ),
            (
                "pruned edge",
                &pruned,
                &roots,
                true,
                Some(LintCode::StaleEvidence),
            ),
            (
                "deficit leaf",
                &deficit,
                &roots,
                true,
                Some(LintCode::SessionDeficit),
            ),
            (
                "deficit root",
                &dag(),
                &[None, Some(record_id(2, 0))],
                true,
                Some(LintCode::SessionDeficit),
            ),
            ("flagged round", &dag(), &roots, false, None),
        ];
        for (name, synthetic, roots, first, code) in cases {
            let graph = synthetic.graph();
            if first {
                assert!(closed_form(&graph, roots, 3, 8).is_none(), "{name}");
            }
            let counted = count(&graph, roots, 3, 8, first);
            let walk = replay(&graph, roots, 3, 8);
            assert_eq!(counted.counts, walk.counts, "{name}");
            assert_eq!(counted.unique_states, walk.memo_len() as u64, "{name}");
            let found: Vec<LintCode> = counted.witnesses.found.iter().map(|w| w.0).collect();
            assert_eq!(found, Vec::from_iter(code), "{name}");
        }
    }

    /// A record a short path claimed first but a longer one reaches at
    /// the depth budget: the serial walk cuts the long path, so only the
    /// replay counts it right.
    #[test]
    fn a_longest_path_at_the_budget_is_counted_by_the_replay() {
        use Logged::{Open, Quiescent};
        // R → a → b → c and R → c; c was claimed at depth 1.
        let mut deep = Synthetic::new(3, 2);
        deep.record((2, 0), 2, None, &[Open(0, 0), Open(0, 2)])
            .record((0, 0), 1, None, &[Open(0, 1)])
            .record((0, 1), 1, None, &[Open(0, 2)])
            .record((0, 2), 1, None, &[Quiescent(false)]);
        let graph = deep.graph();
        let roots = [Some(record_id(2, 0))];
        assert!(closed_form(&graph, &roots, 3, 4).is_some());
        assert!(closed_form(&graph, &roots, 3, 3).is_none());
        let counted = count(&graph, &roots, 3, 3, true);
        assert_eq!(counted.counts, replay(&graph, &roots, 3, 3).counts);
        // The cut at c leaves no memo entry, so the short path expands
        // c afresh.
        assert_eq!((counted.counts.states, counted.counts.depth_hits), (4, 1));
    }

    #[test]
    fn donation_moves_the_oldest_half_only_into_an_empty_pool() {
        let frontier: Frontier<u32> = Frontier::new();
        let mut stack = vec![1, 2, 3, 4, 5];
        assert_eq!(frontier.donate(&mut stack), 2);
        assert_eq!(stack, [3, 4, 5]);
        assert_eq!(frontier.donate(&mut stack), 0, "pool already holds work");
        let mut other = Vec::new();
        assert_eq!(frontier.take(&mut other), (1, 2), "half, rounded up");
        assert_eq!(other, [1]);
        assert_eq!(frontier.take(&mut other), (1, 1));
        assert_eq!(other, [1, 2]);
        assert_eq!(frontier.take(&mut other), (0, 0));
    }

    #[test]
    fn pending_counts_claimed_states_until_expanded() {
        let frontier: Frontier<u32> = Frontier::new();
        assert_eq!(frontier.claim(7, 1), 1);
        assert_eq!(
            frontier.claim(7, 2),
            1,
            "a later claim gets the winner's id"
        );
        frontier.seed(vec![7]);
        assert!(!frontier.quiescent());
        frontier.settle(3); // the root won three children
        frontier.settle(1);
        frontier.settle(0);
        assert!(!frontier.quiescent(), "one child still pending");
        frontier.settle(0);
        frontier.settle(0);
        assert!(frontier.quiescent());
    }

    /// Four workers run the production [`work`] loop over a synthetic
    /// graph of `u64` keys: a binary tree plus cross edges, so claims
    /// race and most nodes are reached more than once. Asserts that no
    /// node is lost, none is expanded twice, and no worker sees
    /// termination while a claimed node is still unexpanded.
    #[test]
    fn synthetic_claim_walk_loses_nothing_and_terminates() {
        const THREADS: usize = 4;
        const NODES: u64 = 40_000;
        let frontier: Frontier<u64> = Frontier::new();
        assert_eq!(
            frontier.claim(0, record_id(THREADS, 0)),
            record_id(THREADS, 0)
        );
        frontier.seed(vec![0]);
        let expanded = AtomicU64::new(0);
        let seen: Vec<AtomicBool> = (0..NODES).map(|_| AtomicBool::new(false)).collect();
        std::thread::scope(|scope| {
            for owner in 0..THREADS {
                let (frontier, expanded, seen) = (&frontier, &expanded, &seen);
                scope.spawn(move || {
                    let mut won = 0;
                    work(
                        frontier,
                        |key: u64, stack: &mut Vec<u64>| {
                            let twice = seen[key as usize].swap(true, Ordering::Relaxed);
                            assert!(!twice, "node {key} expanded twice");
                            for child in [2 * key + 1, 2 * key + 2, (key * 7 + 3) % NODES] {
                                // Claim a spread image of the id, so the
                                // claims land in every stripe.
                                let spread = child.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                                let fresh = record_id(owner, won);
                                if child < NODES && frontier.claim(spread, fresh) == fresh {
                                    won += 1;
                                    stack.push(child);
                                }
                            }
                            expanded.fetch_add(1, Ordering::Relaxed);
                        },
                        None,
                        Instant::now(),
                        0,
                    );
                    // Termination is final: every claim ever made has
                    // been expanded by the time any worker sees it.
                    assert_eq!(
                        expanded.load(Ordering::Relaxed),
                        frontier.claimed() as u64,
                        "a worker quit with a claimed node unexpanded"
                    );
                });
            }
        });
        assert_eq!(expanded.load(Ordering::Relaxed), NODES, "a node was lost");
        assert!(seen.iter().all(|flag| flag.load(Ordering::Relaxed)));
        assert!(frontier.quiescent());
    }
}

/// Loom models for the claim table, built only under
/// `RUSTFLAGS="--cfg loom"` (the CI `loom-memo` job). Each model is
/// bounded — no spin loops — so loom can enumerate its interleavings.
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use loom::sync::Arc;

    #[test]
    fn overlapping_claims_are_each_won_exactly_once() {
        loom::model(|| {
            let frontier: Arc<Frontier<u64>> = Arc::new(Frontier::new());
            // Small keys share a stripe and `u64::MAX` has the last
            // one; 2 and 3 are claimed by both workers. Each claim
            // offers the claimant's next fresh id and returns the key's
            // `(key, id, won)`.
            let claim_all = |frontier: &Frontier<u64>, owner: usize, keys: &[u64]| {
                let mut won = 0;
                let mut seen = Vec::new();
                for &key in keys {
                    let fresh = record_id(owner, won);
                    let id = frontier.claim(key, fresh);
                    won += u64::from(id == fresh);
                    seen.push((key, id, id == fresh));
                }
                seen
            };
            let peer = {
                let frontier = Arc::clone(&frontier);
                loom::thread::spawn(move || claim_all(&frontier, 1, &[3, u64::MAX, 2]))
            };
            let mut seen = claim_all(&frontier, 0, &[2, 3, 4]);
            seen.extend(peer.join().expect("peer"));
            let mut won: Vec<u64> = seen.iter().filter(|c| c.2).map(|c| c.0).collect();
            won.sort_unstable();
            assert_eq!(
                won,
                vec![2, 3, 4, u64::MAX],
                "each key won by exactly one worker"
            );
            // Every caller of a key sees the id its winner offered.
            for &(key, id, _) in &seen {
                let winner = seen.iter().find(|c| c.0 == key && c.2).expect("won");
                assert_eq!(id, winner.1, "key {key} seen under another id");
            }
            assert_eq!(frontier.claimed(), 4);
        });
    }
}
