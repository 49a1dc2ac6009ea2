//! Multi-core exploration: the claim-table explorer behind
//! `ExploreOpts { threads > 1 }`, whose findings *and counters* are
//! bit-identical to the serial DFS in [`crate::explore`].
//!
//! # Two phases and the replay's witnesses (DESIGN.md §13)
//!
//! * **Phase A — parallel claim walk.** Workers share one visited set,
//!   the claim table ([`Frontier`]): a worker expanding a state claims
//!   each open child's [`state_key`], and only the claim's winner keeps
//!   the child, on its own LIFO stack. Each state is therefore expanded
//!   exactly once, by whichever worker reached it first, and machines
//!   cross threads only when a busy worker hands the oldest half of its
//!   stack to a hungry peer through the donation pool. A shared count of
//!   claimed-but-unexpanded states detects termination. Every expansion
//!   appends an annotated successor record to its worker's log.
//! * **Serial replay.** After the join, the serial DFS is re-run over
//!   the *logged key-graph* ([`Replay`]): no machine clones, no step
//!   application, just the DFS kernel of [`crate::walk`] — the one the
//!   serial explorer runs — over the logged records, in the serial visit
//!   order. Every reported number — `states`, `pruned`,
//!   `memo_hits`, `truncated` — is therefore *the serial explorer's
//!   number*, at every thread count, with or without POR.
//!   The replay also records each lint code's first witness (code, root,
//!   path) where the serial explorer does: at the pruned edge, the
//!   quiescent-deficit edge (quiescent roots in root order) or the
//!   lasso. Each witness path is then walked once from its root
//!   ([`crate::replay::replay`]) for its message, session count and
//!   trace, so codes, roots, paths, messages and their order match
//!   `threads = 1` with no second walk of the space.
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
//! first-claim is harmless. Phase A claims states by that key, each
//! record stores it once, and the replay walks and memoizes on it, just
//! as the serial explorer does: Phase A expands exactly the states the
//! serial explorer visits.
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

/// What one round's workers share: the claim table, the donation pool
/// and the termination count. A worker holds at most one of its locks
/// at a time.
struct Frontier<T> {
    /// Every state key claimed this round, striped by its top
    /// [`CLAIM_STRIPE_BITS`] bits.
    claims: Vec<Mutex<FxHashSet<u64>>>,
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
                .map(|_| Mutex::new(FxHashSet::default()))
                .collect(),
            pool: Mutex::new(Vec::new()),
            hungry: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            cut: AtomicBool::new(false),
        }
    }

    /// Claims `key`: `true` for exactly one caller per key and round,
    /// which thereby owns the state and must expand it (or void the
    /// round with [`Frontier::raise_cut`]).
    fn claim(&self, key: u64) -> bool {
        self.claims[(key >> (64 - CLAIM_STRIPE_BITS)) as usize]
            .lock()
            .expect("claim stripe")
            .insert(key)
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
    /// The [`state_key`] — claims, records and the replay walk all run
    /// on it.
    key: u64,
}

/// One worker's expansion side: walks a claimed state's menu, logs its
/// successor record and claims its open children.
struct Expander<'a> {
    frontier: &'a Frontier<Claimed>,
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
    /// Expands one claimed state: walk its menu (ample-only under POR
    /// unless flagged for full expansion), log the annotated successor
    /// record, and push the open children this worker wins.
    fn expand(&mut self, item: Claimed, stack: &mut Vec<Claimed>) {
        if let Some(board) = self.progress.tick(item.depth) {
            board.set_frontier(self.frontier.pending.load(Ordering::Relaxed) as u64);
        }
        let Claimed {
            machine,
            counter,
            depth,
            key,
        } = item;
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
                        self.log.push(TAG_OPEN);
                        self.log.push(child_key);
                        self.claims += 1;
                        if self.frontier.claim(child_key) {
                            if depth + 1 >= self.max_depth {
                                self.frontier.raise_cut();
                            } else {
                                stack.push(Claimed {
                                    machine: next,
                                    counter: next_counter.unwrap_or_else(|| counter.clone()),
                                    depth: depth + 1,
                                    key: child_key,
                                });
                            }
                        }
                    }
                }
            }
            logged += 1;
        }
        self.log[record + 1] = logged | (choices as u64) << 16 | flags;
        self.menu = menu;
    }
}

/// What one worker hands back at the round join.
struct WorkerRoundOut {
    tally: Tally,
    log: Vec<u64>,
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
        prof,
    }
}

// ---------------------------------------------------------------------
// The successor log: each expanded state appends one flat record
//
//   [key, meta, (ample_word)?, tag0, payload0, ...]
//
// key   = the state key the state was claimed by (record id), which the
//         replay also memoizes on
// meta  = logged_children | total_choices << 16 | flags
// flags = FLAG_AMPLE (an ample range follows) | FLAG_PARTIAL (only the
//         ample slice of the menu was explored and logged)
// ample_word = start | end << 32, child tags/payloads in choice order;
// open-child payloads are state keys.
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

/// One round's successor logs, left where the workers wrote them and
/// indexed by state key. Each position packs (log, offset) into a word,
/// so the join never copies a log.
struct Graph {
    logs: Vec<Vec<u64>>,
    index: FxHashMap<u64, u64>,
}

impl Graph {
    fn build(logs: Vec<Vec<u64>>) -> Graph {
        let words: usize = logs.iter().map(Vec::len).sum();
        let mut index = FxHashMap::default();
        index.reserve(words / 8);
        for (id, log) in logs.iter().enumerate() {
            let mut at = 0;
            while at < log.len() {
                let meta = log[at + 1];
                let logged = (meta & 0xffff) as usize;
                let has_ample = meta & FLAG_AMPLE != 0;
                debug_assert!(
                    (at as u64) < 1 << OFFSET_BITS,
                    "log exceeds the index encoding"
                );
                index.insert(log[at], (id as u64) << OFFSET_BITS | at as u64);
                at += 2 + usize::from(has_ample) + 2 * logged;
            }
        }
        Graph { logs, index }
    }

    /// The record of `key`, parsed.
    fn state(&self, key: u64) -> Record<'_> {
        let Some(&at) = self.index.get(&key) else {
            // Every open edge targets an expanded state in a cut-free
            // round; an absent record means the log is corrupt.
            unreachable!("state {key:#x} expanded by no worker");
        };
        let offset = (at & ((1 << OFFSET_BITS) - 1)) as usize;
        let record = &self.logs[(at >> OFFSET_BITS) as usize][offset..];
        let meta = record[1];
        let (ample, children) = if meta & FLAG_AMPLE != 0 {
            let word = record[2];
            let range = (word & 0xffff_ffff) as usize..(word >> 32) as usize;
            (Some(range), &record[3..])
        } else {
            (None, &record[2..])
        };
        Record {
            key,
            choices: ((meta >> 16) & 0xffff) as usize,
            ample,
            partial: meta & FLAG_PARTIAL != 0,
            children,
        }
    }
}

/// A logged state, identified by its state key.
struct Record<'g> {
    key: u64,
    choices: usize,
    ample: Option<Range<usize>>,
    /// Only the ample slice of the menu was logged, from index zero.
    partial: bool,
    /// Tag/payload pairs in choice order, running on to the end of the log.
    children: &'g [u64],
}

/// The serial walk over the logged key-graph. It records each code's
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
        Some(record.key)
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

/// Replays the serial walk over `graph` from `roots` in order: the state
/// key of each open root, `None` for a quiescent one, which has closed
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
    let mut walk = Walk::new(space, max_depth, graph.index.len());
    for (index, root) in roots.iter().enumerate() {
        walk.space.witnesses.root = index;
        match root {
            Some(key) => {
                walk.visit(graph.state(*key));
            }
            None if s > 0 => walk.space.witnesses.record(LintCode::SessionDeficit, &[]),
            None => {}
        }
    }
    walk
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
    debug_assert!(threads >= 1);
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
            replay_roots.push(Some(key));
            if frontier.claim(key) {
                if max_depth == 0 {
                    return None;
                }
                seeds.push(Claimed {
                    machine: root.clone(),
                    counter,
                    depth: 0,
                    key,
                });
            }
        }
        frontier.seed(seeds);
        let outs: Vec<WorkerRoundOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let expander = Expander {
                        frontier: &frontier,
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
        for (id, out) in outs.into_iter().enumerate() {
            total.add(out.tally);
            expanded += out.tally.expanded;
            logs.push(out.log);
            if let Some(prof) = out.prof {
                let slots = workers
                    .get_or_insert_with(|| (0..threads).map(|_| WorkerProfile::new()).collect());
                slots[id].absorb(*prof);
            }
        }
        debug_assert_eq!(
            expanded,
            frontier.claimed() as u64,
            "claim table: every claimed state expanded exactly once"
        );
        drop(frontier);
        let graph = Graph::build(logs);
        // wslint: allow(ws001): flight profiler measures real elapsed time by design
        let replay_started = Instant::now();
        let replay = replay(&graph, &replay_roots, s, max_depth);
        replay_ns += nanos(replay_started.elapsed());
        let fresh: Vec<u64> = replay
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
            counts: replay.counts,
            // Serial memo entries: the replay memo is keyed like the
            // serial explorer's, so its size matches it.
            unique_states: replay.memo_len() as u64,
            witnesses: replay.space.witnesses,
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
        // Two logs, one record each: key, meta (one open child).
        let logs = vec![vec![11, 1 | 1 << 16, TAG_OPEN, 22], vec![22, 0]];
        let graph = Graph::build(logs);
        let (root, child) = (graph.state(11), graph.state(22));
        assert_eq!(
            (root.key, root.choices, root.children),
            (11, 1, &[TAG_OPEN, 22][..])
        );
        assert_eq!((child.key, child.choices, child.children.len()), (22, 0, 0));
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
        assert!(frontier.claim(7));
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
        assert!(frontier.claim(0));
        frontier.seed(vec![0]);
        let expanded = AtomicU64::new(0);
        let seen: Vec<AtomicBool> = (0..NODES).map(|_| AtomicBool::new(false)).collect();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let (frontier, expanded, seen) = (&frontier, &expanded, &seen);
                scope.spawn(move || {
                    work(
                        frontier,
                        |key: u64, stack: &mut Vec<u64>| {
                            let twice = seen[key as usize].swap(true, Ordering::Relaxed);
                            assert!(!twice, "node {key} expanded twice");
                            for child in [2 * key + 1, 2 * key + 2, (key * 7 + 3) % NODES] {
                                // Claim a spread image of the id, so the
                                // claims land in every stripe.
                                let spread = child.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                                if child < NODES && frontier.claim(spread) {
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
            // one; 2 and 3 are claimed by both workers.
            let claim_all = |frontier: &Frontier<u64>, keys: &[u64]| -> Vec<u64> {
                keys.iter()
                    .copied()
                    .filter(|&key| frontier.claim(key))
                    .collect()
            };
            let peer = {
                let frontier = Arc::clone(&frontier);
                loom::thread::spawn(move || claim_all(&frontier, &[3, u64::MAX, 2]))
            };
            let mut won = claim_all(&frontier, &[2, 3, 4]);
            won.extend(peer.join().expect("peer"));
            won.sort_unstable();
            assert_eq!(
                won,
                vec![2, 3, 4, u64::MAX],
                "each key won by exactly one worker"
            );
            assert_eq!(frontier.claimed(), 4);
        });
    }
}
