//! Zone-graph symbolic timing verifier: pairs the discrete control states
//! of [`AnyMachine`] with a [`Dbm`] over event clocks instead of concrete
//! firing times.
//!
//! The explicit explorer ([`crate::explore`]) enumerates every admissible
//! schedule over the scope's finite gap/delay *menus*; one state per
//! concrete time assignment. The zone walker replaces the menus with their
//! convex hulls — one clock per pending event, constrained to fire within
//! its scheduling window — so all schedules that produce the same event
//! *order* collapse into a single zone-graph node. The discrete semantics
//! stay bit-for-bit the machine's own (`zone_apply` fires through the same
//! body as `apply`, with zero placeholder times), which is what makes the
//! SA012 cross-check meaningful.
//!
//! Clock layout: DBM clock 0 is the constant reference, clock 1 is the
//! global elapsed time `T` (never reset — its upper bound at the closing
//! step *is* the worst-case session-close time), and clocks 2.. track the
//! age of each pending event (one permanent clock per process step,
//! dynamic clocks for in-flight deliveries). Firing event `e` is the
//! standard zone transition: `up` (let time pass), intersect every pending
//! event's deadline invariant, apply `e`'s lower-window guard, then — if
//! the zone is non-empty — apply the discrete step and reset/retire/spawn
//! clocks.
//!
//! Three lints live here:
//! * `SA010` — a gap/delay menu entry whose guard zone is empty under the
//!   model window from [`KnownBounds`]: the branch can never fire in any
//!   admissible execution.
//! * `SA011` — the zone graph's worst-case session-close time, carried as
//!   a symbolic linear expression over `c1,c2,d1,d2` ([`SymExpr`]),
//!   exceeds the paper's Table 1 bound for the target.
//! * `SA012` — the differential cross-check: the zone walker fails to
//!   reach a discrete control state the explicit explorer reaches. The
//!   zone graph explores the convex hull of the menus — a superset of the
//!   explicit schedules, still inside the model window — so it must
//!   *cover* explicit reachability; a gap is a soundness alarm on one of
//!   the engines. (Zone-only controls are legitimate: hull-interior
//!   schedules the finite menu cannot realize.)
//!
//! The walker also re-checks the discrete lints (`SA001`–`SA005`): the
//! session counter, the step rules and lasso detection only consume
//! time-independent step facts, so the naive witnesses trip their codes
//! symbolically too.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rustc_hash::{FxHashSet, FxHasher};
use session_obs::Histogram;
use session_types::{Dur, KnownBounds, Ratio};

use crate::dbm::{Bound, Dbm};
use crate::diag::LintCode;
pub use crate::explore::explicit_control_reach;
use crate::explore::{check_step, session_deficit, AnyMachine, SessionCounter, LASSO};
use crate::machine::ZoneEvent;
use crate::scope::Scope;
use crate::walk::{Edge, Expansion, Space, Summary, Walk};

/// DBM index of the global elapsed-time clock.
const T_CLOCK: usize = 1;
/// DBM index of the first event clock.
const CLOCK_BASE: usize = 2;

/// A symbolic duration: a linear expression over the timing parameters
/// `c1,c2,d1,d2` plus a rational constant. The walker threads these
/// alongside the numeric DBM bounds so `SA011` can report *why* the
/// worst case is what it is (e.g. `3*c2 + d2`), not just its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymExpr {
    k: Ratio,
    c1: Ratio,
    c2: Ratio,
    d1: Ratio,
    d2: Ratio,
}

impl SymExpr {
    /// The zero expression.
    pub const ZERO: SymExpr = SymExpr {
        k: Ratio::ZERO,
        c1: Ratio::ZERO,
        c2: Ratio::ZERO,
        d1: Ratio::ZERO,
        d2: Ratio::ZERO,
    };

    fn constant(v: Dur) -> SymExpr {
        SymExpr {
            k: v.as_ratio(),
            ..SymExpr::ZERO
        }
    }

    fn unit_c2() -> SymExpr {
        SymExpr {
            c2: Ratio::ONE,
            ..SymExpr::ZERO
        }
    }

    fn unit_d2() -> SymExpr {
        SymExpr {
            d2: Ratio::ONE,
            ..SymExpr::ZERO
        }
    }

    fn add(self, other: SymExpr) -> SymExpr {
        SymExpr {
            k: self.k + other.k,
            c1: self.c1 + other.c1,
            c2: self.c2 + other.c2,
            d1: self.d1 + other.d1,
            d2: self.d2 + other.d2,
        }
    }

    fn sub(self, other: SymExpr) -> SymExpr {
        SymExpr {
            k: self.k - other.k,
            c1: self.c1 - other.c1,
            c2: self.c2 - other.c2,
            d1: self.d1 - other.d1,
            d2: self.d2 - other.d2,
        }
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut terms: Vec<String> = Vec::new();
        for (coef, name) in [
            (self.c1, "c1"),
            (self.c2, "c2"),
            (self.d1, "d1"),
            (self.d2, "d2"),
        ] {
            if coef.is_zero() {
                continue;
            }
            if coef == Ratio::ONE {
                terms.push(name.to_string());
            } else {
                terms.push(format!("{coef}*{name}"));
            }
        }
        if !self.k.is_zero() || terms.is_empty() {
            terms.push(format!("{}", self.k));
        }
        f.write_str(&terms.join(" + "))
    }
}

/// One pending event's clock: identity, scheduling window (relative to
/// the instant the event was scheduled) and the symbolic latest schedule
/// instant, from which `SA011`'s expression is accumulated.
#[derive(Clone)]
struct ClockInfo {
    ev: ZoneEvent,
    lo: Dur,
    hi: Dur,
    hi_sym: SymExpr,
    /// The latest possible instant this event was scheduled at (numeric),
    /// under the latest-firing schedule of its causes.
    sched_val: Dur,
    /// The same instant symbolically.
    sched_sym: SymExpr,
}

/// What one zone walk found.
#[derive(Debug)]
pub struct ZoneWalk {
    /// Zone-graph nodes expanded (the symbolic analogue of the explicit
    /// state count).
    pub zone_states: u64,
    /// Whether any path was cut at the depth budget.
    pub truncated: bool,
    /// How many paths were cut at the depth budget.
    pub depth_hits: u64,
    /// Findings, one per code (first message wins), in code order.
    pub findings: Vec<(LintCode, String)>,
    /// The worst-case session-close time over all explored paths:
    /// numeric value and symbolic expression.
    pub worst_close: Option<(Dur, SymExpr)>,
    /// Reachable discrete control-state hashes (for the SA012
    /// cross-check).
    pub controls: FxHashSet<u64>,
    /// Guard-zone constructions (clone + `up` + invariants + emptiness
    /// check — one per attempted event firing): the walker's DBM work.
    pub dbm_closures: u64,
    /// Budget-sufficient memo reuses of a subtree's relative worst-close
    /// offset — the zone analogue of the explicit memo-hit count.
    pub worst_close_memo_hits: u64,
    /// Per-guard-zone construction times in microseconds. Empty unless
    /// the walk ran timed (`zone_walk_timed` with `timed = true`): plain
    /// walks never read the clock.
    pub dbm_close: Histogram,
}

/// What the mirror explicit walk (full menus, no reductions) reaches —
/// the other half of the SA012 cross-check.
#[derive(Debug)]
pub struct ExplicitReach {
    /// Explicit states expanded.
    pub states: u64,
    /// Whether any path was cut at the depth budget.
    pub truncated: bool,
    /// Reachable discrete control-state hashes.
    pub controls: FxHashSet<u64>,
}

fn window_str(lo: Option<Dur>, hi: Option<Dur>) -> String {
    let lo = lo.map_or("0".to_string(), |v| v.to_string());
    match hi {
        Some(hi) => format!("[{lo}, {hi}]"),
        None => format!("[{lo}, inf)"),
    }
}

/// `SA010`: menu entries that can never fire under the model window. An
/// entry `v` is dead when the zone `x = v` intersected with the model's
/// admissible window (`[c1, c2]` for gaps, `[d1, d2]` for delays, from
/// [`KnownBounds`]) is empty — the scope menu promises a branch the
/// timing model never allows.
pub fn dead_branch_findings(scope: &Scope, bounds: &KnownBounds) -> Vec<(LintCode, String)> {
    let mut out = Vec::new();
    let entry_dead = |v: Dur, lo: Option<Dur>, hi: Option<Dur>| -> bool {
        let mut z = Dbm::zeroed(2);
        z.up();
        z.constrain(1, 0, Bound::Le(v));
        z.constrain(0, 1, Bound::Le(-v));
        if let Some(lo) = lo {
            z.constrain(0, 1, Bound::Le(-lo));
        }
        if let Some(hi) = hi {
            z.constrain(1, 0, Bound::Le(hi));
        }
        z.is_empty()
    };
    for &v in &scope.gaps {
        if entry_dead(v, bounds.c1(), bounds.c2()) {
            out.push((
                LintCode::DeadTimingBranch,
                format!(
                    "gap menu entry {v} lies outside the model step window {}: the branch can never fire",
                    window_str(bounds.c1(), bounds.c2())
                ),
            ));
        }
    }
    for &v in &scope.delays {
        if entry_dead(v, bounds.d1(), bounds.d2()) {
            out.push((
                LintCode::DeadTimingBranch,
                format!(
                    "delay menu entry {v} lies outside the model delivery window {}: the branch can never fire",
                    window_str(bounds.d1(), bounds.d2())
                ),
            ));
        }
    }
    out
}

fn gap_hi_sym(hi: Dur, bounds: &KnownBounds) -> SymExpr {
    if bounds.c2() == Some(hi) {
        SymExpr::unit_c2()
    } else {
        SymExpr::constant(hi)
    }
}

fn delay_hi_sym(hi: Dur, bounds: &KnownBounds) -> SymExpr {
    if bounds.d2() == Some(hi) {
        SymExpr::unit_d2()
    } else {
        SymExpr::constant(hi)
    }
}

/// The worst session close below a state, value and expression. The memo
/// stores it *relative* to the state's latest arrival: `T` is never reset
/// and no guard mentions it, so a zone's future depends only on its
/// `T`-projected state (the memo key) and a later revisit's worst close
/// is `arrival + offset`.
type Close = Option<(Dur, SymExpr)>;

impl Summary for Close {
    fn join(self, later: Close) -> Close {
        max_close(self, later)
    }
}

/// A zone-graph node; `t_sym` is its latest arrival as an expression.
struct ZoneNode<'a> {
    machine: AnyMachine,
    counter: Cow<'a, SessionCounter>,
    dbm: Dbm,
    clocks: Vec<ClockInfo>,
    t_sym: SymExpr,
}

impl ZoneNode<'_> {
    /// The latest instant this zone can be reached at.
    fn arrival(&self) -> Dur {
        self.dbm.upper(T_CLOCK).value().unwrap_or(Dur::ZERO)
    }

    /// The memo key: the control state, the counter, and the zone with
    /// `T` projected out.
    fn key(&self) -> u64 {
        let mut h = FxHasher::default();
        self.machine.control_hash().hash(&mut h);
        self.counter.hash(&mut h);
        let clocks = &self.clocks;
        // Canonical clock order: the walker's clock vector is permuted by the
        // order events fired, which is irrelevant to the state itself. Sorting
        // by identity (and hashing the DBM under the same permutation) merges
        // zone states that differ only in that bookkeeping order.
        let mut order: Vec<usize> = (0..clocks.len()).collect();
        order.sort_by_key(|&i| (clock_tag(&clocks[i]), clocks[i].lo, clocks[i].hi));
        for &i in &order {
            let c = &clocks[i];
            clock_tag(c).hash(&mut h);
            c.lo.hash(&mut h);
            c.hi.hash(&mut h);
        }
        // The DBM under the canonical permutation, with the reference clock
        // kept and the ever-growing elapsed-time clock projected out.
        let indices: Vec<usize> = std::iter::once(0)
            .chain(order.iter().map(|&i| i + CLOCK_BASE))
            .collect();
        self.dbm.hash_permuted(&indices, &mut h);
        h.finish()
    }
}

/// The zone graph as a [`Space`].
struct ZoneWalker<'a> {
    scope: &'a Scope,
    bounds: &'a KnownBounds,
    findings: BTreeMap<LintCode, String>,
    worst_close: Close,
    controls: FxHashSet<u64>,
    /// Whether guard-zone constructions are individually timed (only the
    /// recorded `stats` path asks for this; plain walks never read the
    /// clock).
    timed: bool,
    dbm_closures: u64,
    dbm_close: Histogram,
}

/// A clock's identity for the memo key: which event it tracks. The
/// delivery `seq` is an enumeration artifact (it numbers the order sends
/// happened to be explored in), so it is excluded — the clock's identity
/// is which message it ages.
fn clock_tag(c: &ClockInfo) -> (u8, usize, usize, u64) {
    match c.ev {
        ZoneEvent::Step(p) => (0, p, 0, 0),
        ZoneEvent::Deliver {
            to, from, value, ..
        } => (1, to, from, value),
    }
}

impl ZoneWalker<'_> {
    fn finding(&mut self, code: LintCode, message: String) {
        self.findings.entry(code).or_insert(message);
    }

    fn record_close(&mut self, val: Dur, sym: SymExpr) {
        match &self.worst_close {
            Some((best, _)) if *best >= val => {}
            _ => self.worst_close = Some((val, sym)),
        }
    }
}

impl Space for ZoneWalker<'_> {
    type State<'a> = ZoneNode<'a>;
    type Summary = Close;

    fn key(&mut self, node: &ZoneNode<'_>, _path: &[usize]) -> Option<u64> {
        if node.machine.is_quiescent() {
            if let Some(message) = session_deficit(&node.counter, self.scope.s) {
                self.finding(LintCode::SessionDeficit, message);
            }
            return None;
        }
        Some(node.key())
    }

    fn lasso(&mut self, _path: &[usize]) {
        self.finding(LintCode::NonTermination, LASSO.to_string());
    }

    /// One choice per pending event clock.
    fn expand(&mut self, node: &ZoneNode<'_>, _path: &[usize]) -> Expansion {
        self.controls.insert(node.machine.control_hash());
        Expansion {
            choices: node.clocks.len(),
            ample: None,
            partial: None,
        }
    }

    /// Fires the event on clock `ci`, if its guard zone is non-empty:
    /// `up`, intersect all deadline invariants, apply the lower-window
    /// guard, then step the machine and reschedule clocks. The edge's
    /// summary is the session close it makes.
    fn child<'b>(
        &mut self,
        parent: &'b ZoneNode<'_>,
        ci: usize,
        _path: &[usize],
    ) -> Edge<ZoneNode<'b>, Close> {
        let clocks = &parent.clocks;
        let idx = ci + CLOCK_BASE;
        self.dbm_closures += 1;
        // wslint: allow(ws001): DBM-closure profiling measures real elapsed time by design
        let close_started = self.timed.then(Instant::now);
        let mut z = parent.dbm.clone();
        z.up();
        for (j, c) in clocks.iter().enumerate() {
            z.constrain(j + CLOCK_BASE, 0, Bound::Le(c.hi));
        }
        z.constrain(0, idx, Bound::Le(-clocks[ci].lo));
        let empty = z.is_empty();
        if let Some(started) = close_started {
            #[allow(clippy::cast_precision_loss)]
            self.dbm_close
                .record(started.elapsed().as_nanos() as f64 / 1000.0);
        }
        if empty {
            // The order is infeasible under the windows — not a cut, the
            // branch simply does not exist.
            return Edge::Pruned(None);
        }

        // The latest possible firing instant: the DBM's elapsed-time upper
        // bound is exact; the symbolic attribution picks the pending
        // deadline that realizes it (min over `sched + hi`).
        let fire_val = z
            .upper(T_CLOCK)
            .value()
            .expect("pending deadlines bound elapsed time");
        let mut fire_sym = SymExpr::constant(fire_val);
        let mut best: Option<Dur> = None;
        for c in clocks {
            let v = c.sched_val + c.hi;
            if best.is_none_or(|b| v < b) {
                best = Some(v);
                if v == fire_val {
                    fire_sym = c.sched_sym.add(c.hi_sym);
                }
            }
        }

        let mut next = parent.machine.clone();
        let (info, scheduled) = next.zone_apply(clocks[ci].ev);
        let counter = if info.port.is_some() {
            let mut cloned = SessionCounter::clone(&parent.counter);
            cloned.observe(&info);
            Cow::Owned(cloned)
        } else {
            Cow::Borrowed(&*parent.counter)
        };
        let mut close = None;
        if parent.counter.sessions() < self.scope.s && counter.sessions() >= self.scope.s {
            self.record_close(fire_val, fire_sym);
            close = Some((fire_val, fire_sym));
        }
        if let Some((code, message)) = check_step(&info, &next, &counter) {
            self.finding(code, message);
            return Edge::Pruned(close);
        }

        let mut new_clocks = clocks.to_vec();
        z.remove_clock(idx);
        new_clocks.remove(ci);
        for ev in scheduled {
            let (lo, hi, hi_sym) = match ev {
                ZoneEvent::Step(p) => {
                    let (lo, hi) = next.gaps().window(p);
                    (lo, hi, gap_hi_sym(hi, self.bounds))
                }
                ZoneEvent::Deliver { .. } => {
                    let (lo, hi) = next
                        .delay_window()
                        .expect("deliveries only exist on message-passing machines");
                    (lo, hi, delay_hi_sym(hi, self.bounds))
                }
            };
            let di = z.add_clock();
            debug_assert_eq!(di, new_clocks.len() + CLOCK_BASE);
            new_clocks.push(ClockInfo {
                ev,
                lo,
                hi,
                hi_sym,
                sched_val: fire_val,
                sched_sym: fire_sym,
            });
        }
        let child = ZoneNode {
            machine: next,
            counter,
            dbm: z,
            clocks: new_clocks,
            t_sym: fire_sym,
        };
        Edge::Open(child, close)
    }

    /// Rebases the stored relative close on this arrival (the symbolic
    /// attribution is the first visit's — values are exact either way).
    fn recall(&mut self, node: &ZoneNode<'_>, stored: Close) -> Close {
        let close = stored.map(|(dv, dsym)| (node.arrival() + dv, node.t_sym.add(dsym)));
        if let Some((v, sym)) = close {
            self.record_close(v, sym);
        }
        close
    }

    fn remember(&self, node: &ZoneNode<'_>, found: Close) -> Close {
        found.map(|(v, sym)| (v - node.arrival(), sym.sub(node.t_sym)))
    }
}

/// The later of two optional session-close records, by value.
fn max_close(a: Option<(Dur, SymExpr)>, b: Option<(Dur, SymExpr)>) -> Option<(Dur, SymExpr)> {
    match (a, b) {
        (Some((av, asym)), Some((bv, _))) if av >= bv => Some((av, asym)),
        (Some(_), Some(b)) => Some(b),
        (a, None) => a,
        (None, b) => b,
    }
}

/// Walks the zone graph of every root and returns the combined outcome.
/// Roots share the memo, exactly as the explicit explorer shares its memo
/// across first-step and period assignments.
pub fn zone_walk(roots: &[AnyMachine], scope: &Scope, bounds: &KnownBounds) -> ZoneWalk {
    zone_walk_timed(roots, scope, bounds, false)
}

/// [`zone_walk`] with per-guard-zone timing toggled by `timed`: the
/// recorded `stats` path turns it on to fill [`ZoneWalk::dbm_close`];
/// everything else leaves it off and never reads the clock.
pub fn zone_walk_timed(
    roots: &[AnyMachine],
    scope: &Scope,
    bounds: &KnownBounds,
    timed: bool,
) -> ZoneWalk {
    let walker = ZoneWalker {
        scope,
        bounds,
        findings: BTreeMap::new(),
        worst_close: None,
        controls: FxHashSet::default(),
        timed,
        dbm_closures: 0,
        dbm_close: Histogram::new(),
    };
    let mut walk = Walk::new(walker, scope.max_depth, 0);
    for root in roots {
        let windows = root.initial_windows();
        let clocks: Vec<ClockInfo> = windows
            .into_iter()
            .map(|(ev, lo, hi)| ClockInfo {
                ev,
                lo,
                hi,
                // First windows are concrete root choices, not model
                // parameters.
                hi_sym: SymExpr::constant(hi),
                sched_val: Dur::ZERO,
                sched_sym: SymExpr::ZERO,
            })
            .collect();
        walk.visit(ZoneNode {
            machine: root.clone(),
            counter: Cow::Owned(SessionCounter::new(scope.n, scope.s)),
            dbm: Dbm::zeroed(CLOCK_BASE + clocks.len()),
            clocks,
            t_sym: SymExpr::ZERO,
        });
    }
    let (walker, counts) = (walk.space, walk.counts);
    ZoneWalk {
        zone_states: counts.states,
        truncated: counts.depth_hits > 0,
        depth_hits: counts.depth_hits,
        findings: walker.findings.into_iter().collect(),
        worst_close: walker.worst_close,
        controls: walker.controls,
        dbm_closures: walker.dbm_closures,
        worst_close_memo_hits: counts.memo_hits,
        dbm_close: walker.dbm_close,
    }
}

/// The `SA011` detector on its own: a finding exactly when the zone
/// walk's worst-case session-close time exceeds the target's Table 1
/// bound. No bound (the model does not bound close time at this scope) or
/// no worst close (no path closed a session) is no finding.
pub fn bound_finding(
    worst_close: Option<(Dur, SymExpr)>,
    table1: Option<(Dur, String)>,
) -> Option<(LintCode, String)> {
    let ((val, sym), (bound_val, bound_desc)) = (worst_close?, table1?);
    (val > bound_val).then(|| {
        (
            LintCode::SymbolicBoundExceeded,
            format!(
                "worst-case session-close time {sym} = {val} exceeds the Table 1 bound {bound_desc} = {bound_val}"
            ),
        )
    })
}

/// The `SA012` detector on its own: the zone walker explores the convex
/// hull of the menus — a superset of the explicit schedules (so it must
/// reach every explicit control state) but still a subset of the model
/// window, so extra *zone-only* controls are legitimate
/// over-approximation, not a bug. Coverage, not equality: a finding is
/// raised exactly when the explicit explorer reached a control state the
/// zone walker did not.
pub fn coverage_finding(
    zone_controls: &FxHashSet<u64>,
    explicit_controls: &FxHashSet<u64>,
) -> Option<(LintCode, String)> {
    let explicit_only = explicit_controls.difference(zone_controls).count();
    if explicit_only == 0 {
        return None;
    }
    Some((
        LintCode::SymbolicDivergence,
        format!(
            "zone graph fails to cover explicit reachability: {explicit_only} control states reachable by the explicit explorer but not the zone walker ({} explicit vs {} symbolic)",
            explicit_controls.len(),
            zone_controls.len()
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use session_types::TimingModel;

    fn d(v: i128) -> Dur {
        Dur::from_int(v)
    }

    fn scope(model: TimingModel, gaps: Vec<Dur>, delays: Vec<Dur>) -> Scope {
        Scope {
            n: 2,
            s: 2,
            b: 2,
            model,
            gaps,
            delays,
            max_depth: 24,
        }
    }

    #[test]
    fn sym_expr_renders_terms() {
        let e = SymExpr::unit_c2()
            .add(SymExpr::unit_c2())
            .add(SymExpr::unit_d2())
            .add(SymExpr::constant(d(3)));
        assert_eq!(e.to_string(), "2*c2 + d2 + 3");
        assert_eq!(SymExpr::ZERO.to_string(), "0");
        assert_eq!(SymExpr::unit_c2().to_string(), "c2");
    }

    #[test]
    fn sa010_positive_dead_gap_and_delay_entries() {
        // Step window [1, 2] but the menu promises a gap of 5; delivery
        // window [0, 1] but a delay of 4: both branches are dead.
        let bounds = KnownBounds::semi_synchronous(d(1), d(2), d(1)).expect("valid bounds");
        let sc = scope(
            TimingModel::SemiSynchronous,
            vec![d(1), d(5)],
            vec![Dur::ZERO, d(4)],
        );
        let findings = dead_branch_findings(&sc, &bounds);
        assert_eq!(findings.len(), 2);
        assert!(findings
            .iter()
            .all(|(code, _)| *code == LintCode::DeadTimingBranch));
        assert!(findings[0].1.contains("gap menu entry 5"));
        assert!(findings[1].1.contains("delay menu entry 4"));
    }

    #[test]
    fn sa010_negative_in_window_menus_are_alive() {
        let bounds = KnownBounds::semi_synchronous(d(1), d(3), d(1)).expect("valid bounds");
        let sc = scope(
            TimingModel::SemiSynchronous,
            vec![d(1), d(3)],
            vec![Dur::ZERO, d(1)],
        );
        assert!(dead_branch_findings(&sc, &bounds).is_empty());
        // Width-zero windows (c1 = c2) accept exactly the boundary entry.
        let exact = KnownBounds::synchronous(d(2), d(1)).expect("valid bounds");
        let sc = scope(TimingModel::Synchronous, vec![d(2)], vec![d(1)]);
        assert!(dead_branch_findings(&sc, &exact).is_empty());
    }
}
