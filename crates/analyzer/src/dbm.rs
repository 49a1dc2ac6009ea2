//! Difference-bound matrices (DBMs) over [`Dur`] — the constraint
//! representation behind the symbolic timing verifier in [`crate::zones`].
//!
//! A DBM over clocks `x_0 .. x_{k-1}` (with `x_0` the constant reference
//! clock, always 0) stores one [`Bound`] per ordered pair: entry `(i, j)`
//! constrains `x_i - x_j` from above. The represented *zone* is the set of
//! clock valuations satisfying every entry — exactly the convex sets that
//! timed-automata reachability needs, closed under the operations here:
//!
//! * `Dbm::close` — canonicalization by all-pairs shortest paths
//!   (Floyd–Warshall over the `(min, +)` semiring of bounds). Two closed
//!   DBMs describe the same non-empty zone iff they are entry-for-entry
//!   equal, which is what makes [`Hash`]/[`Eq`] on a closed DBM a sound
//!   zone-graph memo key.
//! * [`Dbm::intersect`] — conjunction of two constraint systems.
//! * [`Dbm::up`] / [`Dbm::down`] — the future (delay) and past operators:
//!   let every clock advance / recede uniformly.
//! * [`Dbm::is_empty`] — satisfiability (a negative cycle in the bound
//!   graph).
//! * [`Dbm::reset`] / [`Dbm::add_clock`] / [`Dbm::remove_clock`] — clock
//!   scheduling for dynamic event sets (in-flight messages come and go).
//!
//! Bounds are exact rationals ([`Dur`] wraps `Ratio`), so closure is
//! numerically exact — no widening, no floating-point drift. The paper's
//! timing windows are closed intervals, so the walker only produces weak
//! (`<=`) bounds; strict bounds are supported for completeness and tested.

use std::fmt;

use session_types::Dur;

/// An upper bound on a clock difference `x_i - x_j`: either `< v`, `<= v`,
/// or unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bound {
    /// `x_i - x_j < v` (strict).
    Lt(Dur),
    /// `x_i - x_j <= v` (weak).
    Le(Dur),
    /// No constraint.
    Inf,
}

impl Bound {
    /// The weak zero bound `<= 0`, the diagonal entry of every canonical
    /// DBM.
    pub const ZERO: Bound = Bound::Le(Dur::ZERO);

    /// Whether `self` is at least as tight as `other` (the DBM entry
    /// order: `Lt(v)` is tighter than `Le(v)`, both tighter than any
    /// larger value, everything tighter than `Inf`).
    pub fn tighter_or_equal(self, other: Bound) -> bool {
        match (self, other) {
            (_, Bound::Inf) => true,
            (Bound::Inf, _) => false,
            (Bound::Lt(a), Bound::Lt(b))
            | (Bound::Le(a), Bound::Le(b))
            | (Bound::Lt(a), Bound::Le(b)) => a <= b,
            (Bound::Le(a), Bound::Lt(b)) => a < b,
        }
    }

    /// The tighter of two bounds.
    pub fn min(self, other: Bound) -> Bound {
        if self.tighter_or_equal(other) {
            self
        } else {
            other
        }
    }

    /// The finite value, if any.
    pub fn value(self) -> Option<Dur> {
        match self {
            Bound::Lt(v) | Bound::Le(v) => Some(v),
            Bound::Inf => None,
        }
    }

    /// Whether a cycle through this bound is infeasible: the canonical
    /// emptiness test checks the diagonal against `<= 0`.
    fn negative(self) -> bool {
        match self {
            Bound::Lt(v) => !v.is_positive(),
            Bound::Le(v) => v.is_negative(),
            Bound::Inf => false,
        }
    }
}

/// Bound addition (path concatenation): finite values add, strictness
/// is contagious, infinity absorbs.
impl std::ops::Add for Bound {
    type Output = Bound;

    fn add(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Inf, _) | (_, Bound::Inf) => Bound::Inf,
            (Bound::Le(a), Bound::Le(b)) => Bound::Le(a + b),
            (Bound::Lt(a), Bound::Le(b))
            | (Bound::Le(a), Bound::Lt(b))
            | (Bound::Lt(a), Bound::Lt(b)) => Bound::Lt(a + b),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Lt(v) => write!(f, "< {v}"),
            Bound::Le(v) => write!(f, "<= {v}"),
            Bound::Inf => f.write_str("< inf"),
        }
    }
}

/// A difference-bound matrix over `size` clocks (clock 0 is the constant
/// reference). Kept closed (canonical) by every mutating operation, so
/// equality and hashing are sound zone identity.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Dbm {
    size: usize,
    /// Row-major bounds: `m[i * size + j]` constrains `x_i - x_j`.
    m: Vec<Bound>,
    /// Set when closure finds a negative cycle: the zone is empty and the
    /// matrix contents are no longer meaningful.
    empty: bool,
}

impl Dbm {
    /// The zone where every clock is exactly 0 (the initial state).
    pub fn zeroed(size: usize) -> Dbm {
        assert!(size >= 1, "a DBM always has the reference clock");
        Dbm {
            size,
            m: vec![Bound::ZERO; size * size],
            empty: false,
        }
    }

    /// The unconstrained zone over non-negative clocks.
    pub fn unconstrained(size: usize) -> Dbm {
        assert!(size >= 1, "a DBM always has the reference clock");
        let mut dbm = Dbm {
            size,
            m: vec![Bound::Inf; size * size],
            empty: false,
        };
        for i in 0..size {
            *dbm.at_mut(i, i) = Bound::ZERO;
            // x_0 - x_i <= 0: clocks are non-negative.
            *dbm.at_mut(0, i) = Bound::ZERO;
        }
        dbm
    }

    /// Number of clocks, including the reference clock 0.
    pub fn size(&self) -> usize {
        self.size
    }

    fn at(&self, i: usize, j: usize) -> Bound {
        self.m[i * self.size + j]
    }

    fn at_mut(&mut self, i: usize, j: usize) -> &mut Bound {
        &mut self.m[i * self.size + j]
    }

    /// The bound on `x_i - x_j`. Meaningless once the zone is empty.
    pub fn bound(&self, i: usize, j: usize) -> Bound {
        self.at(i, j)
    }

    /// The upper bound on clock `i` (the entry `x_i - x_0`).
    pub fn upper(&self, i: usize) -> Bound {
        self.at(i, 0)
    }

    /// The lower bound on clock `i`, as a non-negative duration (from the
    /// entry `x_0 - x_i <= -lo`). `None` when the zone is empty.
    pub fn lower(&self, i: usize) -> Option<Dur> {
        self.at(0, i).value().map(|v| -v)
    }

    /// Whether the zone is empty (unsatisfiable constraints).
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Canonicalizes by Floyd–Warshall closure; detects emptiness. Every
    /// public mutating operation calls this, so a `Dbm` is always closed
    /// from the outside.
    fn close(&mut self) {
        if self.empty {
            return;
        }
        let n = self.size;
        for k in 0..n {
            for i in 0..n {
                let ik = self.at(i, k);
                if ik == Bound::Inf {
                    continue;
                }
                for j in 0..n {
                    let through = ik + self.at(k, j);
                    let entry = self.at_mut(i, j);
                    *entry = entry.min(through);
                }
            }
        }
        for i in 0..n {
            if self.at(i, i).negative() {
                self.empty = true;
                return;
            }
            *self.at_mut(i, i) = Bound::ZERO;
        }
    }

    /// Conjoins `x_i - x_j {<,<=} bound` and re-canonicalizes. Uses the
    /// standard incremental closure for a single tightened entry — two
    /// pivot passes (through `i`, then `j`) restore canonical form in
    /// `O(size^2)` instead of the full `O(size^3)` Floyd–Warshall.
    pub fn constrain(&mut self, i: usize, j: usize, bound: Bound) {
        if self.empty {
            return;
        }
        let entry = self.at(i, j);
        if !bound.tighter_or_equal(entry) || bound == entry {
            return;
        }
        // The only cycle the new edge can create is i -> j -> i; on a
        // closed DBM a negative such cycle is the exact emptiness test.
        if (bound + self.at(j, i)).negative() {
            self.empty = true;
            return;
        }
        *self.at_mut(i, j) = bound;
        let n = self.size;
        for k in [i, j] {
            for a in 0..n {
                let ak = self.at(a, k);
                if ak == Bound::Inf {
                    continue;
                }
                for c in 0..n {
                    let through = ak + self.at(k, c);
                    let e = self.at_mut(a, c);
                    *e = e.min(through);
                }
            }
        }
    }

    /// Intersects with `other` (entry-wise minimum, then closure). The
    /// zones must range over the same clock set.
    pub fn intersect(&mut self, other: &Dbm) {
        assert_eq!(self.size, other.size, "zones over different clock sets");
        if other.empty {
            self.empty = true;
        }
        if self.empty {
            return;
        }
        for idx in 0..self.m.len() {
            self.m[idx] = self.m[idx].min(other.m[idx]);
        }
        self.close();
    }

    /// The future (delay) operator: every clock advances by the same
    /// arbitrary non-negative amount. Removes the upper bounds against the
    /// reference clock; differences between clocks are preserved. Stays
    /// canonical without re-closing (standard DBM result).
    pub fn up(&mut self) {
        if self.empty {
            return;
        }
        for i in 1..self.size {
            *self.at_mut(i, 0) = Bound::Inf;
        }
    }

    /// The past operator: every clock recedes uniformly (but not below 0).
    /// Releases the lower bounds against the reference clock, then
    /// re-canonicalizes.
    pub fn down(&mut self) {
        if self.empty {
            return;
        }
        for i in 1..self.size {
            *self.at_mut(0, i) = Bound::ZERO;
        }
        self.close();
    }

    /// Resets clock `i` to 0 (scheduling a fresh event on it). Standard
    /// reset on a closed DBM: copy the reference row/column through the
    /// reset clock.
    pub fn reset(&mut self, i: usize) {
        assert!(i != 0, "cannot reset the reference clock");
        if self.empty {
            return;
        }
        for j in 0..self.size {
            *self.at_mut(i, j) = self.at(0, j);
            *self.at_mut(j, i) = self.at(j, 0);
        }
        *self.at_mut(i, i) = Bound::ZERO;
    }

    /// Appends a new clock, initialized to 0, and returns its index.
    pub fn add_clock(&mut self) -> usize {
        let old = self.size;
        let new = old + 1;
        let mut m = vec![Bound::Inf; new * new];
        for i in 0..old {
            for j in 0..old {
                m[i * new + j] = self.at(i, j);
            }
        }
        self.size = new;
        self.m = m;
        // New clock == reference clock (both "now - now" = 0 offsets
        // relative to the reset instant): copy row/column 0.
        self.reset(old);
        old
    }

    /// Removes clock `i` (projection: on a closed DBM, dropping a row and
    /// column loses no information about the remaining clocks).
    pub fn remove_clock(&mut self, i: usize) {
        assert!(i != 0, "cannot remove the reference clock");
        let old = self.size;
        let new = old - 1;
        let mut m = Vec::with_capacity(new * new);
        for r in (0..old).filter(|&r| r != i) {
            for c in (0..old).filter(|&c| c != i) {
                m.push(self.at(r, c));
            }
        }
        self.size = new;
        self.m = m;
    }

    /// Whether every valuation of `self` also satisfies `other`
    /// (zone inclusion; both canonical, so entry-wise comparison).
    pub fn subset_of(&self, other: &Dbm) -> bool {
        assert_eq!(self.size, other.size, "zones over different clock sets");
        if self.empty {
            return true;
        }
        if other.empty {
            return false;
        }
        (0..self.m.len()).all(|idx| self.m[idx].tighter_or_equal(other.m[idx]))
    }

    /// Whether the concrete valuation (clock `i` has value `vals[i - 1]`,
    /// the reference excluded) lies inside the zone.
    pub fn contains(&self, vals: &[Dur]) -> bool {
        assert_eq!(
            vals.len() + 1,
            self.size,
            "one value per non-reference clock"
        );
        if self.empty {
            return false;
        }
        let value = |i: usize| if i == 0 { Dur::ZERO } else { vals[i - 1] };
        for i in 0..self.size {
            for j in 0..self.size {
                let diff = value(i) - value(j);
                let ok = match self.at(i, j) {
                    Bound::Lt(v) => diff < v,
                    Bound::Le(v) => diff <= v,
                    Bound::Inf => true,
                };
                if !ok {
                    return false;
                }
            }
        }
        true
    }

    /// Hashes only the sub-matrix over the clocks for which `keep` is
    /// true (`keep[0]` must hold — the reference clock is always kept).
    /// The zone-graph memo uses this to exclude the global elapsed-time
    /// clock, whose coordinates grow forever, from state identity.
    pub fn hash_projected<H: std::hash::Hasher>(&self, keep: &[bool], hasher: &mut H) {
        use std::hash::Hash;
        assert_eq!(keep.len(), self.size);
        assert!(keep[0], "the reference clock is always kept");
        self.empty.hash(hasher);
        if self.empty {
            return;
        }
        for i in (0..self.size).filter(|&i| keep[i]) {
            for j in (0..self.size).filter(|&j| keep[j]) {
                self.at(i, j).hash(hasher);
            }
        }
    }

    /// Hashes the sub-matrix over `indices`, in that order — projection
    /// and reordering in one pass. The zone-graph memo uses this to hash
    /// the DBM under a canonical clock permutation (and without the global
    /// elapsed-time clock), so zone states that differ only in the order
    /// events happened to be scheduled collapse to one key.
    pub fn hash_permuted<H: std::hash::Hasher>(&self, indices: &[usize], hasher: &mut H) {
        use std::hash::Hash;
        self.empty.hash(hasher);
        if self.empty {
            return;
        }
        for &i in indices {
            for &j in indices {
                self.at(i, j).hash(hasher);
            }
        }
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.empty {
            return f.write_str("(empty zone)");
        }
        for i in 0..self.size {
            for j in 0..self.size {
                if i == j {
                    continue;
                }
                if let Some(v) = self.at(i, j).value() {
                    let strict = matches!(self.at(i, j), Bound::Lt(_));
                    writeln!(f, "x{i} - x{j} {} {v}", if strict { "<" } else { "<=" })?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(v: i128) -> Dur {
        Dur::from_int(v)
    }

    #[test]
    fn zeroed_contains_only_the_origin() {
        let z = Dbm::zeroed(3);
        assert!(!z.is_empty());
        assert!(z.contains(&[d(0), d(0)]));
        assert!(!z.contains(&[d(1), d(0)]));
    }

    #[test]
    fn up_releases_upper_bounds_but_keeps_differences() {
        let mut z = Dbm::zeroed(3);
        z.up();
        assert!(z.contains(&[d(5), d(5)]), "uniform delay stays inside");
        assert!(!z.contains(&[d(5), d(4)]), "clocks drifted apart");
        assert_eq!(z.upper(1), Bound::Inf);
        assert_eq!(z.lower(1), Some(Dur::ZERO));
    }

    #[test]
    fn constrain_tightens_and_closure_propagates() {
        let mut z = Dbm::zeroed(3);
        z.up();
        // x1 <= 4 and x2 - x1 <= 0 (already) => x2 <= 4 via closure.
        z.constrain(1, 0, Bound::Le(d(4)));
        assert_eq!(z.upper(2), Bound::Le(d(4)));
        assert!(z.contains(&[d(4), d(4)]));
        assert!(!z.contains(&[d(5), d(5)]));
    }

    #[test]
    fn guard_window_constrains_both_sides() {
        let mut z = Dbm::zeroed(2);
        z.up();
        // 2 <= x1 <= 7.
        z.constrain(0, 1, Bound::Le(d(-2)));
        z.constrain(1, 0, Bound::Le(d(7)));
        assert_eq!(z.lower(1), Some(d(2)));
        assert_eq!(z.upper(1), Bound::Le(d(7)));
        assert!(z.contains(&[d(2)]) && z.contains(&[d(7)]));
        assert!(!z.contains(&[d(1)]) && !z.contains(&[d(8)]));
    }

    #[test]
    fn contradictory_constraints_empty_the_zone() {
        let mut z = Dbm::zeroed(2);
        z.up();
        z.constrain(1, 0, Bound::Le(d(3)));
        z.constrain(0, 1, Bound::Le(d(-5))); // x1 >= 5
        assert!(z.is_empty());
    }

    #[test]
    fn strict_against_weak_at_the_same_value_is_empty() {
        let mut z = Dbm::zeroed(2);
        z.up();
        z.constrain(0, 1, Bound::Le(d(-3))); // x1 >= 3
        z.constrain(1, 0, Bound::Lt(d(3))); // x1 < 3
        assert!(z.is_empty());
    }

    #[test]
    fn intersect_is_conjunction() {
        let mut a = Dbm::zeroed(2);
        a.up();
        a.constrain(1, 0, Bound::Le(d(10)));
        let mut b = Dbm::zeroed(2);
        b.up();
        b.constrain(0, 1, Bound::Le(d(-4))); // x1 >= 4
        a.intersect(&b);
        assert_eq!(a.lower(1), Some(d(4)));
        assert_eq!(a.upper(1), Bound::Le(d(10)));
        let mut disjoint = Dbm::zeroed(2);
        disjoint.up();
        disjoint.constrain(1, 0, Bound::Le(d(3)));
        a.intersect(&disjoint);
        assert!(a.is_empty());
    }

    #[test]
    fn down_is_the_past_operator() {
        let mut z = Dbm::zeroed(3);
        z.up();
        z.constrain(0, 1, Bound::Le(d(-6))); // x1 >= 6 (and x2 = x1)
        z.down();
        // Some past valuation had x1 = 0.
        assert!(z.contains(&[d(0), d(0)]));
        assert!(z.contains(&[d(6), d(6)]));
        assert!(!z.contains(&[d(6), d(5)]), "differences survive down()");
    }

    #[test]
    fn reset_pins_one_clock_and_keeps_the_rest() {
        let mut z = Dbm::zeroed(3);
        z.up();
        z.constrain(1, 0, Bound::Le(d(5)));
        z.constrain(0, 1, Bound::Le(d(-5))); // x1 = x2 = 5
        z.reset(2);
        assert!(z.contains(&[d(5), d(0)]));
        assert!(!z.contains(&[d(5), d(5)]));
        assert_eq!(z.upper(2), Bound::ZERO);
        // x1 - x2 is now exactly 5.
        assert_eq!(z.bound(1, 2), Bound::Le(d(5)));
    }

    #[test]
    fn add_and_remove_clock_round_trip() {
        let mut z = Dbm::zeroed(2);
        z.up();
        z.constrain(1, 0, Bound::Le(d(3)));
        let snapshot = z.clone();
        let c = z.add_clock();
        assert_eq!(c, 2);
        assert_eq!(z.size(), 3);
        assert_eq!(z.upper(2), Bound::ZERO, "new clocks start at 0");
        // x1 - x2 inherits x1's current window.
        assert_eq!(z.bound(1, 2), Bound::Le(d(3)));
        z.remove_clock(2);
        assert_eq!(z, snapshot, "projection undoes an untouched add");
    }

    #[test]
    fn subset_and_equality_on_canonical_forms() {
        let mut narrow = Dbm::zeroed(2);
        narrow.up();
        narrow.constrain(1, 0, Bound::Le(d(2)));
        let mut wide = Dbm::zeroed(2);
        wide.up();
        wide.constrain(1, 0, Bound::Le(d(9)));
        assert!(narrow.subset_of(&wide));
        assert!(!wide.subset_of(&narrow));
        let mut same = Dbm::zeroed(2);
        same.up();
        same.constrain(1, 0, Bound::Le(d(9)));
        assert_eq!(wide, same, "closed DBMs are canonical");
    }

    #[test]
    fn projected_hash_ignores_the_skipped_clock() {
        use rustc_hash::FxHasher;
        use std::hash::Hasher;
        let hash = |z: &Dbm, keep: &[bool]| {
            let mut h = FxHasher::default();
            z.hash_projected(keep, &mut h);
            h.finish()
        };
        // Decoupled clocks: in a zeroed-then-up zone the clocks stay equal,
        // so a bound on one would propagate to the others through closure.
        let mut a = Dbm::unconstrained(3);
        a.constrain(0, 1, Bound::Le(Dur::ZERO));
        a.constrain(0, 2, Bound::Le(Dur::ZERO));
        a.constrain(1, 0, Bound::Le(d(4)));
        let mut b = a.clone();
        b.constrain(2, 0, Bound::Le(d(1)));
        // Clock 2 differs; projecting it out makes the zones coincide.
        assert_ne!(hash(&a, &[true, true, true]), hash(&b, &[true, true, true]));
        assert_eq!(
            hash(&a, &[true, true, false]),
            hash(&b, &[true, true, false])
        );
    }

    #[test]
    fn bound_display_and_ordering() {
        assert_eq!(Bound::Le(d(3)).to_string(), "<= 3");
        assert_eq!(Bound::Lt(d(3)).to_string(), "< 3");
        assert_eq!(Bound::Inf.to_string(), "< inf");
        assert!(Bound::Lt(d(3)).tighter_or_equal(Bound::Le(d(3))));
        assert!(!Bound::Le(d(3)).tighter_or_equal(Bound::Lt(d(3))));
        assert_eq!(Bound::Lt(d(1)) + Bound::Le(d(2)), Bound::Lt(d(3)));
        assert_eq!(Bound::Inf.min(Bound::Le(d(1))), Bound::Le(d(1)));
    }
}
