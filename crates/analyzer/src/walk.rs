//! The one budget-aware depth-first search behind every walker of the
//! checker (DESIGN.md §12): the serial explicit explorer, the parallel
//! explorer's replay over its logged key-graph, the zone walker and the
//! explicit mirror of the `SA012` cross-check.
//!
//! [`Walk`] owns the memo, the lasso check on the path, the depth cut,
//! the counters and the ample / cycle-proviso loop; a walker supplies a
//! [`Space`]. The memo keeps the largest remaining budget a state was
//! expanded with, so only strictly deeper revisits re-expand: depth-
//! limited walks stay polynomial in the number of reachable states.

use std::collections::hash_map::Entry;
use std::ops::Range;

use rustc_hash::{FxHashMap, FxHashSet};

/// Memo budget of a subtree explored with no depth cut below it.
const COMPLETE: usize = usize::MAX;

/// What the memo folds per subtree: `()` for the explicit walks, the
/// worst session close for the zone walk.
pub(crate) trait Summary: Copy + Default {
    /// `self` followed by `later`; keeps `self` on ties.
    fn join(self, later: Self) -> Self;
}

impl Summary for () {
    fn join(self, _later: ()) {}
}

/// One choice's edge out of a state, with the edge's own summary.
pub(crate) enum Edge<T, S> {
    /// No state below: complete.
    Pruned(S),
    Open(T, S),
}

/// How a state's menu expands.
pub(crate) struct Expansion {
    /// Choices on the full menu.
    pub(crate) choices: usize,
    /// Partial-order reduction's ample range: all that is expanded
    /// unless a child in it closes a cycle on the path.
    pub(crate) ample: Option<Range<usize>>,
    /// `Some(id)` when the choices outside `ample` are unavailable: the
    /// proviso then lists `id` in [`Walk::needs_full`] instead.
    pub(crate) partial: Option<u64>,
}

/// A walker's state space.
pub(crate) trait Space {
    /// A state, which may borrow from the state it was reached from.
    type State<'a>;
    type Summary: Summary;

    /// The memo key of `state`, reached along `path`, or `None` for a
    /// leaf: a quiescent state, whose verdict this records.
    fn key(&mut self, state: &Self::State<'_>, path: &[usize]) -> Option<u64>;

    /// Records the lasso `path` closes.
    fn lasso(&mut self, path: &[usize]);

    /// Expands `state`, once per state counted.
    fn expand(&mut self, state: &Self::State<'_>, path: &[usize]) -> Expansion;

    /// The edge at `choice` of the expanded `parent`; `path` ends in it.
    fn child<'b>(
        &mut self,
        parent: &'b Self::State<'_>,
        choice: usize,
        path: &[usize],
    ) -> Edge<Self::State<'b>, Self::Summary>;

    /// The summary a memo hit on `state` reports, from the stored one.
    fn recall(&mut self, _state: &Self::State<'_>, stored: Self::Summary) -> Self::Summary {
        stored
    }

    /// The summary the memo stores for `state`, from its subtree's.
    fn remember(&self, _state: &Self::State<'_>, found: Self::Summary) -> Self::Summary {
        found
    }
}

/// The kernel's counters.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counts {
    /// States expanded.
    pub(crate) states: u64,
    pub(crate) memo_hits: u64,
    pub(crate) memo_misses: u64,
    /// Paths cut at the depth budget, directly or by a cut memo entry.
    pub(crate) depth_hits: u64,
    /// Re-expansions of a state memoized at a smaller budget.
    pub(crate) duplicates: u64,
    /// Choices left out by ample ranges.
    pub(crate) pruned: u64,
}

/// What one visit reports to its parent.
#[derive(Clone, Copy)]
pub(crate) struct Outcome<S> {
    /// Nothing below was cut.
    complete: bool,
    /// The state itself closed a cycle on the path.
    closed_cycle: bool,
    summary: S,
}

impl<S: Summary> Outcome<S> {
    fn done(summary: S) -> Outcome<S> {
        Outcome {
            complete: true,
            closed_cycle: false,
            summary,
        }
    }

    fn cut(summary: S) -> Outcome<S> {
        Outcome {
            complete: false,
            ..Outcome::done(summary)
        }
    }
}

/// The budget-aware memoized DFS over one [`Space`], from any number of
/// roots.
pub(crate) struct Walk<S: Space> {
    pub(crate) space: S,
    pub(crate) counts: Counts,
    /// The [`Expansion::partial`] ids the cycle proviso asked for.
    pub(crate) needs_full: Vec<u64>,
    /// Key → (budget, summary).
    memo: FxHashMap<u64, (usize, S::Summary)>,
    on_path: FxHashSet<u64>,
    path: Vec<usize>,
    max_depth: usize,
}

impl<S: Space> Walk<S> {
    /// A walk cutting paths at `max_depth` events, its memo sized for
    /// `capacity` states.
    pub(crate) fn new(space: S, max_depth: usize, capacity: usize) -> Walk<S> {
        Walk {
            space,
            counts: Counts::default(),
            needs_full: Vec::new(),
            memo: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            on_path: FxHashSet::default(),
            path: Vec::new(),
            max_depth,
        }
    }

    /// Distinct memo keys so far.
    pub(crate) fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Walks everything reachable from `state`.
    pub(crate) fn visit(&mut self, state: S::State<'_>) -> Outcome<S::Summary> {
        let none = S::Summary::default();
        let Some(key) = self.space.key(&state, &self.path) else {
            return Outcome::done(none);
        };
        if self.on_path.contains(&key) {
            self.space.lasso(&self.path);
            return Outcome {
                closed_cycle: true,
                ..Outcome::done(none)
            };
        }
        let remaining = self.max_depth.saturating_sub(self.path.len());
        if let Some(&(budget, stored)) = self.memo.get(&key) {
            if budget >= remaining {
                self.counts.memo_hits += 1;
                let summary = self.space.recall(&state, stored);
                if budget == COMPLETE {
                    return Outcome::done(summary);
                }
                // The stored walk was cut with at least this much budget.
                self.counts.depth_hits += 1;
                return Outcome::cut(summary);
            }
        }
        self.counts.memo_misses += 1;
        if self.path.len() >= self.max_depth {
            self.counts.depth_hits += 1;
            return Outcome::cut(none);
        }
        self.counts.states += 1;
        self.on_path.insert(key);
        let mut below = self.expand(&state);
        // Only the state itself can report closing a cycle to its parent.
        below.closed_cycle = false;
        self.on_path.remove(&key);
        let budget = if below.complete { COMPLETE } else { remaining };
        let stored = self.space.remember(&state, below.summary);
        match self.memo.entry(key) {
            Entry::Occupied(entry) => {
                self.counts.duplicates += 1;
                let (old_budget, old) = entry.into_mut();
                *old_budget = (*old_budget).max(budget);
                *old = old.join(stored);
            }
            Entry::Vacant(entry) => {
                entry.insert((budget, stored));
            }
        }
        below
    }

    /// Takes `state`'s edges: its ample range alone when there is one
    /// and no ample child closes a cycle, the full menu otherwise.
    fn expand(&mut self, state: &S::State<'_>) -> Outcome<S::Summary> {
        let expansion = self.space.expand(state, &self.path);
        let mut acc = Outcome::done(S::Summary::default());
        let Some(ample) = expansion.ample else {
            for choice in 0..expansion.choices {
                self.edge(state, choice, &mut acc);
            }
            return acc;
        };
        for choice in ample.clone() {
            self.edge(state, choice, &mut acc);
        }
        if !acc.closed_cycle {
            self.counts.pruned += (expansion.choices - ample.len()) as u64;
        } else if let Some(id) = expansion.partial {
            self.needs_full.push(id);
        } else {
            for choice in (0..ample.start).chain(ample.end..expansion.choices) {
                self.edge(state, choice, &mut acc);
            }
        }
        acc
    }

    /// Takes the edge at `choice` and folds its outcome into `acc`.
    fn edge(&mut self, state: &S::State<'_>, choice: usize, acc: &mut Outcome<S::Summary>) {
        self.path.push(choice);
        let (outcome, summary) = match self.space.child(state, choice, &self.path) {
            Edge::Pruned(summary) => (Outcome::done(summary), summary),
            Edge::Open(child, summary) => {
                let below = self.visit(child);
                (below, summary.join(below.summary))
            }
        };
        self.path.pop();
        acc.complete &= outcome.complete;
        acc.closed_cycle |= outcome.closed_cycle;
        acc.summary = acc.summary.join(summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph over `u64` ids (and memo keys); a node without successors
    /// is a leaf. `ample` nodes report `0..1`, and with `partial` set, no
    /// rest of the menu.
    #[derive(Default)]
    struct Graph {
        succ: Vec<Vec<u64>>,
        ample: Vec<u64>,
        partial: bool,
        expanded: Vec<u64>,
        lassos: Vec<Vec<usize>>,
    }

    impl Space for Graph {
        type State<'a> = u64;
        type Summary = ();

        fn key(&mut self, node: &u64, _path: &[usize]) -> Option<u64> {
            (!self.succ[*node as usize].is_empty()).then_some(*node)
        }

        fn lasso(&mut self, path: &[usize]) {
            self.lassos.push(path.to_vec());
        }

        fn expand(&mut self, node: &u64, _path: &[usize]) -> Expansion {
            self.expanded.push(*node);
            let ample = self.ample.contains(node);
            Expansion {
                choices: self.succ[*node as usize].len(),
                ample: ample.then_some(0..1),
                partial: (ample && self.partial).then_some(*node),
            }
        }

        fn child(&mut self, node: &u64, choice: usize, _path: &[usize]) -> Edge<u64, ()> {
            Edge::Open(self.succ[*node as usize][choice], ())
        }
    }

    /// Walks the graph `succ` from node 0.
    fn walk(succ: &[&[u64]], max_depth: usize, ample: &[u64], partial: bool) -> Walk<Graph> {
        let graph = Graph {
            succ: succ.iter().map(|s| s.to_vec()).collect(),
            ample: ample.to_vec(),
            partial,
            ..Graph::default()
        };
        let mut walk = Walk::new(graph, max_depth, 0);
        walk.visit(0);
        walk
    }

    #[test]
    fn diamond_revisited_with_more_budget_is_expanded_again_once() {
        // 0→1→2→3 reaches 3 with budget 1, and 4 is cut below it; 0→3
        // then arrives with budget 3 and finishes the job.
        let walk = walk(&[&[1, 3], &[2], &[3], &[4], &[5], &[6], &[]], 4, &[], false);
        assert_eq!(walk.space.expanded, [0, 1, 2, 3, 3, 4, 5]);
        assert_eq!((walk.counts.duplicates, walk.counts.depth_hits), (1, 1));
        assert_eq!(walk.memo[&3].0, COMPLETE, "the deeper revisit completed 3");
        assert_eq!(walk.memo[&1].0, 3, "1 keeps the budget of its cut walk");
    }

    #[test]
    fn memo_hit_on_a_cut_entry_is_a_depth_hit() {
        // 3 is cut below via 1; via 2 it arrives with the same budget, so
        // the memo answers, and the answer is "cut".
        let walk = walk(&[&[1, 2], &[3], &[3], &[4], &[5], &[]], 3, &[], false);
        assert_eq!(walk.space.expanded, [0, 1, 3, 2]);
        assert_eq!((walk.counts.memo_hits, walk.counts.depth_hits), (1, 2));
        assert_eq!(walk.memo[&2].0, 2, "2 inherits the cut");
    }

    #[test]
    fn back_edge_is_a_lasso_that_closes_a_cycle() {
        let mut walk = walk(&[&[1], &[0, 2], &[]], 8, &[], false);
        assert_eq!(walk.space.lassos, [vec![0, 0]]);
        assert_eq!(walk.memo[&0].0, COMPLETE, "a lasso is not a cut");
        walk.on_path.insert(1);
        let outcome = walk.visit(1);
        assert!(outcome.closed_cycle && outcome.complete);
    }

    /// 0's ample child 1 closes no cycle, so 3 is pruned; 1's ample child is
    /// the back edge to 0, so the proviso asks for 2 too.
    const PROVISO: [&[u64]; 5] = [&[1, 3], &[0, 2], &[4], &[4], &[]];

    #[test]
    fn ample_child_closing_a_cycle_expands_the_full_menu() {
        let walk = walk(&PROVISO, 8, &[0, 1], false);
        assert_eq!(walk.space.expanded, [0, 1, 2]);
        assert_eq!(walk.counts.pruned, 1);
        assert!(walk.needs_full.is_empty());
    }

    #[test]
    fn proviso_without_the_rest_of_the_menu_raises_needs_full() {
        let walk = walk(&PROVISO, 8, &[0, 1], true);
        assert_eq!(walk.space.expanded, [0, 1]);
        assert_eq!((walk.counts.pruned, walk.needs_full.clone()), (1, vec![1]));
    }
}
