//! The tree broadcast network of §3.
//!
//! In a `b`-bounded shared-memory system a value written by one process
//! reaches `n` processes only by relaying. This module builds the paper's
//! tree network: the `n` port variables are the leaves; each internal node
//! is a *relay process* with its own variable; a relay cyclically visits its
//! children's variables and its own, each visit atomically joining the
//! variable's [`Knowledge`] into its local knowledge and writing the merged
//! knowledge back. Announcements therefore flow both up (child var → relay →
//! parent var) and down (parent var → relay → child var), completing a full
//! flood in `O(arity · depth) = O(b · log_b n)` relay steps.

use session_types::VarId;

use crate::lattice::{JoinSemiLattice, Knowledge};
use crate::process::SmProcess;

/// The shape of a tree network over `n` leaves with fan-out
/// `arity = max(2, b - 1)`.
///
/// Node indices double as variable indices: node `i` (for `i < n`, a leaf —
/// i.e. a port) uses variable `x_i`; internal nodes continue upward. Every
/// variable is accessed by exactly two processes — its owner and its
/// parent's relay — so the construction is valid for every `b >= 2`.
///
/// # Examples
///
/// ```
/// use session_smm::TreeSpec;
///
/// let tree = TreeSpec::build(8, 3); // arity max(2, 3-1) = 2
/// assert_eq!(tree.num_leaves(), 8);
/// assert_eq!(tree.depth(), 3);           // 8 -> 4 -> 2 -> 1
/// assert_eq!(tree.num_nodes(), 15);      // full binary tree
/// assert_eq!(tree.num_relays(), 7);
/// ```
#[derive(Clone, Debug)]
pub struct TreeSpec {
    n: usize,
    arity: usize,
    /// `parents[v]` is the parent node of `v`, if any.
    parents: Vec<Option<usize>>,
    /// `children[v]` lists the child nodes of `v` (empty for leaves).
    children: Vec<Vec<usize>>,
    depth: usize,
}

impl TreeSpec {
    /// Builds the tree for `n` leaves in a `b`-bounded system.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `b < 2`.
    pub fn build(n: usize, b: usize) -> TreeSpec {
        assert!(n >= 1, "tree requires >= 1 leaf");
        assert!(b >= 2, "tree requires b >= 2");
        let arity = (b - 1).max(2);
        let mut parents: Vec<Option<usize>> = (0..n).map(|_| None).collect();
        let mut children: Vec<Vec<usize>> = (0..n).map(|_| Vec::new()).collect();
        let mut level: Vec<usize> = (0..n).collect();
        let mut depth = 0;
        while level.len() > 1 {
            depth += 1;
            let mut next_level = Vec::new();
            for chunk in level.chunks(arity) {
                let parent = parents.len();
                parents.push(None);
                children.push(chunk.to_vec());
                for &child in chunk {
                    parents[child] = Some(parent);
                }
                next_level.push(parent);
            }
            level = next_level;
        }
        TreeSpec {
            n,
            arity,
            parents,
            children,
            depth,
        }
    }

    /// The number of leaves `n`.
    pub fn num_leaves(&self) -> usize {
        self.n
    }

    /// The fan-out used, `max(2, b - 1)`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of tree nodes (= number of variables the network needs).
    pub fn num_nodes(&self) -> usize {
        self.parents.len()
    }

    /// The number of internal nodes (= number of relay processes).
    pub fn num_relays(&self) -> usize {
        self.num_nodes() - self.n
    }

    /// The number of edges on the longest leaf-to-root path.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The variable realizing leaf (port) `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn leaf_var(&self, i: usize) -> VarId {
        assert!(i < self.n, "leaf index out of range");
        VarId::new(i)
    }

    /// The parent node of node `v`, if any.
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parents[v]
    }

    /// The children of node `v`.
    pub fn children(&self, v: usize) -> &[usize] {
        &self.children[v]
    }

    /// Builds the relay processes, one per internal node, in internal-node
    /// order (so the caller assigns them the process ids
    /// `first .. first + num_relays()`).
    ///
    /// Each relay cyclically visits its children's variables and then its
    /// own variable.
    pub fn relay_processes(&self) -> Vec<RelayProcess> {
        (self.n..self.num_nodes())
            .map(|v| {
                let mut targets: Vec<VarId> =
                    self.children[v].iter().map(|&c| VarId::new(c)).collect();
                targets.push(VarId::new(v));
                RelayProcess::new(targets)
            })
            .collect()
    }

    /// An upper bound, in *rounds* (computation fragments in which every
    /// process of the network steps at least once), on a full flood: any
    /// announcement present in some leaf variable is joined into every leaf
    /// variable within this many rounds.
    ///
    /// One relay cycle takes `arity + 1` rounds; a flood crosses at most
    /// `depth` levels up and `depth` levels down, with one extra cycle of
    /// slack per level for cursor misalignment.
    pub fn flood_rounds_bound(&self) -> u64 {
        let cycle = (self.arity + 1) as u64;
        2 * cycle * (self.depth as u64 + 1)
    }
}

/// The relay process of an internal tree node.
///
/// Never idles (it is network infrastructure, not a port process); each step
/// joins the visited variable into its local [`Knowledge`] and writes the
/// merged knowledge back — a single atomic read-modify-write, as the model
/// requires.
#[derive(Clone, Debug, Hash)]
pub struct RelayProcess {
    targets: Vec<VarId>,
    cursor: usize,
    knowledge: Knowledge,
}

impl RelayProcess {
    /// Creates a relay cycling over `targets`.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn new(targets: Vec<VarId>) -> RelayProcess {
        assert!(!targets.is_empty(), "relay requires >= 1 target variable");
        RelayProcess {
            targets,
            cursor: 0,
            knowledge: Knowledge::new(),
        }
    }

    /// The relay's accumulated knowledge.
    pub fn knowledge(&self) -> &Knowledge {
        &self.knowledge
    }
}

impl SmProcess<Knowledge> for RelayProcess {
    fn target(&self) -> VarId {
        self.targets[self.cursor]
    }

    fn step(&mut self, value: &Knowledge) -> Knowledge {
        self.knowledge.join(value);
        self.cursor = (self.cursor + 1) % self.targets.len();
        self.knowledge.clone()
    }

    fn is_idle(&self) -> bool {
        false
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SmEngine;
    use session_sim::{FixedPeriods, RunLimits};
    use session_types::{Dur, ProcessId};

    #[test]
    fn single_leaf_tree_is_trivial() {
        let tree = TreeSpec::build(1, 2);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.num_relays(), 0);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.leaf_var(0), VarId::new(0));
        assert!(tree.relay_processes().is_empty());
    }

    #[test]
    fn binary_tree_shape() {
        let tree = TreeSpec::build(4, 2); // arity 2
        assert_eq!(tree.arity(), 2);
        assert_eq!(tree.num_nodes(), 7);
        assert_eq!(tree.num_relays(), 3);
        assert_eq!(tree.depth(), 2);
        // Leaves 0..4, internal 4..7, root 6.
        assert_eq!(tree.children(4), &[0, 1]);
        assert_eq!(tree.children(5), &[2, 3]);
        assert_eq!(tree.children(6), &[4, 5]);
        assert_eq!(tree.parent(6), None);
        assert_eq!(tree.parent(0), Some(4));
    }

    #[test]
    fn higher_arity_reduces_depth() {
        let narrow = TreeSpec::build(27, 2);
        let wide = TreeSpec::build(27, 4); // arity 3
        assert!(wide.depth() < narrow.depth());
        assert_eq!(wide.depth(), 3); // 27 -> 9 -> 3 -> 1
    }

    #[test]
    fn uneven_leaf_counts_still_reach_a_single_root() {
        for n in 1..=40 {
            let tree = TreeSpec::build(n, 2);
            let roots = (0..tree.num_nodes())
                .filter(|&v| tree.parent(v).is_none())
                .count();
            assert_eq!(roots, 1, "n = {n} should have exactly one root");
        }
    }

    #[test]
    fn every_variable_has_at_most_two_accessor_processes() {
        // Structural check: each node's variable is accessed by its owner
        // and (if it has one) its parent's relay only.
        let tree = TreeSpec::build(13, 3);
        for v in 0..tree.num_nodes() {
            let mut accessors = 1; // the owner (port process or relay)
            if tree.parent(v).is_some() {
                accessors += 1; // the parent relay
            }
            assert!(accessors <= 2);
        }
    }

    #[test]
    #[should_panic(expected = "leaf index")]
    fn leaf_var_bounds_checked() {
        let tree = TreeSpec::build(3, 2);
        let _ = tree.leaf_var(3);
    }

    #[test]
    fn relay_cycles_through_targets() {
        let mut relay = RelayProcess::new(vec![VarId::new(0), VarId::new(1), VarId::new(9)]);
        assert_eq!(relay.target(), VarId::new(0));
        let _ = relay.step(&Knowledge::new());
        assert_eq!(relay.target(), VarId::new(1));
        let _ = relay.step(&Knowledge::new());
        assert_eq!(relay.target(), VarId::new(9));
        let _ = relay.step(&Knowledge::new());
        assert_eq!(relay.target(), VarId::new(0));
        assert!(!relay.is_idle());
    }

    #[test]
    fn relay_joins_and_writes_back() {
        let mut relay = RelayProcess::new(vec![VarId::new(0)]);
        let input: Knowledge = [(ProcessId::new(3), 7)].into_iter().collect();
        let written = relay.step(&input);
        assert_eq!(written.get(ProcessId::new(3)), 7);
        assert_eq!(relay.knowledge().get(ProcessId::new(3)), 7);
    }

    /// A leaf process that announces its id once and then keeps reading,
    /// idling when it has heard from everyone.
    #[derive(Debug, Hash)]
    struct Announcer {
        id: ProcessId,
        var: VarId,
        n: usize,
        knowledge: Knowledge,
    }

    impl SmProcess<Knowledge> for Announcer {
        fn target(&self) -> VarId {
            self.var
        }

        fn step(&mut self, value: &Knowledge) -> Knowledge {
            self.knowledge.join(value);
            self.knowledge.announce(self.id, 1);
            self.knowledge.clone()
        }

        fn is_idle(&self) -> bool {
            self.knowledge
                .all_at_least((0..self.n).map(ProcessId::new), 1)
        }

        fn fingerprint(&self) -> u64 {
            session_types::fingerprint_of(self)
        }
    }

    /// End-to-end flood: n leaves announce; everyone hears everyone within
    /// the advertised round bound.
    #[test]
    fn flood_completes_within_bound() {
        for (n, b) in [(2, 2), (5, 2), (8, 3), (16, 5)] {
            let tree = TreeSpec::build(n, b);
            let num_vars = tree.num_nodes();
            let mut processes: Vec<Box<dyn SmProcess<Knowledge>>> = Vec::new();
            for i in 0..n {
                processes.push(Box::new(Announcer {
                    id: ProcessId::new(i),
                    var: tree.leaf_var(i),
                    n,
                    knowledge: Knowledge::new(),
                }));
            }
            for relay in tree.relay_processes() {
                processes.push(Box::new(relay));
            }
            let num_processes = processes.len();
            let mut engine =
                SmEngine::new(vec![Knowledge::new(); num_vars], processes, b, vec![]).unwrap();
            // Watch only the leaves: wrap by giving ports? Simpler: watch
            // defaults to all processes, but relays never idle, so script
            // rounds manually and check leaf idleness.
            let mut sched = FixedPeriods::uniform(num_processes, Dur::from_int(1)).unwrap();
            let bound_rounds = tree.flood_rounds_bound() + 2;
            let limit_steps = bound_rounds * num_processes as u64;
            let outcome = engine
                .run(&mut sched, RunLimits::default().with_max_steps(limit_steps))
                .unwrap();
            // Relays never idle, so the engine reports non-termination;
            // what matters is that every *leaf* went idle within the bound.
            let _ = outcome;
            for i in 0..n {
                assert!(
                    engine.process(ProcessId::new(i)).is_idle(),
                    "leaf {i} of n={n}, b={b} not idle within {bound_rounds} rounds"
                );
            }
        }
    }
}
