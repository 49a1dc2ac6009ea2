//! Property-based tests for the shared-memory substrate: semilattice laws
//! for [`Knowledge`], flood completeness for the tree network across random
//! shapes, and dynamic `b`-bound enforcement.

use proptest::prelude::*;
use session_sim::{FixedPeriods, RunLimits};
use session_smm::{JoinSemiLattice, Knowledge, SmEngine, SmProcess, TreeSpec};
use session_types::{Dur, ProcessId, VarId};

fn knowledge() -> impl Strategy<Value = Knowledge> {
    proptest::collection::btree_map(0usize..8, 0u64..16, 0..6)
        .prop_map(|m| m.into_iter().map(|(p, v)| (ProcessId::new(p), v)).collect())
}

proptest! {
    #[test]
    fn join_is_idempotent(a in knowledge()) {
        let mut x = a.clone();
        x.join(&a);
        prop_assert_eq!(x, a);
    }

    #[test]
    fn join_is_commutative(a in knowledge(), b in knowledge()) {
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn join_is_associative(a in knowledge(), b in knowledge(), c in knowledge()) {
        let mut left = a.clone();
        left.join(&b);
        left.join(&c);
        let mut bc = b.clone();
        bc.join(&c);
        let mut right = a.clone();
        right.join(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn bottom_is_identity(a in knowledge()) {
        let mut x = a.clone();
        x.join(&Knowledge::bottom());
        prop_assert_eq!(&x, &a);
        let mut y = Knowledge::bottom();
        y.join(&a);
        prop_assert_eq!(y, a);
    }

    #[test]
    fn leq_agrees_with_join(a in knowledge(), b in knowledge()) {
        // x <= y iff join(x, y) == y.
        let mut joined = a.clone();
        joined.join(&b);
        prop_assert_eq!(a.leq(&b), joined == b);
        // join is an upper bound of both arguments.
        prop_assert!(a.leq(&joined));
        prop_assert!(b.leq(&joined));
    }

    #[test]
    fn announce_is_monotone_in_the_order(a in knowledge(), p in 0usize..8, v in 0u64..16) {
        let mut bumped = a.clone();
        bumped.announce(ProcessId::new(p), v);
        prop_assert!(a.leq(&bumped));
        prop_assert!(bumped.get(ProcessId::new(p)) >= v);
    }
}

/// A leaf that announces once and then tracks what it has heard.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every tree shape, a full flood completes within the advertised
    /// round bound: every leaf hears every other leaf.
    #[test]
    fn flood_bound_holds_for_random_shapes(n in 1usize..24, b in 2usize..6) {
        let tree = TreeSpec::build(n, b);
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
        let num = processes.len();
        let mut engine = SmEngine::new(
            vec![Knowledge::new(); tree.num_nodes()],
            processes,
            b,
            vec![],
        )
        .unwrap();
        let mut sched = FixedPeriods::uniform(num, Dur::from_int(1)).unwrap();
        let budget = (tree.flood_rounds_bound() + 2) * num as u64;
        let _ = engine
            .run(&mut sched, RunLimits::default().with_max_steps(budget))
            .unwrap();
        for i in 0..n {
            prop_assert!(
                engine.process(ProcessId::new(i)).is_idle(),
                "leaf {i} of n={n}, b={b} did not hear everyone within {} rounds",
                tree.flood_rounds_bound() + 2,
            );
        }
    }

    /// The dynamic b-bound always fires at exactly the (b+1)-th distinct
    /// accessor, regardless of access order.
    #[test]
    fn b_bound_fires_at_exactly_b_plus_one(
        b in 2usize..6,
        order in proptest::collection::vec(0usize..8, 1..40),
    ) {
        use session_smm::SharedMemory;
        let mut memory = SharedMemory::new(vec![0u32], b);
        let var = VarId::new(0);
        let mut seen = std::collections::BTreeSet::new();
        for &p in &order {
            let process = ProcessId::new(p);
            let would_be_new = !seen.contains(&process);
            let result = memory.access(process, var, |v| *v += 1);
            if would_be_new && seen.len() >= b {
                prop_assert!(result.is_err(), "accessor {} of {} admitted", seen.len() + 1, b);
            } else {
                prop_assert!(result.is_ok());
                seen.insert(process);
            }
        }
    }
}
