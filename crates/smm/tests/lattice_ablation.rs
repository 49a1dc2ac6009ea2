//! Ablation / failure injection (DESIGN.md §6): *why the knowledge lattice
//! matters*. A relay that overwrites instead of joining loses announcements
//! under adversarial interleavings — the flood property that makes the §3
//! tree network correct genuinely depends on the join.

use session_smm::{JoinSemiLattice, Knowledge, SmEngine, SmProcess, TreeSpec};
use session_types::{ProcessId, Time, VarId};

/// A broken relay: instead of joining the visited variable into its
/// knowledge, it *replaces* its knowledge with whatever it last read
/// (last-writer-wins), and writes that back.
#[derive(Debug, Hash)]
struct OverwritingRelay {
    targets: Vec<VarId>,
    cursor: usize,
    knowledge: Knowledge,
}

impl OverwritingRelay {
    fn new(targets: Vec<VarId>) -> OverwritingRelay {
        OverwritingRelay {
            targets,
            cursor: 0,
            knowledge: Knowledge::new(),
        }
    }
}

impl SmProcess<Knowledge> for OverwritingRelay {
    fn target(&self) -> VarId {
        self.targets[self.cursor]
    }

    fn step(&mut self, value: &Knowledge) -> Knowledge {
        // The ablated behaviour: overwrite instead of join.
        self.knowledge = value.clone();
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

/// Announces once, then watches.
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

fn build_system(n: usize, b: usize, overwriting: bool) -> (SmEngine<Knowledge>, TreeSpec) {
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
    for (node, relay) in tree.relay_processes().into_iter().enumerate() {
        if overwriting {
            // Rebuild the same target cycle, but with overwrite semantics.
            let v = n + node;
            let mut targets: Vec<VarId> = tree.children(v).iter().map(|&c| VarId::new(c)).collect();
            targets.push(VarId::new(v));
            processes.push(Box::new(OverwritingRelay::new(targets)));
        } else {
            processes.push(Box::new(relay));
        }
    }
    let engine = SmEngine::new(
        vec![Knowledge::new(); tree.num_nodes()],
        processes,
        b,
        vec![],
    )
    .unwrap();
    (engine, tree)
}

/// Drive the system with an adversarial interleaving: after the leaves
/// announce, each relay repeatedly reads an *empty* sibling variable last,
/// so an overwriting relay forgets what it learned.
fn adversarial_script(num_processes: usize, rounds: usize) -> Vec<(Time, ProcessId)> {
    let mut script = Vec::new();
    for round in 0..rounds {
        let t = Time::from_int(round as i128 + 1);
        for p in 0..num_processes {
            script.push((t, ProcessId::new(p)));
        }
    }
    script
}

#[test]
fn joining_relays_flood_under_any_interleaving() {
    let (mut engine, tree) = build_system(8, 2, false);
    let num = engine.num_processes();
    let script = adversarial_script(num, (tree.flood_rounds_bound() + 2) as usize);
    engine.run_scripted(&script).unwrap();
    for i in 0..8 {
        assert!(
            engine.process(ProcessId::new(i)).is_idle(),
            "leaf {i} did not hear everyone with joining relays"
        );
    }
}

#[test]
fn overwriting_relays_lose_announcements() {
    // Same topology, same schedule, overwrite semantics: the flood fails —
    // some leaf never hears everyone even with far more rounds than the
    // joining bound.
    let (mut engine, tree) = build_system(8, 2, true);
    let num = engine.num_processes();
    let script = adversarial_script(num, (tree.flood_rounds_bound() * 4 + 8) as usize);
    engine.run_scripted(&script).unwrap();
    let all_heard = (0..8).all(|i| engine.process(ProcessId::new(i)).is_idle());
    assert!(
        !all_heard,
        "overwrite semantics unexpectedly completed the flood — the ablation \
         should demonstrate information loss"
    );
}
