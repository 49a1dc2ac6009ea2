//! Differential testing of the checker's machines against the real
//! engines: random admissible schedules of a fixed length are walked
//! through the branch menu, past quiescence, walked again by
//! [`session_analyzer::replay::replay`] — the one walk every finding is
//! reported from — and cross-checked with
//! [`session_analyzer::replay::self_check`]. That requires the re-walk to
//! end quiescent exactly when the first walk did, verifies the rebuilt
//! trace against the timing model with `check_admissible`, recounts its
//! sessions with the reference greedy counter against the walk's
//! incremental count, and (for shared memory) replays the step script
//! through the real `SmEngine` and compares global states. Any drift between the checker's model and the system
//! itself shows up as a reported problem. The message-passing legs take
//! their roots and bounds from the registry's targets.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use session_analyzer::explore::AnyMachine;
use session_analyzer::machine::{sm_system_algos, GapMode, SmAlgo, SmMachine};
use session_analyzer::replay::{replay, self_check};
use session_analyzer::{scoped_target_space, LintCode};
use session_core::algorithms::{SemiSyncSmPort, SyncSmPort};
use session_core::verify::count_sessions;
use session_smm::TreeSpec;
use session_types::{Dur, KnownBounds, PortId, ProcessId, Time, VarId};

const WALKS: u64 = 40;
const MAX_EVENTS: usize = 200;

/// Walks `root` with uniformly random branch choices for `MAX_EVENTS`
/// events, returning the choice path and whether the walk ended
/// quiescent. The walk goes on past quiescence: idle ports keep stepping
/// and relays keep running, and the replay and the engine see those steps
/// too.
fn random_walk(root: &AnyMachine, rng: &mut StdRng) -> (Vec<usize>, bool) {
    let mut machine = root.clone();
    let mut path = Vec::new();
    for _ in 0..MAX_EVENTS {
        let choices = machine.choice_count();
        if choices == 0 {
            break;
        }
        let choice = rng.random_range(0..choices);
        machine.apply(choice, None);
        path.push(choice);
    }
    (path, machine.is_quiescent())
}

/// Walks each root in turn and self-checks every walk. The re-walk's
/// counter for `n` ports never saturates, so a walk that ended quiescent
/// ends in `SA001` short of `u64::MAX` sessions, and the self-check
/// compares its count with the reference count exactly. A walk that never
/// quiesced ends in the lasso, `SA005`; its count is compared with the
/// reference count here.
fn assert_walks_agree(roots: &[AnyMachine], n: usize, bounds: &KnownBounds, label: &str) {
    for seed in 0..WALKS {
        let root = &roots[seed as usize % roots.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let (path, quiescent) = random_walk(root, &mut rng);
        let counterexample = replay(root, n, u64::MAX, &path);
        let code = if quiescent {
            LintCode::SessionDeficit
        } else {
            LintCode::NonTermination
        };
        let mut problems = self_check(root, code, &counterexample, bounds);
        if !quiescent {
            let counted = match root {
                AnyMachine::Sm(_) => count_sessions(&counterexample.trace, n, |_| None),
                AnyMachine::Mp(_) => {
                    count_sessions(&counterexample.trace, n, |p| Some(PortId::new(p.index())))
                }
            };
            if counted != counterexample.sessions {
                problems.push(format!(
                    "reference session counter disagrees: counted {counted}, the walk saw {}",
                    counterexample.sessions
                ));
            }
        }
        assert!(
            problems.is_empty(),
            "{label} seed {seed}: machine and reference disagree: {problems:?}"
        );
    }
}

/// A registered message-passing target at `(n, s)`, over its own roots
/// and timing bounds.
fn assert_target_walks_agree(name: &str, n: usize, s: u64) {
    let space = scoped_target_space(name, n, s).expect("registered target");
    assert_walks_agree(&space.roots, n, &space.bounds, name);
}

/// `A(syn)` over shared memory: every random schedule replays through the
/// real `SmEngine` to the same global state.
#[test]
fn sync_sm_machine_agrees_with_engine_on_random_schedules() {
    let n = 3;
    let ports: Vec<SmAlgo> = (0..n)
        .map(|i| SmAlgo::Sync(SyncSmPort::new(VarId::new(i), 2)))
        .collect();
    let (algos, num_vars) = sm_system_algos(ports, n, 2);
    let k = algos.len();
    let gap = Dur::from_int(1);
    let root = AnyMachine::Sm(SmMachine::new(
        algos,
        num_vars,
        2,
        n,
        GapMode::PerStep(vec![gap]),
        vec![Time::ZERO + gap; k],
    ));
    let bounds =
        KnownBounds::synchronous(Dur::from_int(1), Dur::from_int(2)).expect("valid bounds");
    assert_walks_agree(&[root], n, &bounds, "SyncSm");
}

/// `A(ss)` over shared memory, the algorithm with the richest port state.
#[test]
fn semisync_sm_machine_agrees_with_engine_on_random_schedules() {
    let n = 2;
    let (c1, c2) = (Dur::from_int(1), Dur::from_int(3));
    let comm_rounds = TreeSpec::build(n, 2).flood_rounds_bound();
    let ports: Vec<SmAlgo> = (0..n)
        .map(|i| {
            SmAlgo::SemiSync(
                SemiSyncSmPort::new(ProcessId::new(i), VarId::new(i), 2, n, c1, c2, comm_rounds)
                    .expect("valid semi-synchronous parameters"),
            )
        })
        .collect();
    let (algos, num_vars) = sm_system_algos(ports, n, 2);
    let k = algos.len();
    let root = AnyMachine::Sm(SmMachine::new(
        algos,
        num_vars,
        2,
        n,
        GapMode::PerStep(vec![c1, c2]),
        vec![Time::ZERO + c1; k],
    ));
    let bounds = KnownBounds::semi_synchronous(c1, c2, Dur::from_int(1)).expect("valid bounds");
    assert_walks_agree(&[root], n, &bounds, "SemiSyncSm");
}

/// `A(syn)` over message passing: every random schedule rebuilds an
/// admissible trace whose greedy session count matches the walk's.
#[test]
fn sync_mp_machine_rebuilds_admissible_traces() {
    assert_target_walks_agree("SyncMp", 3, 3);
}

/// `A(p)` over message passing, over every period assignment.
#[test]
fn periodic_mp_machine_rebuilds_admissible_traces() {
    assert_target_walks_agree("PeriodicMp", 3, 3);
}

/// `A(sp)` over message passing.
#[test]
fn sporadic_mp_machine_rebuilds_admissible_traces() {
    assert_target_walks_agree("SporadicMp", 3, 2);
}

/// `A(a)` over message passing.
#[test]
fn async_mp_machine_rebuilds_admissible_traces() {
    assert_target_walks_agree("AsyncMp", 3, 2);
}
