//! Differential harness: the claim-table parallel explorer
//! must be *bit-identical* to the serial one.
//!
//! `reduction_diff.rs` only demands code-set equality across reductions,
//! because a reduction may legitimately find a violation along a
//! different representative interleaving. The thread count is held to a
//! stricter standard: the parallel explorer replays the serial DFS over
//! the claim walk's logged key-graph and records its witnesses during
//! that replay, where the serial explorer records them (see
//! `partition.rs`), so not just the codes but
//! the *witness roots, paths, messages, their order*, the truncation
//! flag, the `states` count and the reduction stats must match the
//! serial run exactly, at every thread count, with POR on or off. In
//! particular `states(threads=N) == states(threads=1)`
//! is the guarantee that killed the donation-era inflation (325k → 346k
//! at 8 threads).

use proptest::prelude::*;
use session_analyzer::explore::{explore_flight, explore_with_opts, Exploration};
use session_analyzer::machine::{GapMode, SmAlgo, SmMachine};
use session_analyzer::{scoped_target_space, target_space, ExploreOpts, FlightOpts, TARGET_NAMES};
use session_obs::{InMemoryRecorder, NullRecorder};
use session_smm::RelayProcess;
use session_types::{Dur, Time, VarId};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Every reduce= setting, serial; the thread sweep is layered on top.
const REDUCTIONS: [(&str, ExploreOpts); 2] = [
    (
        "none",
        ExploreOpts {
            por: false,
            threads: 1,
        },
    ),
    (
        "por",
        ExploreOpts {
            por: true,
            threads: 1,
        },
    ),
];

/// The full identity of every finding, in report order.
fn findings(exploration: &Exploration) -> Vec<(String, usize, Vec<usize>, String)> {
    exploration
        .violations
        .iter()
        .map(|v| {
            (
                v.code.code().to_owned(),
                v.root,
                v.path.clone(),
                v.counterexample.message.clone(),
            )
        })
        .collect()
}

/// Asserts that `parallel` is the same exploration as `serial`, field by
/// field: findings, truncation, and — the parallel explorer's headline
/// invariant — the `states` count and reduction stats.
#[track_caller]
fn assert_identical(serial: &Exploration, parallel: &Exploration, context: &str) {
    assert_eq!(
        findings(parallel),
        findings(serial),
        "{context}: findings diverged"
    );
    assert_eq!(
        parallel.truncated, serial.truncated,
        "{context}: truncation diverged"
    );
    assert_eq!(
        parallel.states, serial.states,
        "{context}: states(threads=N) != states(threads=1)"
    );
    assert_eq!(
        parallel.depth_hits, serial.depth_hits,
        "{context}: depth_hits diverged"
    );
    assert_eq!(
        parallel.stats, serial.stats,
        "{context}: reduction stats diverged"
    );
}

/// Explores `name` at `(n, s, depth)` serially and at every thread count,
/// asserting an identical exploration everywhere.
fn assert_thread_invariant(name: &str, n: usize, s: u64, depth: usize) {
    let space = scoped_target_space(name, n, s).expect("registered target");
    for (label, serial_opts) in REDUCTIONS {
        let serial = explore_with_opts(&space.roots, n, s, depth, serial_opts);
        for threads in THREAD_COUNTS {
            let parallel = explore_with_opts(
                &space.roots,
                n,
                s,
                depth,
                ExploreOpts {
                    threads,
                    ..serial_opts
                },
            );
            assert_identical(
                &serial,
                &parallel,
                &format!("{name} n={n} s={s} depth={depth} reduce={label} threads={threads}"),
            );
        }
    }
}

/// A violating SM target, a violating MP target and a clean target of
/// each substrate, pinned at a scope where every reduction combination
/// still finishes quickly in a debug build.
#[test]
fn representative_targets_are_thread_invariant_at_small_scope() {
    for name in ["SyncSm", "NaivePeriodicSm", "SyncMp", "NaiveSporadicMp"] {
        assert_thread_invariant(name, 2, 2, 10);
    }
}

/// The session-guarantee (`SA001`) and stale-evidence (`SA003`) registry
/// witnesses at their default-ish scopes: thread invariance must hold on
/// the actual finding-bearing spaces, not just tiny slices of them.
#[test]
fn witness_targets_are_thread_invariant() {
    assert_thread_invariant("NaivePeriodicSm", 2, 2, 24);
    assert_thread_invariant("NaiveSemiSyncSm", 2, 2, 20);
    assert_thread_invariant("NaiveSporadicMp", 2, 2, 16);
}

/// The three witness targets at their registry scopes, the spaces the
/// CLI reports on: threads=2 must match serial field for field. The
/// `SA003` witness of NaiveSporadicMp (2, 3) lies under root 1, behind
/// the whole of root 0's space, so a replay that recorded witnesses
/// anywhere but where the serial walk does would show here. Seconds in
/// release; the release run (`cargo test --release --test
/// parallel_diff`) carries it.
#[test]
#[cfg_attr(debug_assertions, ignore = "minutes in debug; runs under --release")]
fn witness_targets_are_thread_invariant_at_registry_scope() {
    for name in ["NaivePeriodicSm", "NaiveSemiSyncSm", "NaiveSporadicMp"] {
        let space = target_space(name).expect("registered target");
        let (n, s, depth) = (space.scope.n, space.scope.s, space.scope.max_depth);
        let serial = explore_with_opts(&space.roots, n, s, depth, ExploreOpts::default());
        let parallel = explore_with_opts(
            &space.roots,
            n,
            s,
            depth,
            ExploreOpts {
                threads: 2,
                ..ExploreOpts::default()
            },
        );
        assert!(!serial.violations.is_empty(), "{name}: a witness target");
        assert_identical(
            &serial,
            &parallel,
            &format!("{name} n={n} s={s} depth={depth} threads=2"),
        );
        if name == "NaiveSporadicMp" {
            assert_eq!((n, s), (2, 3));
            let sa003 = parallel
                .violations
                .iter()
                .find(|v| v.code.code() == "SA003")
                .expect("NaiveSporadicMp claims stale sessions");
            assert_eq!(
                (sa003.root, sa003.path.as_slice()),
                (1, &[0, 1, 0, 0, 0, 0, 2, 2, 3, 0, 0, 4, 4, 2][..])
            );
        }
    }
}

/// A relay hosted as the only "port": relays never idle, so the machine
/// can never quiesce, and its normalized state repeats after one cycle —
/// the admissible lasso `SA005` names. Lassos are the cross-worker case
/// the replay pass exists for (on-path detection is path-dependent), so
/// the witness must survive every thread count bit for bit.
#[test]
fn sa005_lasso_is_thread_invariant() {
    let algos = vec![SmAlgo::Relay(RelayProcess::new(vec![VarId::new(0)]))];
    let roots = [session_analyzer::explore::AnyMachine::Sm(SmMachine::new(
        algos,
        1,
        1,
        1,
        GapMode::PerStep(vec![Dur::from_int(1)]),
        vec![Time::ZERO + Dur::from_int(1)],
    ))];
    for (label, serial_opts) in REDUCTIONS {
        let serial = explore_with_opts(&roots, 1, 1, 12, serial_opts);
        assert!(
            findings(&serial).iter().any(|(code, ..)| code == "SA005"),
            "fixture must produce the lasso"
        );
        for threads in THREAD_COUNTS {
            let parallel = explore_with_opts(
                &roots,
                1,
                1,
                12,
                ExploreOpts {
                    threads,
                    ..serial_opts
                },
            );
            assert_identical(
                &serial,
                &parallel,
                &format!("relay lasso reduce={label} threads={threads}"),
            );
        }
    }
}

/// One deeper exhaustive run (full default depth) on a target whose
/// space is large enough for real work sharing to happen.
#[test]
fn periodic_mp_is_thread_invariant_at_full_depth() {
    let name = "PeriodicMp";
    let space = scoped_target_space(name, 2, 2).expect("registered target");
    let depth = space.scope.max_depth;
    for (label, serial_opts) in REDUCTIONS {
        let serial = explore_with_opts(&space.roots, 2, 2, depth, serial_opts);
        for threads in THREAD_COUNTS {
            let parallel = explore_with_opts(
                &space.roots,
                2,
                2,
                depth,
                ExploreOpts {
                    threads,
                    ..serial_opts
                },
            );
            assert_identical(
                &serial,
                &parallel,
                &format!("PeriodicMp reduce={label} threads={threads}"),
            );
        }
    }
}

/// Exactly-once expansion on the bench headline: the claim table must
/// hand each of the 95,894 serial states to exactly one worker, in one
/// round and with no serial fallback. Debug builds take minutes here; the release
/// run (`cargo test --release --test parallel_diff`) carries it.
#[test]
#[cfg_attr(debug_assertions, ignore = "minutes in debug; runs under --release")]
fn periodic_mp_phase_a_expands_each_state_once() {
    const STATES: u64 = 95_894;
    let space = scoped_target_space("PeriodicMp", 3, 3).expect("registered target");
    let depth = space.scope.max_depth;
    for threads in THREAD_COUNTS {
        let (run, profile) = explore_flight(
            &space.roots,
            3,
            3,
            depth,
            ExploreOpts {
                threads,
                ..ExploreOpts::reduced()
            },
            &mut NullRecorder,
            &FlightOpts::profiled(),
        );
        let profile = profile.expect("a profiled flight yields a profile");
        assert!(!profile.fallback, "threads={threads}: serial fallback");
        assert_eq!(profile.rounds, 1, "threads={threads}: POR re-rounds");
        assert_eq!(run.states, STATES, "threads={threads}: replayed states");
        let expanded: u64 = profile.workers.iter().map(|w| w.states).sum();
        assert_eq!(expanded, STATES, "threads={threads}: Phase A expansions");
    }
}

/// Both explorers emit their memo and partial-order counters once, at
/// the end of the run, and the totals are the same at every thread
/// count: the serial walk's are the ones the parallel replay reproduces.
#[test]
fn recorded_explore_counters_are_thread_invariant() {
    let space = scoped_target_space("PeriodicMp", 2, 2).expect("registered target");
    let counters = |threads| {
        let mut recorder = InMemoryRecorder::new();
        let opts = ExploreOpts { por: true, threads };
        let depth = space.scope.max_depth;
        let (run, _) = explore_flight(
            &space.roots,
            2,
            2,
            depth,
            opts,
            &mut recorder,
            &FlightOpts::default(),
        );
        assert!(
            run.violations.is_empty() && !run.truncated,
            "a clean target"
        );
        let snapshot = recorder.into_snapshot();
        [
            "explore.memo_hits",
            "explore.memo_misses",
            "explore.pruned_choices",
        ]
        .map(|name| snapshot.counter(name))
    };
    let serial = counters(1);
    assert!(serial.iter().all(|&count| count > 0), "{serial:?}");
    assert_eq!(counters(2), serial);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random small scopes over every registered target: the whole
    /// exploration must be identical for threads in {1, 2, 4, 8} under
    /// every reduce= combination — including when the random depth
    /// truncates the space and the parallel path falls back to the
    /// serial explorer.
    #[test]
    fn random_small_scopes_are_thread_invariant(
        target_idx in 0usize..TARGET_NAMES.len(),
        n in 1usize..=3,
        s in 1u64..=3,
        depth in 4usize..=12,
    ) {
        let name = TARGET_NAMES[target_idx];
        let space = scoped_target_space(name, n, s).expect("registered target");
        for (label, serial_opts) in REDUCTIONS {
            let serial = explore_with_opts(&space.roots, n, s, depth, serial_opts);
            let expected = findings(&serial);
            for threads in THREAD_COUNTS {
                let parallel = explore_with_opts(
                    &space.roots,
                    n,
                    s,
                    depth,
                    ExploreOpts { threads, ..serial_opts },
                );
                prop_assert_eq!(
                    findings(&parallel),
                    expected.clone(),
                    "{} at n={} s={} depth={} reduce={} threads={}",
                    name, n, s, depth, label, threads
                );
                prop_assert_eq!(parallel.truncated, serial.truncated);
                prop_assert_eq!(
                    parallel.states,
                    serial.states,
                    "states at n={} s={} depth={} reduce={} threads={}",
                    n, s, depth, label, threads
                );
                prop_assert_eq!(parallel.stats, serial.stats);
            }
        }
    }
}
