//! Golden-file tests for the flight-recorder exporters: the
//! `analyzer-profile/v2` JSON and the per-worker Perfetto trace of a
//! fully hand-specified profile must be byte-stable across runs (and
//! across refactors — regenerate the files deliberately, never
//! silently). Timing fields come from the synthetic profile, not a real
//! exploration, so the bytes are deterministic on every host.
//!
//! Regenerate after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test profile_export_golden
//! ```

use session_analyzer::{ExploreProfile, WorkerProfile};
use session_obs::{TimelineSpan, WorkerTimeline};

/// A fully hand-specified profile: two workers with different time and
/// routing splits, a second fixpoint round, a truncation-free timeline —
/// every serializer branch except timeline overflow.
fn synthetic() -> ExploreProfile {
    let mut timeline = WorkerTimeline::with_capacity(4);
    timeline.push(TimelineSpan {
        name: "work",
        start_ns: 1000,
        end_ns: 51000,
        detail: 0,
    });
    timeline.push(TimelineSpan {
        name: "work",
        start_ns: 60000,
        end_ns: 80000,
        detail: 1,
    });
    let worker0 = WorkerProfile {
        states: 900,
        items: 1100,
        busy_ns: 70000,
        idle_ns: 10000,
        expand_ns: 61000,
        route_send_ns: 6000,
        route_recv_ns: 3000,
        route_send: 500,
        route_recv: 400,
        local_msgs: 700,
        queue_full_spins: 3,
        duplicate_expansions: 0,
        timeline,
        inbox_depth: vec![(1000, 3), (60000, 1)],
    };
    let worker1 = WorkerProfile {
        states: 100,
        items: 420,
        busy_ns: 20000,
        idle_ns: 60000,
        expand_ns: 20000,
        route_send_ns: 0,
        route_recv_ns: 0,
        route_send: 100,
        route_recv: 200,
        local_msgs: 100,
        queue_full_spins: 0,
        duplicate_expansions: 0,
        timeline: WorkerTimeline::with_capacity(4),
        inbox_depth: vec![(2000, 2)],
    };
    ExploreProfile {
        target: "PeriodicMp".to_owned(),
        n: 3,
        s: 3,
        threads: 2,
        max_depth: 27,
        por: false,
        states: 1000,
        unique_states: 1000,
        duplicate_expansions: 0,
        route_send: 600,
        route_recv: 600,
        local_msgs: 800,
        queue_full_spins: 3,
        rounds: 2,
        fallback: false,
        wall_ns: 100000,
        phase_a_ns: 80000,
        replay_ns: 5000,
        phase_b_ns: 15000,
        workers: vec![worker0, worker1],
    }
}

fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from the committed golden file; if the format change \
         is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn profile_json_is_byte_stable() {
    check_golden("analyzer_profile_v2.json", &synthetic().to_json());
}

#[test]
fn profile_perfetto_is_byte_stable() {
    check_golden(
        "analyzer_profile_v2.perfetto.json",
        &synthetic().to_perfetto(),
    );
}

#[test]
fn exports_are_identical_across_runs() {
    let first = (synthetic().to_json(), synthetic().to_perfetto());
    let second = (synthetic().to_json(), synthetic().to_perfetto());
    assert_eq!(first, second);
}
