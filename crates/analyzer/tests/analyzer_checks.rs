//! End-to-end checks of the analyzer's verdicts: every correct algorithm
//! of the paper explores clean at its scope, every naive witness is
//! flagged with the lint code matching its lower-bound violation, and the
//! checker's machines agree with the real engines on random schedules.

use session_analyzer::{target_space, ExploreOpts, FlightOpts, LintCode, Report, TARGET_NAMES};
use session_obs::NullRecorder;

/// The explicit pipeline over the named target at its registry scope.
fn explicit_report(name: &str) -> Report {
    let space = target_space(name).expect("known target");
    space
        .analyze(
            ExploreOpts::default(),
            &mut NullRecorder,
            &FlightOpts::default(),
        )
        .0
}

/// The nine cheap correct targets; `SporadicMp` explores ~170k states and
/// gets its own `#[ignore]`d test below so debug-profile `cargo test`
/// stays fast.
const FAST_CORRECT_TARGETS: [&str; 9] = [
    "SyncSm",
    "PeriodicSm",
    "SemiSyncSm",
    "SporadicSm",
    "AsyncSm",
    "SyncMp",
    "PeriodicMp",
    "SemiSyncMp",
    "AsyncMp",
];

fn assert_clean(name: &str) {
    let report = explicit_report(name);
    assert!(
        report.findings.is_empty(),
        "{name} must be clean, found: {:#?}",
        report
            .findings
            .iter()
            .map(|d| format!("{} {}", d.code, d.message))
            .collect::<Vec<_>>()
    );
    assert!(
        report.targets[0].states > 0,
        "{name} exploration must visit states"
    );
}

/// Every algorithm of the paper explores its complete state space at scope
/// with zero findings.
#[test]
fn correct_algorithms_are_clean() {
    for name in FAST_CORRECT_TARGETS {
        assert_clean(name);
    }
}

/// `A(sp)` over message passing, the largest clean exploration (~170k
/// states). Slow under the debug profile; `scripts/static-analysis.sh`
/// runs it in release with `--include-ignored`.
#[test]
#[ignore = "large exploration; run in release via scripts/static-analysis.sh"]
fn sporadic_mp_is_clean() {
    assert_clean("SporadicMp");
}

fn codes(name: &str) -> Vec<LintCode> {
    let report = explicit_report(name);
    assert!(
        !report.findings.is_empty(),
        "{name} must be flagged, explored {} states clean",
        report.targets[0].states
    );
    for finding in &report.findings {
        assert!(
            !finding.message.contains("self-check failed"),
            "{name} counterexample failed its self-check: {}",
            finding.message
        );
        assert!(
            finding.repro.starts_with("root="),
            "finding must carry a deterministic repro"
        );
        assert!(
            finding.scope.contains("n=") && finding.scope.contains("max_depth="),
            "finding must carry its scope line"
        );
    }
    report.findings.iter().map(|d| d.code).collect()
}

/// The silent periodic witness under-delivers sessions.
#[test]
fn naive_periodic_sm_is_flagged_with_session_deficit() {
    assert!(codes("NaivePeriodicSm").contains(&LintCode::SessionDeficit));
}

/// The halved-block step counter under-delivers sessions.
#[test]
fn naive_semisync_sm_is_flagged_with_session_deficit() {
    assert!(codes("NaiveSemiSyncSm").contains(&LintCode::SessionDeficit));
}

/// The `B = 0` sporadic witness certifies sessions from stale evidence.
/// The exploration is ~1.4M states (the witness forces a wide schedule
/// menu); `scripts/static-analysis.sh` runs it in release with
/// `--include-ignored`, and the `analyze --all` CLI gate covers it too.
#[test]
#[ignore = "large exploration; run in release via scripts/static-analysis.sh"]
fn naive_sporadic_mp_is_flagged_with_stale_evidence() {
    assert!(codes("NaiveSporadicMp").contains(&LintCode::StaleEvidence));
}

/// Counterexamples are rendered as timelines.
#[test]
fn naive_findings_carry_rendered_counterexamples() {
    let report = explicit_report("NaivePeriodicSm");
    let finding = report
        .findings
        .iter()
        .find(|d| d.code == LintCode::SessionDeficit)
        .expect("session deficit finding");
    assert!(
        !finding.counterexample.is_empty(),
        "finding must render a timeline"
    );
}

/// Unknown names are rejected, known names are exactly the thirteen.
#[test]
fn target_registry_is_exact() {
    assert_eq!(TARGET_NAMES.len(), 13);
    assert!(target_space("NoSuchTarget").is_none());
}
