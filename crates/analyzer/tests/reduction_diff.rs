//! Differential harness: the reduction layer must be verdict-preserving.
//!
//! Partial-order reduction prunes interleavings, so it changes *how much*
//! the explorer visits — but it may not change *what it concludes*. For
//! every registered target, with POR on or off and at every thread count,
//! this harness demands the same set of lint codes as the unreduced
//! serial exploration, and the same counterexample
//! feasibility (replay self-check failures surface as extra `SA004`
//! findings, so code-set equality covers them).
//!
//! The heavyweight sporadic targets are `#[ignore]`d here for the same
//! reason as in `analyzer_checks.rs`: they take minutes in debug builds.
//! `scripts/static-analysis.sh` runs them in release with
//! `--include-ignored`.

use proptest::prelude::*;
use session_analyzer::explore::explore_with_opts;
use session_analyzer::{
    scoped_target_space, target_space, ExploreOpts, FlightOpts, Report, TargetSpace, TARGET_NAMES,
};
use session_obs::NullRecorder;

/// Targets cheap enough to explore exhaustively a dozen times in a
/// debug build (everything except the two sporadic MP spaces).
const FAST_TARGETS: [&str; 11] = [
    "SyncSm",
    "PeriodicSm",
    "SemiSyncSm",
    "SporadicSm",
    "AsyncSm",
    "SyncMp",
    "PeriodicMp",
    "SemiSyncMp",
    "AsyncMp",
    "NaivePeriodicSm",
    "NaiveSemiSyncSm",
];

const SLOW_TARGETS: [&str; 2] = ["SporadicMp", "NaiveSporadicMp"];

/// The combinations under test, paired with a label for failure
/// messages: POR serially, then both settings again on the claim-table
/// parallel explorer at 2 and 8 threads — the thread count must preserve
/// verdicts exactly like the reduction itself, with or without it.
fn combos() -> Vec<(String, ExploreOpts)> {
    const REDUCTIONS: [(&str, bool); 2] = [("none", false), ("por", true)];
    let mut combos = vec![("por".to_owned(), ExploreOpts::reduced())];
    for threads in [2, 8] {
        for (label, por) in REDUCTIONS {
            combos.push((
                format!("{label}@threads={threads}"),
                ExploreOpts { por, threads },
            ));
        }
    }
    combos
}

/// The explicit pipeline over `space` under `opts`.
fn analyze(space: &TargetSpace, opts: ExploreOpts) -> Report {
    space
        .analyze(opts, &mut NullRecorder, &FlightOpts::default())
        .0
}

/// The verdict as a sorted multiset-collapsed list of `(target, code)`
/// pairs. Reductions may discover a violation along a different
/// representative interleaving, so paths and messages are not compared —
/// only which rules fired where.
fn verdict(report: &Report) -> Vec<(String, String)> {
    let mut codes: Vec<(String, String)> = report
        .findings
        .iter()
        .map(|d| (d.target.clone(), d.code.code().to_owned()))
        .collect();
    codes.sort();
    codes.dedup();
    codes
}

/// Asserts every combination matches the unreduced verdict on
/// `name`, and returns `(full states, reduced states)` for ratio checks.
fn assert_equivalent(name: &str) -> (u64, u64) {
    let space = target_space(name).unwrap_or_else(|| panic!("{name} is registered"));
    let baseline = analyze(&space, ExploreOpts::default());
    let expected = verdict(&baseline);
    assert!(
        !baseline
            .findings
            .iter()
            .any(|d| d.message.contains("self-check failed")),
        "{name}: unreduced counterexample failed its feasibility self-check"
    );
    let mut reduced_states = baseline.targets[0].states;
    for (label, opts) in combos() {
        let report = analyze(&space, opts);
        assert_eq!(
            verdict(&report),
            expected,
            "{name}: verdict changed under {label}"
        );
        assert!(
            !report
                .findings
                .iter()
                .any(|d| d.message.contains("self-check failed")),
            "{name}: counterexample under {label} failed its feasibility self-check"
        );
        if opts == ExploreOpts::reduced() {
            reduced_states = report.targets[0].states;
        }
    }
    (baseline.targets[0].states, reduced_states)
}

#[test]
fn fast_targets_keep_their_verdicts_under_every_reduction() {
    for name in FAST_TARGETS {
        assert_equivalent(name);
    }
}

#[test]
#[ignore = "minutes in debug; run in release via scripts/static-analysis.sh"]
fn slow_targets_keep_their_verdicts_under_every_reduction() {
    for name in SLOW_TARGETS {
        assert_equivalent(name);
    }
}

/// The headline scaling claim: on the paper's periodic message-passing
/// algorithm at n = 3, s = 3 partial-order reduction visits at least 3x fewer
/// states (measured: 325 431 -> 97 123, a 3.35x cut) while reporting the
/// same verdict. `PeriodicMp` is the cheapest (3, 3) paper space that is
/// both debug-tractable and large enough for the ample sets to bite; the
/// synchronous spaces at that scope are nearly deterministic, so there is
/// little left to prune.
#[test]
fn reductions_prune_at_least_3x_on_a_paper_target_at_n3_s3() {
    let name = "PeriodicMp";
    let space = scoped_target_space(name, 3, 3).expect("paper target is registered");
    let full = analyze(&space, ExploreOpts::default());
    let reduced = analyze(&space, ExploreOpts::reduced());
    assert_eq!(
        verdict(&full),
        verdict(&reduced),
        "{name} at n=3 s=3: verdict changed under reduction"
    );
    let (full_states, reduced_states) = (full.targets[0].states, reduced.targets[0].states);
    assert!(
        reduced_states > 0 && full_states >= 3 * reduced_states,
        "{name} at n=3 s=3: wanted >=3x fewer states, got {full_states} -> {reduced_states}"
    );
    assert!(
        reduced.targets[0].pruned > 0 || reduced.targets[0].memo_hits > 0,
        "{name} at n=3 s=3: reduction_stats recorded no work"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random small scopes: rebuild a registered target at (n, s), clamp
    /// the depth budget, and demand the reduced exploration reports the
    /// same lint codes as the unreduced one — including under truncation,
    /// where both sides cut schedules at the same depth.
    #[test]
    fn random_small_scopes_keep_their_verdicts(
        target_idx in 0usize..TARGET_NAMES.len(),
        n in 1usize..=3,
        s in 1u64..=3,
        depth in 4usize..=12,
    ) {
        let name = TARGET_NAMES[target_idx];
        let space = scoped_target_space(name, n, s).expect("registered target");
        let full = explore_with_opts(&space.roots, n, s, depth, ExploreOpts::default());
        for (label, opts) in combos() {
            let reduced = explore_with_opts(&space.roots, n, s, depth, opts);
            let mut full_codes: Vec<&str> =
                full.violations.iter().map(|v| v.code.code()).collect();
            let mut reduced_codes: Vec<&str> =
                reduced.violations.iter().map(|v| v.code.code()).collect();
            full_codes.sort_unstable();
            full_codes.dedup();
            reduced_codes.sort_unstable();
            reduced_codes.dedup();
            prop_assert_eq!(
                full_codes,
                reduced_codes,
                "{} at n={} s={} depth={} under {}",
                name,
                n,
                s,
                depth,
                label
            );
        }
    }
}
