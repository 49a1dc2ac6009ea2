//! Differential harness for the symbolic engine: the zone graph must
//! *cover* the explicit explorer on every registered target — `SA012`
//! (the one-sided reachability cross-check, see `zones.rs`) must never
//! fire — the ten clean paper algorithms must verify symbolically with
//! zero findings, and the naive witnesses must stay flagged through the
//! symbolic engine too.
//!
//! Every target runs at its registry dimensions clamped to `n ≤ 3`,
//! `s ≤ 3` (only the synchronous pair defaults above that). The
//! heavyweight sporadic MP spaces and the analyzer-bench headline scope
//! are `#[ignore]`d here for the same reason as in `reduction_diff.rs`:
//! minutes in debug builds. `scripts/static-analysis.sh` runs them in
//! release with `--include-ignored` (the CI `symbolic-diff` job).

use session_analyzer::zones::{explicit_control_reach, zone_walk};
use session_analyzer::{scoped_target_space, Report, TARGET_NAMES};
use session_obs::NullRecorder;

/// Targets cheap enough to walk symbolically in a debug build.
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

/// The registry's default dimensions clamped to the `n ≤ 3`, `s ≤ 3`
/// differential scope.
fn clamped_dims(name: &str) -> (usize, u64) {
    match name {
        "SyncSm" | "SyncMp" => (3, 3),
        "NaiveSporadicMp" => (2, 3),
        _ => (2, 2),
    }
}

/// What the symbolic engine reports for one target at its clamped
/// scope, pinned exactly: any change to the zone walker, its memo or the
/// explicit mirror walk shows up here as a changed count.
struct Pinned {
    zone_states: u64,
    zone_controls: usize,
    explicit_controls: usize,
    explicit_states: u64,
    truncated: bool,
    /// The lint codes: clean algorithms verify with zero findings, the
    /// shared-memory witnesses trip `SA001` symbolically, and the naive
    /// sporadic witness its stale-evidence `SA003` (which needs the
    /// `s = 3` of its clamped dims).
    codes: &'static [&'static str],
    /// Worst-case session close: value and symbolic expression.
    worst_close: (&'static str, &'static str),
}

const fn pinned(
    (zone_states, zone_controls, explicit_controls, explicit_states): (u64, usize, usize, u64),
    truncated: bool,
    codes: &'static [&'static str],
    worst_close: (&'static str, &'static str),
) -> Pinned {
    Pinned {
        zone_states,
        zone_controls,
        explicit_controls,
        explicit_states,
        truncated,
        codes,
        worst_close,
    }
}

fn expected(name: &str) -> Pinned {
    match name {
        "SyncSm" => pinned((182, 182, 182, 182), false, &[], ("3", "2*c2 + 1")),
        "PeriodicSm" => pinned((1529, 1103, 1103, 1529), false, &[], ("4", "4")),
        "SemiSyncSm" => pinned((15056, 157, 157, 4139), false, &[], ("6", "c2 + 3")),
        "SporadicSm" | "AsyncSm" => pinned((5816, 63, 63, 3625), false, &[], ("6", "6")),
        "SyncMp" => pinned((21, 21, 21, 21), false, &[], ("3", "2*c2 + 1")),
        "PeriodicMp" => pinned((681, 529, 529, 1121), false, &[], ("4", "4")),
        "SemiSyncMp" => pinned((1505, 191, 191, 4654), false, &[], ("4", "c2 + 2")),
        "SporadicMp" => pinned((23261, 6460, 6460, 167_289), false, &[], ("5", "5")),
        "AsyncMp" => pinned((5517, 209, 209, 10120), false, &[], ("7", "7")),
        "NaivePeriodicSm" => pinned((138, 96, 96, 138), false, &["SA001"], ("4", "4")),
        "NaiveSemiSyncSm" => pinned((3886, 76, 76, 1520), false, &["SA001"], ("6", "c2 + 3")),
        "NaiveSporadicMp" => pinned(
            (43770, 13785, 7815, 37938),
            true,
            &["SA003"],
            ("9", "-2*d2 + 13"),
        ),
        other => panic!("{other} has no pinned symbolic result"),
    }
}

fn codes(report: &Report) -> Vec<String> {
    let mut codes: Vec<String> = report
        .findings
        .iter()
        .map(|d| d.code.code().to_owned())
        .collect();
    codes.sort();
    codes.dedup();
    codes
}

/// Runs the symbolic pipeline on `name` at `(n, s)` and checks it
/// against `want`: the report's codes (never `SA012`), and each walk's
/// exact counts, control sets and worst close.
fn diff_scoped(name: &str, n: usize, s: u64, want: &Pinned) {
    let space = scoped_target_space(name, n, s).expect("registry target");
    let report = space.analyze_symbolic(&mut NullRecorder);
    let codes = codes(&report);
    assert!(
        !codes.iter().any(|c| c == "SA012"),
        "{name} (n={n}, s={s}): the zone graph failed to cover the explicit explorer: {codes:?}"
    );
    assert_eq!(
        codes, want.codes,
        "{name} (n={n}, s={s}): symbolic verdict diverged from the registry expectation"
    );
    let scope = space.symbolic_scope();
    let walk = zone_walk(&space.roots, &scope, &space.bounds);
    let reach = explicit_control_reach(&space.roots, &scope);
    // The report's summary row carries the zone walk's own counters.
    let summary = &report.targets[0];
    assert_eq!(
        (summary.memo_hits, summary.depth_hits),
        (walk.worst_close_memo_hits, walk.depth_hits),
        "{name} (n={n}, s={s}): summary row"
    );
    assert_eq!(
        summary.truncated,
        summary.depth_hits > 0,
        "{name} (n={n}, s={s}): a truncated walk counts its depth hits"
    );
    let worst = walk
        .worst_close
        .map(|(value, expr)| (value.to_string(), expr.to_string()));
    let got = (
        (
            walk.zone_states,
            walk.controls.len(),
            reach.controls.len(),
            reach.states,
        ),
        (walk.truncated, reach.truncated),
        worst,
    );
    let (value, expr) = want.worst_close;
    let pinned = (
        (
            want.zone_states,
            want.zone_controls,
            want.explicit_controls,
            want.explicit_states,
        ),
        (want.truncated, want.truncated),
        Some((value.to_owned(), expr.to_owned())),
    );
    assert_eq!(
        got, pinned,
        "{name} (n={n}, s={s}): (zones, zone controls, explicit controls, explicit states), truncation or worst close moved"
    );
}

fn diff_one(name: &str) {
    let (n, s) = clamped_dims(name);
    diff_scoped(name, n, s, &expected(name));
}

#[test]
fn fast_targets_have_no_symbolic_divergence() {
    for name in FAST_TARGETS {
        diff_one(name);
    }
}

#[test]
#[ignore = "minutes in debug; run in release via scripts/static-analysis.sh"]
fn slow_targets_have_no_symbolic_divergence() {
    for name in SLOW_TARGETS {
        diff_one(name);
    }
}

/// The analyzer bench's headline scope: `PeriodicMp` at `n = 3, s = 3`
/// (109,201 zones / 102,733 controls, `BENCH_symbolic.json`) must verify
/// symbolically and be covered, exactly like the registry scope.
#[test]
#[ignore = "minutes in debug; run in release via scripts/static-analysis.sh"]
fn headline_scope_has_no_symbolic_divergence() {
    let want = pinned((109_201, 102_733, 102_733, 325_431), false, &[], ("6", "6"));
    diff_scoped("PeriodicMp", 3, 3, &want);
}

/// The fast set plus the slow set is exactly the registry — a new
/// target cannot silently skip the symbolic differential.
#[test]
fn every_registry_target_is_classified() {
    let mut classified: Vec<&str> = FAST_TARGETS
        .iter()
        .chain(SLOW_TARGETS.iter())
        .copied()
        .collect();
    classified.sort_unstable();
    let mut registry: Vec<&str> = TARGET_NAMES.to_vec();
    registry.sort_unstable();
    assert_eq!(classified, registry);
}
