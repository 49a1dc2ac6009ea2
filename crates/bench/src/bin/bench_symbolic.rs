//! Symbolic-engine size benchmark: walk every registry target's zone
//! graph next to the mirror explicit exploration and record how the two
//! state counts compare, then sweep the headline refinement experiment —
//! `PeriodicMp` at the analyzer's headline scope (n = 3, s = 3) with the
//! delay menu sampled ever more finely inside the same `[0, 1]` window.
//! The zone walker only keeps the window's hull as a DBM bound, so its
//! graph is *invariant* under refinement, while the explicit explorer
//! enumerates one remaining-delay value per menu entry per in-flight
//! message and blows up — that widening gap is the point of the symbolic
//! engine.
//!
//! ```text
//! cargo run --release -p session-bench --bin bench_symbolic
//! cargo run --release -p session-bench --bin bench_symbolic -- --json
//! cargo run --release -p session-bench --bin bench_symbolic -- --json out.json
//! ```
//!
//! Report schema: `session-bench/symbolic/v1` — a per-target table
//! (zone/explicit state counts, control-state counts, zone findings,
//! truncation) and the headline refinement rows.
//!
//! Exit status: `0` on success, `1` when the headline row's
//! explicit/zone ratio falls below the acceptance threshold (10×) —
//! state counts are deterministic, so unlike a throughput threshold this
//! gate is host-independent.

use std::time::Instant;

use session_analyzer::zones::{explicit_control_reach, zone_walk};
use session_analyzer::{periodic_mp_space_with_delays, target_space, TARGET_NAMES};
use session_bench::json_report::json_flag;
use session_obs::json::JsonWriter;
use session_types::{Dur, Ratio};

/// The version tag written into every symbolic-bench report.
const SCHEMA: &str = "session-bench/symbolic/v1";

/// The headline refinement experiment: `PeriodicMp` at the analyzer
/// bench's scope, delay window `[0, 1]` sampled at `k + 1` points.
const HEADLINE_TARGET: &str = "PeriodicMp";
const HEADLINE_N: usize = 3;
const HEADLINE_S: u64 = 3;

/// Denominators of the refinement sweep: `k = 1` is the registry menu
/// `{0, 1}`, `k = 2` adds the midpoint, and so on.
const REFINEMENTS: [i128; 2] = [1, 2];

/// The acceptance threshold on the finest refinement row.
const MIN_RATIO: f64 = 10.0;

struct SizeRow {
    label: String,
    depth: usize,
    zone_states: u64,
    zone_secs: f64,
    explicit_states: u64,
    explicit_secs: f64,
    zone_controls: u64,
    explicit_controls: u64,
    ratio: f64,
    findings: Vec<String>,
    truncated: bool,
}

/// Walks one space with both engines at its symbolic scope (the same
/// depth budget for both) and tabulates the sizes.
fn measure(label: String, space: &session_analyzer::TargetSpace) -> SizeRow {
    let scope = space.symbolic_scope();
    let start = Instant::now();
    let walk = zone_walk(&space.roots, &scope, &space.bounds);
    let zone_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let reach = explicit_control_reach(&space.roots, &scope);
    let explicit_secs = start.elapsed().as_secs_f64();
    let mut findings: Vec<String> = walk
        .findings
        .iter()
        .map(|(code, _)| code.code().to_owned())
        .collect();
    findings.sort();
    #[allow(clippy::cast_precision_loss)]
    let ratio = reach.states as f64 / walk.zone_states.max(1) as f64;
    SizeRow {
        label,
        depth: scope.max_depth,
        zone_states: walk.zone_states,
        zone_secs,
        explicit_states: reach.states,
        explicit_secs,
        zone_controls: walk.controls.len() as u64,
        explicit_controls: reach.controls.len() as u64,
        ratio,
        findings,
        truncated: walk.truncated || reach.truncated,
    }
}

/// The headline space: `PeriodicMp` with the `[0, 1]` delay window
/// sampled at `k + 1` evenly spaced points.
fn refined_space(k: i128) -> session_analyzer::TargetSpace {
    let delays: Vec<Dur> = (0..=k).map(|i| Dur::from_ratio(Ratio::new(i, k))).collect();
    periodic_mp_space_with_delays(HEADLINE_N, HEADLINE_S, &delays)
}

fn row_json(w: &mut JsonWriter, row: &SizeRow, samples: Option<u64>) {
    w.begin_object();
    w.field_str("label", &row.label);
    if let Some(samples) = samples {
        w.field_u64("delay_samples", samples);
    }
    w.field_u64("depth", row.depth as u64);
    w.field_u64("zone_states", row.zone_states);
    w.field_f64("zone_secs", row.zone_secs);
    w.field_u64("explicit_states", row.explicit_states);
    w.field_f64("explicit_secs", row.explicit_secs);
    w.field_u64("zone_controls", row.zone_controls);
    w.field_u64("explicit_controls", row.explicit_controls);
    w.field_f64("explicit_over_zone", row.ratio);
    w.key("findings");
    w.begin_array();
    for code in &row.findings {
        w.value_str(code);
    }
    w.end_array();
    w.field_bool("truncated", row.truncated);
    w.end_object();
}

fn to_json(targets: &[SizeRow], headline: &[(u64, SizeRow)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SCHEMA);
    w.key("targets");
    w.begin_array();
    for row in targets {
        row_json(&mut w, row, None);
    }
    w.end_array();
    w.key("headline");
    w.begin_object();
    w.field_str("target", HEADLINE_TARGET);
    w.field_u64("n", HEADLINE_N as u64);
    w.field_u64("s", HEADLINE_S);
    w.field_f64("min_ratio", MIN_RATIO);
    w.key("rows");
    w.begin_array();
    for (samples, row) in headline {
        row_json(&mut w, row, Some(*samples));
    }
    w.end_array();
    w.end_object();
    w.end_object();
    w.finish()
}

fn print_row(row: &SizeRow) {
    println!(
        "| {} | {} | {} | {:.2} s | {} | {:.2} s | {:.2}x | {} | {} |",
        row.label,
        row.depth,
        row.zone_states,
        row.zone_secs,
        row.explicit_states,
        row.explicit_secs,
        row.ratio,
        if row.findings.is_empty() {
            "-".to_owned()
        } else {
            row.findings.join("+")
        },
        row.truncated
    );
}

fn main() {
    let json_path = json_flag(std::env::args().skip(1), "BENCH_symbolic.json");
    println!("# Symbolic engine size — zone graph vs explicit state count\n");
    println!("| target | depth | zones | zone wall | explicit | explicit wall | explicit/zone | zone findings | truncated |");
    println!("|---|---:|---:|---:|---:|---:|---:|---|---|");
    let mut targets = Vec::new();
    for name in TARGET_NAMES {
        let space = target_space(name).expect("registry target");
        let row = measure(name.to_owned(), &space);
        print_row(&row);
        targets.push(row);
    }
    println!(
        "\n## Refinement sweep — {HEADLINE_TARGET} n = {HEADLINE_N}, s = {HEADLINE_S}, \
         delay window [0, 1] sampled at k + 1 points\n"
    );
    println!("| samples | depth | zones | zone wall | explicit | explicit wall | explicit/zone | zone findings | truncated |");
    println!("|---:|---:|---:|---:|---:|---:|---:|---|---|");
    let mut headline = Vec::new();
    for &k in &REFINEMENTS {
        let space = refined_space(k);
        let samples = u64::try_from(k).expect("small k") + 1;
        let row = measure(format!("{samples} samples"), &space);
        print_row(&row);
        headline.push((samples, row));
    }
    let finest = &headline.last().expect("sweep is non-empty").1;
    println!(
        "\nheadline ratio at {} delay samples: {:.2}x (threshold {MIN_RATIO}x) — the zone \
         graph is invariant under refinement, the explicit explorer is not",
        headline.last().expect("sweep is non-empty").0,
        finest.ratio
    );
    let failed = finest.ratio < MIN_RATIO;
    if failed {
        eprintln!(
            "RATIO BELOW THRESHOLD: explicit/zone = {:.2} < {MIN_RATIO} on {HEADLINE_TARGET} \
             n={HEADLINE_N} s={HEADLINE_S}",
            finest.ratio
        );
    }
    if let Some(path) = json_path {
        if let Err(err) = std::fs::write(&path, to_json(&targets, &headline)) {
            eprintln!("cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
        println!("\nwrote {}", path.display());
    }
    if failed {
        std::process::exit(1);
    }
}
