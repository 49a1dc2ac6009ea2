//! The derived sweeps of the paper's evaluation, one subcommand each:
//!
//! * `crossover` — FIG-A, the semi-synchronous strategy crossover;
//! * `sporadic_sweep` — FIG-B, the sporadic `d1 → d2` interpolation;
//! * `periodic_vs_semisync` — FIG-C, periodic vs semi-synchronous
//!   efficiency;
//! * `contamination_growth` — Lemma 4.4, the measured contamination
//!   spread against the paper's bound;
//! * `diameter_sweep` — EXT-DIAM, the diameter factor of point-to-point
//!   networks.
//!
//! Each prints its markdown tables; `--json [PATH]` also writes them as a
//! `session-bench/sections/v1` report (default `BENCH_<sweep>.json`).
//!
//! ```text
//! cargo run -p session-bench --bin sweeps -- crossover
//! cargo run -p session-bench --bin sweeps -- crossover --json   # BENCH_crossover.json
//! cargo run -p session-bench --bin sweeps -- diameter_sweep --json out.json
//! ```
//!
//! Exit status: `0` on success, `1` when a sweep or the JSON write fails,
//! `2` on an unknown or missing sweep name.

use session_adversary::contamination::{contamination_analysis, lemma_bound};
use session_bench::format::{section, Row};
use session_bench::json_report::{json_flag, JsonReport};
use session_bench::sweeps::{periodic_vs_semisync, semisync_crossover, sporadic_interpolation};
use session_core::report::{run_mp, MpConfig};
use session_core::system::build_sm_system;
use session_sim::{FixedPeriods, HopDelay, RunLimits};
use session_types::{Dur, KnownBounds, ProcessId, SessionSpec, Time, TimingModel};

/// One sweep: prints its markdown and returns the same tables as a
/// report, or the reason it failed.
type Sweep = fn() -> Result<JsonReport, String>;

/// Every sweep, by subcommand name.
const SWEEPS: [(&str, Sweep); 5] = [
    ("crossover", crossover),
    ("sporadic_sweep", sporadic_sweep),
    ("periodic_vs_semisync", periodic_vs_semisync_sweep),
    ("contamination_growth", contamination_growth),
    ("diameter_sweep", diameter_sweep),
];

/// Prints one section and files it into `report`.
fn emit(report: &mut JsonReport, title: &str, headers: &[&str], rows: &[Row]) {
    report.section(title, headers, rows);
    print!("{}", section(title, headers, rows));
}

/// FIG-A: sweeps `c2/c1` and measures both arms of the semi-synchronous
/// algorithm (step counting vs tree communication). The paper's §1
/// discussion predicts: "if the time for one communication is less than
/// that for one step multiplied by the ratio of c2 and c1, the model
/// behaves like the asynchronous; otherwise it behaves like the
/// synchronous".
fn crossover() -> Result<JsonReport, String> {
    let ratios = [2, 4, 8, 12, 16, 24, 32, 48, 64];
    let headers = [
        "c2/c1",
        "step-counting time",
        "communication time",
        "predicted winner",
        "measured winner",
        "agree",
    ];
    let mut report = JsonReport::new("FIG-A — Semi-synchronous strategy crossover");
    println!("# FIG-A — Semi-synchronous strategy crossover\n");
    for (n, b) in [(8usize, 2usize), (16, 2), (16, 3)] {
        let spec = SessionSpec::new(4, n, b).expect("valid spec");
        let points = semisync_crossover(&spec, Dur::from_int(1), &ratios)
            .map_err(|err| format!("crossover sweep failed for n={n}, b={b}: {err}"))?;
        let rows: Vec<Row> = points
            .iter()
            .map(|p| {
                Row::new([
                    format!("{}", p.ratio),
                    p.silent_time.to_string(),
                    p.talking_time.to_string(),
                    format!("{:?}", p.predicted),
                    format!("{:?}", p.measured_winner),
                    if p.predicted == p.measured_winner {
                        "✓".to_owned()
                    } else {
                        "✗".to_owned()
                    },
                ])
            })
            .collect();
        emit(
            &mut report,
            &format!("n = {n}, b = {b}, s = 4, c1 = 1"),
            &headers,
            &rows,
        );
    }
    Ok(report)
}

/// FIG-B: the sporadic model interpolates between synchronous and
/// asynchronous behaviour as the delay window narrows. With `d2` fixed,
/// sweep `d1` from 0 to `d2`. §1: "As the message delay approaches a
/// constant (d1 → d2), the per-session time becomes c1 … As the message
/// delay fluctuates within a bigger interval (d1 → 0), the per-session
/// time becomes d2".
fn sporadic_sweep() -> Result<JsonReport, String> {
    println!("# FIG-B — Sporadic delay-uncertainty interpolation\n");
    let d2 = 48i128;
    let d1_values = [0, 8, 16, 24, 32, 40, 48];
    let headers = [
        "d1",
        "u = d2-d1",
        "lower bound",
        "measured A(sp)",
        "max per-session",
        "upper bound",
    ];
    let mut report = JsonReport::new("FIG-B — Sporadic delay-uncertainty interpolation");
    for (s, n) in [(4u64, 3usize), (8, 4)] {
        let spec = SessionSpec::new(s, n, 2).expect("valid spec");
        let points = sporadic_interpolation(&spec, Dur::from_int(1), Dur::from_int(d2), &d1_values)
            .map_err(|err| format!("sporadic sweep failed for s={s}, n={n}: {err}"))?;
        let rows: Vec<Row> = points
            .iter()
            .map(|p| {
                Row::new([
                    p.d1.to_string(),
                    p.u.to_string(),
                    p.lower.to_string(),
                    p.measured.to_string(),
                    p.max_session_gap.to_string(),
                    p.upper.to_string(),
                ])
            })
            .collect();
        emit(
            &mut report,
            &format!("s = {s}, n = {n}, c1 = 1, d2 = {d2}"),
            &headers,
            &rows,
        );
    }
    Ok(report)
}

/// FIG-C: periodic vs semi-synchronous efficiency. §1: "the periodic
/// model is more efficient than the semi-synchronous system when
/// c_max = c2, 2c1 < c2 and n is constant relative to s." Sweep `c2` with
/// both systems driven at actual speed `c2`.
fn periodic_vs_semisync_sweep() -> Result<JsonReport, String> {
    println!("# FIG-C — Periodic vs semi-synchronous running time\n");
    let c2_values = [2, 4, 8, 16, 32];
    let headers = [
        "c2",
        "periodic A(p) time",
        "semi-sync time",
        "periodic bound",
        "semi-sync bound",
        "winner",
    ];
    let mut report = JsonReport::new("FIG-C — Periodic vs semi-synchronous running time");
    for (s, n) in [(4u64, 4usize), (8, 4), (4, 16)] {
        let spec = SessionSpec::new(s, n, 2).expect("valid spec");
        let points = periodic_vs_semisync(&spec, Dur::from_int(1), &c2_values)
            .map_err(|err| format!("dominance sweep failed for s={s}, n={n}: {err}"))?;
        let rows: Vec<Row> = points
            .iter()
            .map(|p| {
                Row::new([
                    p.c2.to_string(),
                    p.periodic_time.to_string(),
                    p.semisync_time.to_string(),
                    p.periodic_bound.to_string(),
                    p.semisync_bound.to_string(),
                    if p.periodic_time < p.semisync_time {
                        "periodic".to_owned()
                    } else {
                        "semi-sync".to_owned()
                    },
                ])
            })
            .collect();
        emit(
            &mut report,
            &format!("s = {s}, n = {n}, b = 2, c1 = 1, c_max = c2"),
            &headers,
            &rows,
        );
    }
    Ok(report)
}

/// Lemma 4.4, tabulated: the measured contamination spread after slowing
/// one port process, against the paper's bound `P_t = ((2b−1)^t − 1)/2`,
/// across fan-in bounds `b`.
fn contamination_growth() -> Result<JsonReport, String> {
    let headers = [
        "subround t",
        "|P(t)| measured",
        "P_t bound",
        "new contaminated vars",
    ];
    let mut report = JsonReport::new("Lemma 4.4 — contamination growth vs the paper's bound");
    println!("# Lemma 4.4 — contamination growth vs the paper's bound\n");
    for (n, b) in [(16usize, 2usize), (16, 3), (25, 4)] {
        let spec = SessionSpec::new(3, n, b).expect("valid spec");
        let bounds = KnownBounds::periodic(Dur::from_int(1)).expect("valid bounds");
        let analysis = contamination_analysis(
            || build_sm_system(&spec, &bounds),
            n,
            ProcessId::new(n - 1),
            8,
            b,
        )
        .map_err(|err| format!("contamination analysis failed for n={n}, b={b}: {err}"))?;
        if !analysis.lemma_holds {
            return Err(format!("Lemma 4.4 bound exceeded for n={n}, b={b}"));
        }
        let rows: Vec<Row> = analysis
            .subrounds
            .iter()
            .map(|sub| {
                Row::new([
                    sub.subround.to_string(),
                    sub.contaminated_processes.len().to_string(),
                    lemma_bound(sub.subround, b).to_string(),
                    sub.newly_contaminated_vars.len().to_string(),
                ])
            })
            .collect();
        let title = format!(
            "n = {n}, b = {b} (slowed: p{}; contamination depth ⌊log_(2b−1)(2n−1)⌋ = {})",
            n - 1,
            spec.contamination_depth()
        );
        emit(&mut report, &title, &headers, &rows);
    }
    println!(
        "Every measured |P(t)| sits at or below the bound; until t reaches the\n\
         contamination depth some port process remains untouched — the paper's\n\
         lower-bound mechanism, visible."
    );
    Ok(report)
}

/// EXT-DIAM: restoring the point-to-point formulation of \[4\]. The paper
/// converts Attiya–Mavronicolas's results by letting `d2` subsume the
/// network diameter (Table 1 conversion note (1)). This sweep undoes the
/// conversion: the asynchronous algorithm runs over explicit topologies
/// where a message takes `hops · per_hop`, and the measured running time
/// exhibits the diameter factor directly.
fn diameter_sweep() -> Result<JsonReport, String> {
    let s = 6u64;
    let n = 8usize;
    let per_hop = Dur::from_int(5);
    let period = Dur::from_int(1);
    let spec = SessionSpec::new(s, n, 2).expect("valid spec");

    println!("# EXT-DIAM — the diameter factor of point-to-point networks\n");
    let topologies: Vec<(&str, HopDelay)> = vec![
        ("complete", HopDelay::complete(n, per_hop).unwrap()),
        ("star", HopDelay::star(n, per_hop).unwrap()),
        ("ring", HopDelay::ring(n, per_hop).unwrap()),
        ("line", HopDelay::line(n, per_hop).unwrap()),
    ];
    let mut rows = Vec::new();
    for (name, mut topology) in topologies {
        let diameter = topology.diameter();
        let d2 = topology.max_delay();
        let mut sched = FixedPeriods::uniform(n, period).expect("valid schedule");
        let report = run_mp(
            MpConfig {
                model: TimingModel::Asynchronous,
                spec,
                bounds: KnownBounds::asynchronous(),
            },
            &mut sched,
            &mut topology,
            RunLimits::default(),
        )
        .map_err(|err| format!("{name} run failed: {err}"))?;
        if !report.solves(&spec) {
            return Err(format!("{name} failed"));
        }
        let gamma = report.gamma;
        let bound = (d2 + gamma) * (s as i128 - 1) + gamma;
        let measured = report.running_time.expect("terminated") - Time::ZERO;
        rows.push(Row::new([
            name.to_owned(),
            diameter.to_string(),
            d2.to_string(),
            measured.to_string(),
            bound.to_string(),
        ]));
    }
    let headers = [
        "topology",
        "diameter",
        "effective d2",
        "measured",
        "(s−1)(d2+γ)+γ",
    ];
    let title = format!("asynchronous MP, s = {s}, n = {n}, per_hop = {per_hop}, step = {period}");
    let mut report = JsonReport::new("EXT-DIAM — the diameter factor of point-to-point networks");
    emit(&mut report, &title, &headers, &rows);
    println!(
        "The measured column scales with the diameter column — the factor the\n\
         paper folded into d2."
    );
    Ok(report)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some(&(name, sweep)) = SWEEPS.iter().find(|(known, _)| *known == name) else {
        let names: Vec<&str> = SWEEPS.iter().map(|(known, _)| *known).collect();
        eprintln!("usage: sweeps <{}> [--json [PATH]]", names.join("|"));
        std::process::exit(2);
    };
    let json_path = json_flag(args, &format!("BENCH_{name}.json"));
    let report = sweep().unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(1);
    });
    if let Some(path) = json_path {
        if let Err(err) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
}
