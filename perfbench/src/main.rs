//! End-to-end and per-layer benchmark of the session-problem checker and
//! session service. See `README.md` beside this package for the
//! workloads, the metrics and what each layer metric should move.
//!
//! ```text
//! perfbench --workload <explore-owned|serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, measured untraced;
//! `--trace 1` reports the per-layer metrics of a separate traced run and
//! writes its spans to `perfbench/out/`. Every run also appends a record
//! with the host's speed to `perfbench/out/runs.jsonl`.

mod analyzer;
mod measure;
mod serve;
mod trace;

use std::io::Write as _;
use std::process::ExitCode;

use session_obs::json::JsonWriter;

use analyzer::Engine;
use trace::Tracer;

/// Where traces and the run log go, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

/// One reported number.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// What a workload run reports.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ExploreOwned,
    Serve,
}

impl Workload {
    const ALL: [(&'static str, Workload); 2] = [
        ("explore-owned", Workload::ExploreOwned),
        ("serve", Workload::Serve),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|&(n, _)| n)
            .expect("every workload is listed")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Every per-layer metric name, in the order `BENCHMARK.json` lists them.
/// A traced run reports all of them; a layer the workload never calls
/// reports 0.
const LAYER_METRICS: [(&str, &str); 54] = [
    ("machine.menu_ns_per_state", "ns"),
    ("machine.clone_ns_per_edge", "ns"),
    ("machine.apply_ns_per_edge", "ns"),
    ("machine.hash_ns_per_state", "ns"),
    ("machine.quiescent_ns_per_state", "ns"),
    ("machine.edges_per_state", "count"),
    ("explore.wall_s", "s"),
    ("explore.states", "count"),
    ("explore.memo_hits", "count"),
    ("explore.check_step_ns_per_edge", "ns"),
    ("explore.observe_ns_per_port_step", "ns"),
    ("explore.self_ns_per_state", "ns"),
    ("reduce.pruned", "count"),
    ("reduce.memo_hits", "count"),
    ("reduce.states_ratio", "ratio"),
    ("partition.route_send", "count"),
    ("partition.local_msgs", "count"),
    ("partition.queue_full_spins", "count"),
    ("partition.owner_local_ratio", "ratio"),
    ("partition.rounds", "count"),
    ("partition.phase_a_ms", "ms"),
    ("partition.replay_ms", "ms"),
    ("partition.phase_b_ms", "ms"),
    ("partition.busy_ms", "ms"),
    ("partition.idle_ms", "ms"),
    ("partition.cpu_ms", "ms"),
    ("partition.vs_serial", "ratio"),
    ("zones.wall_s", "s"),
    ("zones.zone_states", "count"),
    ("zones.dbm_closures", "count"),
    ("zones.closures_per_zone", "ratio"),
    ("zones.dbm_close_ms", "ms"),
    ("zones.worst_close_memo_hits", "count"),
    ("zones.self_ms", "ms"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("session.new_us", "us"),
    ("session.fire_us_per_session", "us"),
    ("session.fires_per_session", "count"),
    ("session.verify_us_per_sample", "us"),
    ("wheel.schedule_ns", "ns"),
    ("wheel.advance_ns", "ns"),
    ("serve.frames_dropped", "count"),
    ("serve.sessions_shed", "count"),
    ("serve.opens_queue_full", "count"),
    ("serve.conformance_samples", "count"),
    ("serve.close_lag_p50_ms", "ms"),
    ("serve.close_lag_p99_ms", "ms"),
    ("serve.residual_us_per_session", "us"),
    ("client.late_ms", "ms"),
    ("host.ref_ms", "ms"),
    ("host.threads", "count"),
    ("trace.overhead_s", "s"),
    ("trace.timer_floor_ns", "ns"),
];

fn traced(args: &Args, host_ref_ms: f64) -> Outcome {
    let mut tracer = Tracer::new();
    tracer.enter(&format!("workload: {}", args.workload.name()));
    let floor = trace::timer_floor_ns();
    let mut outcome = match args.workload {
        Workload::ExploreOwned => analyzer::trace(&mut tracer, floor),
        Workload::Serve => serve::trace(args.seed, args.seconds, &mut tracer, floor),
    };
    tracer.exit();
    outcome.metrics.extend([
        Metric::new("host.ref_ms", "ms", host_ref_ms),
        Metric::new("host.threads", "count", measure::host_threads() as f64),
        Metric::new("trace.timer_floor_ns", "ns", floor),
    ]);
    let path = format!(
        "{OUT_DIR}/trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    match std::fs::write(
        &path,
        tracer.to_json(args.workload.name(), args.seed, floor),
    ) {
        Ok(()) => eprintln!("trace written to {path}"),
        Err(err) => eprintln!("cannot write {path}: {err}"),
    }
    // Complete the per-layer set: layers this workload never calls did
    // no work on it.
    let mut metrics = Vec::with_capacity(LAYER_METRICS.len());
    for (name, unit) in LAYER_METRICS {
        let value = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        metrics.push(Metric::new(name, unit, value));
    }
    outcome.metrics = metrics;
    outcome
}

fn result_json(outcome: &Outcome) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_bool("correct", outcome.failed == 0);
    w.field_u64("attempted", outcome.attempted);
    w.field_u64("failed", outcome.failed);
    w.key("metrics");
    w.begin_object();
    for metric in &outcome.metrics {
        w.key(metric.name);
        w.begin_object();
        w.field_f64("value", metric.value);
        w.field_str("unit", metric.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// Appends this run, with the host's speed beside it, to the run log.
fn log_run(args: &Args, host_ref_ms: f64, result: &str) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("workload", args.workload.name());
    w.field_u64("seed", args.seed);
    w.field_u64("seconds", args.seconds);
    w.field_bool("trace", args.trace);
    w.field_u64("host_threads", measure::host_threads() as u64);
    w.field_f64("host_ref_ms", host_ref_ms);
    w.end_object();
    let line = format!("{{\"run\":{},\"result\":{result}}}\n", w.finish());
    let log = format!("{OUT_DIR}/runs.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(err) = appended {
        eprintln!("cannot append to {log}: {err}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <explore-owned|serve> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {err}");
    }
    let host_ref_ms = measure::host_reference_ms();
    eprintln!(
        "host: {} hardware threads, reference loop {host_ref_ms:.2} ms",
        measure::host_threads()
    );
    let outcome = if args.trace {
        traced(&args, host_ref_ms)
    } else {
        let mut outcome = match args.workload {
            Workload::ExploreOwned => analyzer::run(Engine::Owned, args.seconds),
            Workload::Serve => serve::run(args.seed, args.seconds),
        };
        outcome
            .metrics
            .push(Metric::new("peak_rss_mb", "MB", measure::peak_rss_mb()));
        outcome
    };
    let result = result_json(&outcome);
    log_run(&args, host_ref_ms, &result);
    println!("{result}");
    ExitCode::SUCCESS
}
