//! Workspace-level integration: the complete paper pipeline — build a
//! system for every (model × substrate) cell, run it under an admissible
//! schedule, verify the trace independently, and confirm the measured
//! running time respects the Table 1 shape; then run every adversary.

use session_problem::adversary::contamination::contamination_analysis;
use session_problem::adversary::naive::{
    naive_sm_system, periodic_mp_demo, periodic_sm_demo, semisync_sm_step_counting_demo,
    sporadic_mp_demo,
};
use session_problem::adversary::retime::retiming_attack;
use session_problem::core::report::{run_mp, run_sm, MpConfig, SmConfig};
use session_problem::core::system::build_sm_system;
use session_problem::core::verify::check_admissible;
use session_problem::sim::{ConstantDelay, FixedPeriods, RunLimits};
use session_problem::smm::TreeSpec;
use session_problem::types::{Dur, KnownBounds, ProcessId, SessionSpec, TimingModel};

fn d(x: i128) -> Dur {
    Dur::from_int(x)
}

#[test]
fn all_ten_table1_cells_solve_and_verify() {
    let spec = SessionSpec::new(4, 6, 2).unwrap();
    let c1 = d(1);
    let c2 = d(4);
    let d2 = d(10);
    let tree = TreeSpec::build(spec.n(), spec.b());
    let sm_procs = spec.n() + tree.num_relays();

    for model in TimingModel::ALL {
        let bounds = match model {
            TimingModel::Synchronous => KnownBounds::synchronous(c2, d2).unwrap(),
            TimingModel::Periodic => KnownBounds::periodic(d2).unwrap(),
            TimingModel::SemiSynchronous => KnownBounds::semi_synchronous(c1, c2, d2).unwrap(),
            TimingModel::Sporadic => KnownBounds::sporadic(c1, Dur::ZERO, d2).unwrap(),
            TimingModel::Asynchronous => KnownBounds::asynchronous(),
        };
        // Shared memory.
        let mut sched = FixedPeriods::uniform(sm_procs, c2).unwrap();
        let sm = run_sm(
            SmConfig {
                model,
                spec,
                bounds,
            },
            &mut sched,
            RunLimits::default(),
        )
        .unwrap();
        assert!(
            sm.solves(&spec),
            "{model} SM failed: {} sessions",
            sm.sessions
        );
        check_admissible(&sm.trace, &bounds)
            .unwrap_or_else(|e| panic!("{model} SM inadmissible: {e}"));

        // Message passing.
        let mut sched = FixedPeriods::uniform(spec.n(), c2).unwrap();
        let mut delays = ConstantDelay::new(d2).unwrap();
        let mp = run_mp(
            MpConfig {
                model,
                spec,
                bounds,
            },
            &mut sched,
            &mut delays,
            RunLimits::default(),
        )
        .unwrap();
        assert!(
            mp.solves(&spec),
            "{model} MP failed: {} sessions",
            mp.sessions
        );
        check_admissible(&mp.trace, &bounds)
            .unwrap_or_else(|e| panic!("{model} MP inadmissible: {e}"));
    }
}

#[test]
fn model_hierarchy_orders_running_times() {
    // At identical actual speeds (everyone at c2), knowing less costs more:
    // the synchronous algorithm is at least as fast as every other model's.
    let spec = SessionSpec::new(5, 8, 2).unwrap();
    let c1 = d(1);
    let c2 = d(4);
    let d2 = d(12);
    let tree = TreeSpec::build(spec.n(), spec.b());
    let sm_procs = spec.n() + tree.num_relays();

    let mut times = Vec::new();
    for model in TimingModel::ALL {
        let bounds = match model {
            TimingModel::Synchronous => KnownBounds::synchronous(c2, d2).unwrap(),
            TimingModel::Periodic => KnownBounds::periodic(d2).unwrap(),
            TimingModel::SemiSynchronous => KnownBounds::semi_synchronous(c1, c2, d2).unwrap(),
            TimingModel::Sporadic => KnownBounds::sporadic(c1, Dur::ZERO, d2).unwrap(),
            TimingModel::Asynchronous => KnownBounds::asynchronous(),
        };
        let mut sched = FixedPeriods::uniform(sm_procs, c2).unwrap();
        let report = run_sm(
            SmConfig {
                model,
                spec,
                bounds,
            },
            &mut sched,
            RunLimits::default(),
        )
        .unwrap();
        assert!(report.solves(&spec));
        times.push((model, report.running_time.unwrap()));
    }
    let sync_time = times[0].1;
    for &(model, t) in &times[1..] {
        assert!(
            sync_time <= t,
            "synchronous ({sync_time}) should be fastest, but {model} took {t}"
        );
    }
    // The periodic model (one communication) beats the asynchronous model
    // (one communication per session) once s > 1.
    let periodic = times[1].1;
    let asynchronous = times[4].1;
    assert!(
        periodic <= asynchronous,
        "periodic {periodic} vs asynchronous {asynchronous}"
    );
}

#[test]
fn every_lower_bound_adversary_succeeds() {
    let spec = SessionSpec::new(3, 8, 2).unwrap();

    let demo = periodic_sm_demo(&spec, 50, RunLimits::default()).unwrap();
    assert!(demo.demonstrates_bound(), "periodic SM adversary");

    let demo = periodic_mp_demo(&spec, 50, d(8), RunLimits::default()).unwrap();
    assert!(demo.demonstrates_bound(), "periodic MP adversary");

    let demo = semisync_sm_step_counting_demo(&spec, d(1), d(8), RunLimits::default()).unwrap();
    assert!(
        demo.demonstrates_bound(),
        "semi-sync step-counting adversary"
    );

    let attack = retiming_attack(
        || naive_sm_system(&spec, spec.s()),
        &spec,
        d(1),
        d(8),
        RunLimits::default(),
    )
    .unwrap();
    assert!(attack.defeated(), "Theorem 5.1 retiming adversary");

    let demo = sporadic_mp_demo(d(10), RunLimits::default()).unwrap();
    assert!(demo.demonstrates_bound(), "sporadic pause adversary");
}

#[test]
fn contamination_lemma_holds_across_shapes() {
    for (n, b) in [(4usize, 2usize), (8, 2), (9, 3), (16, 5)] {
        let spec = SessionSpec::new(2, n, b).unwrap();
        let bounds = KnownBounds::periodic(d(1)).unwrap();
        let report = contamination_analysis(
            || build_sm_system(&spec, &bounds),
            n,
            ProcessId::new(n - 1),
            8,
            b,
        )
        .unwrap();
        assert!(report.lemma_holds, "Lemma 4.4 violated for n={n}, b={b}");
    }
}

#[test]
fn analyze_cli_rejects_zero_threads_and_threads_with_trace() {
    use session_problem::analyze::AnalyzeConfig;

    let err = AnalyzeConfig::parse(["--all", "threads=0"]).unwrap_err();
    assert!(
        err.to_string().contains("threads=0"),
        "threads=0 must name the offending key: {err}"
    );
    assert!(
        err.to_string().contains("usage: session-cli analyze"),
        "threads=0 must print usage: {err}"
    );

    let err = AnalyzeConfig::parse(["trace=run.jsonl", "threads=4"]).unwrap_err();
    assert!(
        err.to_string().contains("inherently serial"),
        "threads= with trace= must explain why it is rejected: {err}"
    );
    // Even threads=1 is rejected with trace=: the key simply does not
    // apply, and silently accepting it would suggest it did something.
    assert!(AnalyzeConfig::parse(["trace=run.jsonl", "threads=1"]).is_err());
}

#[test]
fn analyze_cli_rejects_symbolic_with_trace_and_runs_symbolic_end_to_end() {
    use session_problem::analyze::AnalyzeConfig;

    let err = AnalyzeConfig::parse(["trace=run.jsonl", "symbolic=on"]).unwrap_err();
    assert!(
        err.to_string().contains("no space to abstract"),
        "symbolic= with trace= must explain why it is rejected: {err}"
    );
    // symbolic=off is rejected too: the key does not apply to a trace
    // replay, and silently accepting it would suggest it did.
    assert!(AnalyzeConfig::parse(["trace=run.jsonl", "symbolic=off"]).is_err());

    // Happy path through the real subcommand: a clean target verifies
    // symbolically (exit 0) and the report carries the symbolic row; a
    // naive witness is flagged symbolically too.
    let (out, code) = AnalyzeConfig::parse(["SyncMp", "symbolic=on"])
        .unwrap()
        .execute()
        .unwrap();
    assert_eq!(code, 0, "clean target must verify symbolically:\n{out}");
    assert!(out.contains("SyncMp (symbolic)"), "{out}");

    let (out, code) = AnalyzeConfig::parse(["NaivePeriodicSm", "symbolic=on"])
        .unwrap()
        .execute()
        .unwrap();
    assert_eq!(code, 1, "the witness must stay flagged:\n{out}");
    assert!(out.contains("SA001"), "{out}");
}

#[test]
fn analyze_cli_symbolic_runs_at_the_requested_scope() {
    use session_analyzer::{scoped_target_space, LintConfig};
    use session_problem::analyze::AnalyzeConfig;
    use session_problem::obs::NullRecorder;

    // `n=`/`s=` rebuild the one space both engines analyze: the symbolic
    // summary row of a scoped run is exactly the symbolic pipeline over
    // the scoped space (SyncSm's registry default, n=4 s=3, walks 374
    // zones; n=2 s=2 walks 13).
    let (out, code) = AnalyzeConfig::parse(["SyncSm", "n=2", "s=2", "symbolic=on", "format=csv"])
        .unwrap()
        .execute()
        .unwrap();
    assert_eq!(code, 0, "{out}");
    let space = scoped_target_space("SyncSm", 2, 2).expect("registry target");
    let want = space
        .analyze_symbolic(&mut NullRecorder)
        .to_csv(&LintConfig::default());
    let symbolic_row = |csv: &str| {
        csv.lines()
            .find(|line| line.starts_with("SyncSm (symbolic),"))
            .map(str::to_owned)
    };
    assert!(symbolic_row(&want).is_some(), "{want}");
    assert_eq!(symbolic_row(&out), symbolic_row(&want), "{out}");

    // A witness at a non-default scope: every symbolic finding names the
    // requested dimensions in its scope line.
    let (out, code) =
        AnalyzeConfig::parse(["NaivePeriodicSm", "n=2", "s=3", "symbolic=on", "format=csv"])
            .unwrap()
            .execute()
            .unwrap();
    assert_eq!(code, 1, "the witness must stay flagged:\n{out}");
    let symbolic: Vec<&str> = out
        .lines()
        .filter(|line| line.contains("engine=symbolic"))
        .collect();
    assert!(!symbolic.is_empty(), "no symbolic finding:\n{out}");
    for line in symbolic {
        assert!(
            line.contains(" n=2 s=3 "),
            "symbolic scope is not the requested one: {line}"
        );
    }
}

/// The findings block of a csv report: everything from the
/// `code,severity,...` header on. The summary block above it carries raw
/// state/memo counters, which the parallel explorer does not promise to
/// reproduce exactly (workers can race to count a state before the memo
/// merge lands); the findings and the exit code are the verdict, and
/// those are bit-identical at every thread count.
fn csv_findings(report: &str) -> &str {
    let header = "code,severity,target,scope,message\n";
    let at = report
        .find(header)
        .expect("csv report has a findings block");
    &report[at..]
}

#[test]
fn analyze_cli_findings_and_exit_code_are_thread_invariant() {
    use session_problem::analyze::AnalyzeConfig;

    // A violating target and a clean one, through the real subcommand
    // path: rendered findings and exit code must not depend on the
    // thread count.
    for target in ["NaivePeriodicSm", "SyncMp"] {
        let (serial_out, serial_code) = AnalyzeConfig::parse([target, "format=csv"])
            .unwrap()
            .execute()
            .unwrap();
        let (parallel_out, parallel_code) =
            AnalyzeConfig::parse([target, "format=csv", "threads=2"])
                .unwrap()
                .execute()
                .unwrap();
        assert_eq!(
            csv_findings(&parallel_out),
            csv_findings(&serial_out),
            "{target}: findings diverged"
        );
        assert_eq!(parallel_code, serial_code, "{target}: exit code diverged");
    }
}

#[test]
fn analyze_cli_findings_are_flight_recorder_invariant() {
    use session_problem::analyze::AnalyzeConfig;

    // The flight recorder must be observation-only: for every registered
    // target, running with `profile=` + `progress=on` (threads=2, so the
    // parallel hooks fire too) yields the same findings and exit code as
    // the bare run (DESIGN.md §15). Scoped down to n=2, s=2 to keep the
    // sweep cheap — the hooks fired are the same as at the full scope.
    for target in session_analyzer::target_names() {
        let (plain_out, plain_code) =
            AnalyzeConfig::parse([target, "format=csv", "threads=2", "n=2", "s=2"])
                .unwrap()
                .execute()
                .unwrap();
        let profile_path = std::env::temp_dir().join(format!(
            "flight-invariance-{}-{target}.json",
            std::process::id()
        ));
        let profile_arg = format!("profile={}", profile_path.display());
        let (flight_out, flight_code) = AnalyzeConfig::parse([
            target,
            "format=csv",
            "threads=2",
            "n=2",
            "s=2",
            "progress=on",
            profile_arg.as_str(),
        ])
        .unwrap()
        .execute()
        .unwrap();
        // The flight run appends `wrote PATH` lines after the report;
        // everything before them must match the bare run byte-for-byte.
        let flight_report = flight_out
            .split("\nwrote ")
            .next()
            .expect("split always yields a first chunk");
        assert_eq!(
            csv_findings(flight_report),
            csv_findings(&plain_out),
            "{target}: findings changed under the flight recorder"
        );
        assert_eq!(
            flight_code, plain_code,
            "{target}: exit code changed under the flight recorder"
        );
        let doc = std::fs::read_to_string(&profile_path)
            .expect("profile= writes the analyzer-profile document");
        assert!(
            doc.contains("\"schema\":\"analyzer-profile/v2\""),
            "{target}: {doc}"
        );
        assert!(doc.contains(&format!("\"target\":\"{target}\"")), "{doc}");
        let _ = std::fs::remove_file(&profile_path);
        let perfetto = profile_path.with_extension("perfetto.json");
        assert!(perfetto.exists(), "{target}: Perfetto sibling not written");
        let _ = std::fs::remove_file(perfetto);
    }
}

#[test]
fn bench_harness_table_is_fully_consistent() {
    // The same artifact the `table1` binary prints: all 16 rows must hold.
    let rows = session_bench::measure::full_table1().unwrap();
    assert_eq!(rows.len(), 16);
    for row in rows {
        assert!(
            row.ok,
            "Table 1 row {} {} {}: bound {}, measured {}",
            row.model,
            row.comm,
            row.kind.label(),
            row.paper_bound,
            row.measured
        );
    }
}
