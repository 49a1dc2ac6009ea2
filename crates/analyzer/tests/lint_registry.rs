//! The lint-code registry gate's test bed: every stable `SAxxx` code has
//! at least one *positive* test (an input that provably produces the
//! code) and one *negative* test (a near-miss input that provably does
//! not) in this file, under the greppable naming convention
//! `saXXX_positive_*` / `saXXX_negative_*`. `scripts/static-analysis.sh`
//! verifies the convention covers the whole registry, so a new code
//! cannot land without both directions demonstrated.
//!
//! Positives use the cheapest honest route to each code: whole-target
//! analysis where a registry witness exists (`SA001`, `SA003`), a
//! hand-built machine where the registry is deliberately clean of the
//! code (`SA002`, `SA005`), the public edge predicate for conditions
//! real algorithms cannot exhibit (`SA004`'s un-idle rule is closed out
//! by construction in every shipped port), trace fixtures for the
//! happens-before codes (`SA007`–`SA009`), and the symbolic layer's
//! public entry points for `SA010`–`SA012`.

use session_analyzer::diag::ALL_CODES;
use session_analyzer::explore::{check_step, explore_with_opts, AnyMachine, SessionCounter};
use session_analyzer::machine::{GapMode, MpAlgo, MpMachine, SmAlgo, SmMachine, StepInfo};
use session_analyzer::zones::{bound_finding, coverage_finding, dead_branch_findings, zone_walk};
use session_analyzer::{
    check_timing, hb::analyze_trace_jsonl, target_space, ExploreOpts, FlightOpts, LintCode, Report,
    Scope, TimingParams,
};
use session_core::algorithms::{SporadicMpPort, SyncSmPort};
use session_obs::NullRecorder;
use session_smm::RelayProcess;
use session_types::{Dur, KnownBounds, ProcessId, Time, TimingModel, VarId};

fn d(v: i128) -> Dur {
    Dur::from_int(v)
}

/// The explicit pipeline over the named registry target.
fn explicit_report(name: &str) -> Report {
    let space = target_space(name).expect("registry target");
    space
        .analyze(
            ExploreOpts::default(),
            &mut NullRecorder,
            &FlightOpts::default(),
        )
        .0
}

fn report_codes(report: &Report) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = report.findings.iter().map(|f| f.code.code()).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

// ---------------------------------------------------------------- SA001

#[test]
fn sa001_positive_naive_witness_reaches_quiescence_short() {
    let report = explicit_report("NaivePeriodicSm");
    assert_eq!(report_codes(&report), ["SA001"]);
}

#[test]
fn sa001_negative_periodic_algorithm_delivers_every_session() {
    let report = explicit_report("PeriodicSm");
    assert_eq!(report_codes(&report), Vec::<&str>::new());
}

// ---------------------------------------------------------------- SA002

/// Two synchronous ports aimed at the *same* shared variable: the second
/// accessor exceeds `b = 1`.
fn shared_variable_machine(b: usize) -> AnyMachine {
    let algos = vec![
        SmAlgo::Sync(SyncSmPort::new(VarId::new(0), 1)),
        SmAlgo::Sync(SyncSmPort::new(VarId::new(0), 1)),
    ];
    AnyMachine::Sm(SmMachine::new(
        algos,
        1,
        b,
        2,
        GapMode::PerStep(vec![d(1)]),
        vec![Time::ZERO + d(1), Time::ZERO + d(1)],
    ))
}

#[test]
fn sa002_positive_second_accessor_breaks_the_b_bound() {
    let exploration = explore_with_opts(
        &[shared_variable_machine(1)],
        2,
        1,
        12,
        ExploreOpts::default(),
    );
    assert!(
        exploration
            .violations
            .iter()
            .any(|v| v.code == LintCode::BBoundViolation),
        "{:?}",
        exploration.violations
    );
}

#[test]
fn sa002_negative_fan_in_within_b_is_clean() {
    let exploration = explore_with_opts(
        &[shared_variable_machine(2)],
        2,
        1,
        12,
        ExploreOpts::default(),
    );
    assert!(
        !exploration
            .violations
            .iter()
            .any(|v| v.code == LintCode::BBoundViolation),
        "{:?}",
        exploration.violations
    );
}

// ---------------------------------------------------------------- SA003

/// The erratum scope of `paper_verbatim.rs`, reduced to its cheapest
/// shape: `u = 0` so `B = 1`, one fast process among three, a single
/// admissible delay.
fn sporadic_roots(verbatim: bool) -> Vec<AnyMachine> {
    let (n, s) = (3, 3);
    let make = |i: usize| {
        let (p, c1, dd) = (ProcessId::new(i), d(1), d(2));
        if verbatim {
            SporadicMpPort::paper_verbatim(p, s, n, c1, dd, dd)
        } else {
            SporadicMpPort::new(p, s, n, c1, dd, dd)
        }
        .expect("valid sporadic parameters")
    };
    let algos: Vec<MpAlgo> = (0..n).map(|i| MpAlgo::Sporadic(make(i))).collect();
    let first_steps = vec![Time::ZERO + d(1); n];
    [vec![d(1), d(6), d(6)], vec![d(6), d(6), d(6)]]
        .into_iter()
        .map(|assignment| {
            AnyMachine::Mp(MpMachine::new(
                algos.clone(),
                GapMode::FixedPerProcess(assignment),
                vec![d(2)],
                first_steps.clone(),
            ))
        })
        .collect()
}

#[test]
fn sa003_positive_paper_verbatim_sporadic_claims_stale_sessions() {
    let exploration = explore_with_opts(&sporadic_roots(true), 3, 3, 96, ExploreOpts::default());
    assert!(
        exploration
            .violations
            .iter()
            .any(|v| v.code == LintCode::StaleEvidence),
        "{:?}",
        exploration.violations
    );
}

#[test]
fn sa003_negative_corrected_sporadic_never_overclaims() {
    let exploration = explore_with_opts(&sporadic_roots(false), 3, 3, 96, ExploreOpts::default());
    assert!(
        exploration.violations.is_empty(),
        "{:?}",
        exploration.violations
    );
}

// ---------------------------------------------------------------- SA004

/// A hand-made edge, because every shipped port keeps its idle states
/// closed under steps by construction: the registry cannot exhibit the
/// un-idle rule, so the public edge predicate is tested directly.
fn idle_edge(was_idle: bool, idle_after: bool) -> Option<(LintCode, String)> {
    let info = StepInfo {
        time: Time::ZERO + d(1),
        process: ProcessId::new(0),
        port: None,
        was_idle,
        idle_after,
        is_process_step: true,
        b_violation: None,
    };
    let machine = shared_variable_machine(2);
    let counter = SessionCounter::new(2, 1);
    check_step(&info, &machine, &counter)
}

#[test]
fn sa004_positive_un_idled_process_is_inadmissible() {
    let (code, message) = idle_edge(true, false).expect("un-idle must be flagged");
    assert_eq!(code, LintCode::InadmissibleStep);
    assert!(message.contains("un-idled"), "{message}");
}

#[test]
fn sa004_negative_idle_preserving_steps_are_admissible() {
    assert_eq!(idle_edge(true, true), None);
    assert_eq!(idle_edge(false, false), None);
    assert_eq!(idle_edge(false, true), None);
}

// ---------------------------------------------------------------- SA005

/// A relay hosted as the only "port": relays never idle, so the machine
/// can never quiesce, and with nothing new to flood its normalized state
/// repeats after one cycle — the admissible lasso `SA005` names.
fn relay_loop_machine() -> AnyMachine {
    let algos = vec![SmAlgo::Relay(RelayProcess::new(vec![VarId::new(0)]))];
    AnyMachine::Sm(SmMachine::new(
        algos,
        1,
        1,
        1,
        GapMode::PerStep(vec![d(1)]),
        vec![Time::ZERO + d(1)],
    ))
}

#[test]
fn sa005_positive_never_idle_relay_loops_without_quiescing() {
    let exploration = explore_with_opts(&[relay_loop_machine()], 1, 1, 12, ExploreOpts::default());
    assert!(
        exploration
            .violations
            .iter()
            .any(|v| v.code == LintCode::NonTermination),
        "{:?}",
        exploration.violations
    );
}

#[test]
fn sa005_negative_terminating_algorithm_has_no_lasso() {
    let report = explicit_report("SyncSm");
    assert!(
        !report_codes(&report).contains(&"SA005"),
        "{:?}",
        report_codes(&report)
    );
}

// ---------------------------------------------------------------- SA006

#[test]
fn sa006_positive_inverted_windows_are_infeasible() {
    let params = TimingParams {
        model: TimingModel::SemiSynchronous,
        c1: d(4),
        c2: d(1),
        d1: d(5),
        d2: d(2),
    };
    let findings = check_timing(&params);
    assert_eq!(findings.len(), 2);
    assert!(findings
        .iter()
        .all(|f| f.code == LintCode::InfeasibleTiming));
}

#[test]
fn sa006_negative_width_zero_windows_are_feasible() {
    let params = TimingParams {
        model: TimingModel::SemiSynchronous,
        c1: d(2),
        c2: d(2),
        d1: d(3),
        d2: d(3),
    };
    assert!(check_timing(&params).is_empty());
}

// ------------------------------------------------- SA007/SA008/SA009

fn meta(n: usize, model: Option<&str>) -> String {
    let model = model.map_or(String::new(), |m| format!(r#","model":"{m}""#));
    format!(r#"{{"type":"meta","title":"t","num_processes":{n},"events":0,"messages":0{model}}}"#)
}

fn step(process: usize, t: &str, port: usize, broadcast: bool) -> String {
    format!(
        r#"{{"type":"event","seq":0,"t":"{t}","t_ms":0,"process":{process},"kind":"step","received":0,"broadcast":{broadcast},"port":{port},"idle_after":false}}"#
    )
}

fn deliver(process: usize, t: &str, msg: u64) -> String {
    format!(
        r#"{{"type":"event","seq":0,"t":"{t}","t_ms":0,"process":{process},"kind":"deliver","msg":{msg},"idle_after":false}}"#
    )
}

fn message(msg: u64, from: usize, to: usize, sent: &str, delivered: &str) -> String {
    format!(
        r#"{{"type":"message","msg":{msg},"from":{from},"to":{to},"sent_at":"{sent}","delivered_at":"{delivered}"}}"#
    )
}

/// A two-process trace whose recorded order agrees with causality and
/// whose session close is covered by both port clocks — clean under all
/// three happens-before rules.
fn conformant_trace() -> String {
    [
        meta(2, None),
        step(0, "1", 0, true),
        deliver(1, "2", 0),
        step(1, "2", 1, false),
        message(0, 0, 1, "1", "2"),
        r#"{"type":"session","index":1,"closed_at":"2","closed_at_ms":2}"#.to_owned(),
    ]
    .join("\n")
}

fn trace_codes(text: &str) -> Vec<&'static str> {
    let analysis = analyze_trace_jsonl(text, "t", None).expect("parses");
    report_codes(&analysis.report)
}

#[test]
fn sa007_positive_causally_inverted_serialization_races() {
    // The delivery serializes *before* the broadcast that caused it.
    let text = [
        meta(2, None),
        deliver(0, "1", 0),
        step(0, "2", 0, false),
        step(1, "3", 1, true),
        message(0, 1, 0, "3", "1"),
    ]
    .join("\n");
    assert_eq!(trace_codes(&text), ["SA007"]);
}

#[test]
fn sa007_negative_causal_serialization_is_clean() {
    assert_eq!(trace_codes(&conformant_trace()), Vec::<&str>::new());
}

#[test]
fn sa008_positive_close_before_full_port_cover() {
    let text = [
        meta(2, None),
        step(0, "1", 0, false),
        step(1, "2", 1, false),
        r#"{"type":"session","index":1,"closed_at":"1","closed_at_ms":1}"#.to_owned(),
    ]
    .join("\n");
    assert_eq!(trace_codes(&text), ["SA008"]);
}

#[test]
fn sa008_negative_dominated_close_is_clean() {
    assert_eq!(trace_codes(&conformant_trace()), Vec::<&str>::new());
}

#[test]
fn sa009_positive_lockstep_gaps_refute_an_async_claim() {
    let mut lines = vec![meta(2, Some("asynchronous"))];
    for t in 1..=3 {
        lines.push(step(0, &t.to_string(), 0, false));
        lines.push(step(1, &t.to_string(), 1, false));
    }
    assert_eq!(trace_codes(&lines.join("\n")), ["SA009"]);
}

#[test]
fn sa009_negative_lockstep_gaps_match_a_synchronous_claim() {
    let mut lines = vec![meta(2, Some("synchronous"))];
    for t in 1..=3 {
        lines.push(step(0, &t.to_string(), 0, false));
        lines.push(step(1, &t.to_string(), 1, false));
    }
    assert_eq!(trace_codes(&lines.join("\n")), Vec::<&str>::new());
}

// ---------------------------------------------------------------- SA010

fn semisync_scope(gaps: Vec<Dur>, delays: Vec<Dur>) -> Scope {
    Scope {
        n: 2,
        s: 2,
        b: 2,
        model: TimingModel::SemiSynchronous,
        gaps,
        delays,
        max_depth: 24,
    }
}

#[test]
fn sa010_positive_menu_entry_outside_the_model_window_is_dead() {
    // Step window [1, 2] but the menu promises a gap of 5: registry
    // scopes are SA010-clean by construction, so a dead branch has to be
    // planted by hand.
    let bounds = KnownBounds::semi_synchronous(d(1), d(2), d(1)).expect("valid bounds");
    let scope = semisync_scope(vec![d(1), d(5)], vec![Dur::ZERO, d(1)]);
    let findings = dead_branch_findings(&scope, &bounds);
    assert!(
        findings
            .iter()
            .any(|(code, message)| *code == LintCode::DeadTimingBranch
                && message.contains("gap menu entry 5")),
        "{findings:?}"
    );
}

#[test]
fn sa010_negative_in_window_menus_are_alive() {
    let bounds = KnownBounds::semi_synchronous(d(1), d(2), d(1)).expect("valid bounds");
    let scope = semisync_scope(vec![d(1), d(2)], vec![Dur::ZERO, d(1)]);
    assert!(dead_branch_findings(&scope, &bounds).is_empty());
    // And the registry's own scopes stay alive end to end.
    let space = target_space("SemiSyncSm").expect("registry target");
    let report = space.analyze_symbolic(&mut NullRecorder);
    assert!(
        !report_codes(&report).contains(&"SA010"),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------- SA011

#[test]
fn sa011_positive_worst_close_over_a_tight_bound() {
    // A(syn)'s true worst close is c2·s = 3; demand 1 and it must fire.
    let space = target_space("SyncMp").expect("registry target");
    let walk = zone_walk(&space.roots, &space.scope, &space.bounds);
    let (code, message) = bound_finding(walk.worst_close, Some((d(1), "1".to_owned())))
        .expect("bound of 1 must be exceeded");
    assert_eq!(code, LintCode::SymbolicBoundExceeded);
    assert!(message.contains("Table 1 bound"), "{message}");
}

#[test]
fn sa011_negative_table1_bound_is_met() {
    let space = target_space("SyncMp").expect("registry target");
    let report = space.analyze_symbolic(&mut NullRecorder);
    assert_eq!(report_codes(&report), Vec::<&str>::new());
}

// ---------------------------------------------------------------- SA012

#[test]
fn sa012_positive_uncovered_explicit_control_diverges() {
    let zone = [1u64, 2].into_iter().collect();
    let explicit = [1u64, 2, 3].into_iter().collect();
    let (code, message) = coverage_finding(&zone, &explicit).expect("3 is uncovered");
    assert_eq!(code, LintCode::SymbolicDivergence);
    assert!(message.contains("1 control states"), "{message}");
}

#[test]
fn sa012_negative_hull_superset_is_legitimate_over_approximation() {
    // Zone-only controls are the hull exceeding the sampled menus — not
    // a divergence. Equality is clean too.
    let zone = [1u64, 2, 3, 4].into_iter().collect();
    let explicit = [1u64, 2].into_iter().collect();
    assert_eq!(coverage_finding(&zone, &explicit), None);
    assert_eq!(coverage_finding(&explicit, &explicit), None);
}

// -------------------------------------------------------------- closure

/// The registry itself: every stable code has a positive and a negative
/// test above; a new `LintCode` variant fails this match until its tests
/// and the naming convention are extended.
#[test]
fn every_lint_code_has_positive_and_negative_coverage_here() {
    for code in ALL_CODES {
        match code {
            LintCode::SessionDeficit
            | LintCode::BBoundViolation
            | LintCode::StaleEvidence
            | LintCode::InadmissibleStep
            | LintCode::NonTermination
            | LintCode::InfeasibleTiming
            | LintCode::SessionRace
            | LintCode::UnorderedSessionClose
            | LintCode::ModelMismatch
            | LintCode::DeadTimingBranch
            | LintCode::SymbolicBoundExceeded
            | LintCode::SymbolicDivergence => {}
        }
    }
}
