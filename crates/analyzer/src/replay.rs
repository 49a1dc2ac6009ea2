//! Counterexample reconstruction and self-validation.
//!
//! A violation found by [`crate::explore`] is just a path of branch
//! choices. [`replay`] walks the path once from its root, taking the steps
//! the explorers take (`build_menu` + `apply_menu`) with trace recording
//! on. That one walk yields everything the finding is reported with: the
//! code and message the path ends in, the incremental session count, the
//! end machine, a real [`session_sim::Trace`] that can be rendered with
//! `session_sim::render_timeline`, and the step script. No other code
//! walks a finding's path again. [`self_check`] then *distrusts the
//! checker itself*:
//!
//! * the walk must end in the code the search filed the finding under;
//! * the rebuilt trace is checked against the timing model with
//!   `session_core::verify::check_admissible`, and its greedy session
//!   count is recomputed with the reference `count_sessions`, confirming
//!   the walk's incremental counter agreed with it;
//! * for shared-memory machines, the path's step script is fed to the real
//!   [`SmEngine`] via `run_scripted` (which also exercises the
//!   `strict-invariants` debug assertions) and the engine's global state
//!   is compared with the machine's.
//!
//! Any disagreement is reported as `SA004 inadmissible-step`: it means the
//! checker's model of the system drifted from the system itself.

use session_core::verify::{check_admissible, count_sessions};
use session_smm::{PortBinding, SmEngine, SmProcess};
use session_types::{KnownBounds, PortId, ProcessId, Time, VarId};

use crate::diag::LintCode;
use crate::explore::{check_step, session_deficit, AnyMachine, SessionCounter, LASSO};
use crate::machine::Menu;

/// One walk of a path: the finding it ends in, the session count along
/// it, the machine after it, the rebuilt trace and the step script
/// (process steps only).
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// What the path ends in: the code of the first edge whose
    /// [`check_step`] lint fires (the walk stops there), else `SA001` at a
    /// quiescent leaf short of `s` sessions, else `SA005` (a lasso).
    pub code: LintCode,
    /// That finding's one-line message.
    pub message: String,
    /// The incremental session count along the walk, saturated at `s`.
    pub sessions: u64,
    /// The machine state at the end of the walk.
    pub machine: AnyMachine,
    /// The rebuilt trace, identical to what the engine would have
    /// recorded along this schedule.
    pub trace: session_sim::Trace,
    /// The `(time, process)` script of process steps, replayable through
    /// `SmEngine::run_scripted`.
    pub script: Vec<(Time, ProcessId)>,
}

/// Walks `path` from a clone of `root` with an `n`-port session counter
/// saturating at `s`, recording the trace and the step script.
pub fn replay(root: &AnyMachine, n: usize, s: u64, path: &[usize]) -> Counterexample {
    let mut machine = root.clone();
    let mut counter = SessionCounter::new(n, s);
    let mut trace = session_sim::Trace::new(root.num_processes());
    let mut script = Vec::new();
    let mut menu = Menu::default();
    let mut lint = None;
    for &choice in path {
        machine.build_menu(&mut menu);
        let info = machine.apply_menu(&menu, choice, Some(&mut trace));
        if info.is_process_step {
            script.push((info.time, info.process));
        }
        counter.observe(&info);
        lint = check_step(&info, &machine, &counter);
        if lint.is_some() {
            break;
        }
    }
    let (code, message) = lint.unwrap_or_else(|| match session_deficit(&counter, s) {
        Some(message) if machine.is_quiescent() => (LintCode::SessionDeficit, message),
        _ => (LintCode::NonTermination, LASSO.to_string()),
    });
    Counterexample {
        code,
        message,
        sessions: counter.sessions(),
        machine,
        trace,
        script,
    }
}

/// Renders the counterexample as a timeline, capped at `max_lines` lines.
pub fn render(counterexample: &Counterexample, max_lines: usize) -> String {
    session_sim::render_timeline(&counterexample.trace, max_lines)
}

/// Self-checks a finding filed under `code` against its `counterexample`
/// and the reference implementations. Returns the problems found (empty =
/// the counterexample is confirmed).
///
/// * The walk must end in `code` — otherwise the report would show one
///   code with another code's message.
/// * The rebuilt trace must be admissible under `bounds` — otherwise the
///   "counterexample" proves nothing about the algorithm.
/// * When the walk ends in `SA001`, at a quiescent leaf where the
///   full-trace count is meaningful, the reference greedy counter must
///   agree with the walk's incremental count.
/// * A shared-memory path must replay through the real engine to the same
///   global state.
pub fn self_check(
    root: &AnyMachine,
    code: LintCode,
    counterexample: &Counterexample,
    bounds: &KnownBounds,
) -> Vec<String> {
    let mut problems = Vec::new();
    if counterexample.code != code {
        problems.push(format!(
            "the witness path ends in {}, not in {code}: {}",
            counterexample.code, counterexample.message
        ));
    }
    if let Err(err) = check_admissible(&counterexample.trace, bounds) {
        problems.push(format!("rebuilt trace is not admissible: {err}"));
    }
    if counterexample.code == LintCode::SessionDeficit {
        let counted = match root {
            AnyMachine::Sm(m) => count_sessions(&counterexample.trace, m.n_ports(), |_| None),
            AnyMachine::Mp(m) => count_sessions(&counterexample.trace, m.num_processes(), |p| {
                Some(PortId::new(p.index()))
            }),
        };
        if counted != counterexample.sessions {
            problems.push(format!(
                "reference session counter disagrees: counted {counted}, the walk saw {}",
                counterexample.sessions
            ));
        }
    }
    if let AnyMachine::Sm(machine) = root {
        if let Err(err) = replay_through_engine(machine, counterexample) {
            problems.push(err);
        }
    }
    problems
}

/// Feeds the counterexample's step script to a freshly built real
/// [`SmEngine`] and compares global states with the machine.
fn replay_through_engine(
    root: &crate::machine::SmMachine,
    counterexample: &Counterexample,
) -> Result<(), String> {
    let AnyMachine::Sm(end) = &counterexample.machine else {
        return Err("shared-memory root replayed to a message-passing machine".to_string());
    };
    let processes: Vec<Box<dyn SmProcess<session_smm::Knowledge>>> = root
        .algos()
        .iter()
        .map(|algo| Box::new((**algo).clone()) as Box<dyn SmProcess<session_smm::Knowledge>>)
        .collect();
    let bindings = (0..root.n_ports())
        .map(|i| PortBinding {
            port: PortId::new(i),
            var: VarId::new(i),
            process: ProcessId::new(i),
        })
        .collect();
    let initial = vec![session_smm::Knowledge::new(); root.memory().len()];
    let mut engine = SmEngine::new(initial, processes, root.b(), bindings)
        .map_err(|err| format!("engine rebuild failed: {err}"))?;
    let outcome = engine
        .run_scripted(&counterexample.script)
        .map_err(|err| format!("engine replay failed: {err}"))?;
    let state = engine.global_state();
    let machine_vars_match = state.vars.len() == end.memory().len()
        && state
            .vars
            .iter()
            .zip(end.memory())
            .all(|(engine_value, machine_value)| engine_value == machine_value.as_ref());
    if !machine_vars_match {
        return Err("engine replay reached different variable values".to_string());
    }
    if state.process_fingerprints != end.fingerprints() {
        return Err("engine replay reached different process states".to_string());
    }
    if outcome.trace.events().len() != counterexample.script.len() {
        return Err("engine replay recorded a different number of steps".to_string());
    }
    Ok(())
}

/// Renders a repro string: the root index and the branch-choice path,
/// enough to replay the counterexample deterministically.
pub fn repro_string(root_index: usize, path: &[usize]) -> String {
    let choices: Vec<String> = path.iter().map(ToString::to_string).collect();
    format!("root={} path={}", root_index, choices.join("."))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{sm_system_algos, GapMode, SmAlgo, SmMachine};
    use session_core::algorithms::SyncSmPort;
    use session_types::Dur;

    fn sync_root(n: usize, s: u64) -> AnyMachine {
        let ports: Vec<SmAlgo> = (0..n)
            .map(|i| SmAlgo::Sync(SyncSmPort::new(VarId::new(i), s)))
            .collect();
        let (algos, num_vars) = sm_system_algos(ports, n, 2);
        let k = algos.len();
        let gap = Dur::from_int(1);
        AnyMachine::Sm(SmMachine::new(
            algos,
            num_vars,
            2,
            n,
            GapMode::PerStep(vec![gap]),
            vec![Time::ZERO + gap; k],
        ))
    }

    #[test]
    fn replay_rebuilds_trace_and_script() {
        let root = sync_root(2, 1);
        // Round-robin everything once: choices 0, 0, 0 step p0, p1, relay.
        let counterexample = replay(&root, 2, 1, &[0, 0, 0]);
        assert_eq!(counterexample.trace.events().len(), 3);
        assert_eq!(counterexample.script.len(), 3);
        assert_eq!(counterexample.sessions, 1);
        assert!(!render(&counterexample, 10).is_empty());
    }

    #[test]
    fn replay_ends_in_the_deficit_or_the_lasso() {
        let root = sync_root(2, 1);
        // Both ports step once and idle: one session, quiescent.
        let short = replay(&root, 2, 2, &[0, 0]);
        assert_eq!(short.code, LintCode::SessionDeficit);
        assert_eq!(
            short.message,
            "admissible schedule reaches quiescence with 1 of 2 required sessions"
        );
        let enough = replay(&root, 2, 1, &[0, 0]);
        assert_eq!(enough.code, LintCode::NonTermination);
        assert_eq!(enough.message, LASSO);
    }

    fn sync_bounds() -> KnownBounds {
        KnownBounds::synchronous(Dur::from_int(1), Dur::from_int(1)).expect("valid bounds")
    }

    /// A path whose walk ends in another code than the one it is filed
    /// under is a self-check problem, in every build.
    #[test]
    fn self_check_catches_a_walk_ending_in_another_code() {
        let root = sync_root(2, 1);
        let counterexample = replay(&root, 2, 1, &[0, 0]);
        let filed = |code| self_check(&root, code, &counterexample, &sync_bounds());
        assert!(filed(LintCode::NonTermination).is_empty());
        let problems = filed(LintCode::SessionDeficit);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("ends in SA005"), "{problems:?}");
        assert!(problems[0].contains("not in SA001"), "{problems:?}");
    }

    #[test]
    fn self_check_confirms_a_clean_replay() {
        let root = sync_root(2, 1);
        let counterexample = replay(&root, 2, 2, &[0, 0]);
        let deficit = LintCode::SessionDeficit;
        let problems = self_check(&root, deficit, &counterexample, &sync_bounds());
        assert!(problems.is_empty(), "problems: {problems:?}");
    }

    #[test]
    fn self_check_catches_wrong_session_expectation() {
        let root = sync_root(2, 1);
        let mut counterexample = replay(&root, 2, 2, &[0, 0]);
        counterexample.sessions = 7;
        let deficit = LintCode::SessionDeficit;
        let problems = self_check(&root, deficit, &counterexample, &sync_bounds());
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("disagrees"));
    }

    #[test]
    fn repro_string_is_deterministic() {
        assert_eq!(repro_string(2, &[0, 3, 1]), "root=2 path=0.3.1");
        assert_eq!(repro_string(0, &[]), "root=0 path=");
    }
}
