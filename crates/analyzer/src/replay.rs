//! Counterexample reconstruction and self-validation.
//!
//! A violation found by [`crate::explore`] is just a path of branch
//! choices. This module replays the path through a clone of the root
//! machine with trace recording on, producing a real
//! [`session_sim::Trace`] that can be rendered with
//! `session_sim::render_timeline` — and then *distrusts the checker
//! itself* twice over:
//!
//! * the rebuilt trace is checked against the timing model with
//!   `session_core::verify::check_admissible`, and its greedy session
//!   count is recomputed with the reference `count_sessions`, confirming
//!   the explorer's incremental counter agreed with it;
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

use crate::explore::AnyMachine;

/// A reconstructed counterexample: the machine after the full path, the
/// rebuilt trace, and the step script (process steps only).
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The machine state after replaying the whole path.
    pub machine: AnyMachine,
    /// The rebuilt trace, identical to what the engine would have
    /// recorded along this schedule.
    pub trace: session_sim::Trace,
    /// The `(time, process)` script of process steps, replayable through
    /// `SmEngine::run_scripted`.
    pub script: Vec<(Time, ProcessId)>,
}

/// Replays `path` through a clone of `root` with trace recording on.
pub fn replay(root: &AnyMachine, path: &[usize]) -> Counterexample {
    let mut machine = root.clone();
    let mut trace = session_sim::Trace::new(num_processes(root));
    let mut script = Vec::new();
    for &choice in path {
        let info = machine.apply(choice, Some(&mut trace));
        if info.is_process_step {
            script.push((info.time, info.process));
        }
    }
    Counterexample {
        machine,
        trace,
        script,
    }
}

fn num_processes(machine: &AnyMachine) -> usize {
    match machine {
        AnyMachine::Sm(m) => m.algos().len(),
        AnyMachine::Mp(m) => m.num_processes(),
    }
}

/// Renders the counterexample as a timeline, capped at `max_lines` lines.
pub fn render(counterexample: &Counterexample, max_lines: usize) -> String {
    session_sim::render_timeline(&counterexample.trace, max_lines)
}

/// Self-checks a counterexample against the reference implementations.
/// Returns the problems found (empty = the counterexample is confirmed).
///
/// * The rebuilt trace must be admissible under `bounds` — otherwise the
///   "counterexample" proves nothing about the algorithm.
/// * The reference greedy counter must agree with the explorer's
///   incremental count (`expected_sessions`, when the violation fired at a
///   quiescent leaf and the full-trace count is meaningful).
/// * A shared-memory path must replay through the real engine to the same
///   global state.
pub fn self_check(
    root: &AnyMachine,
    counterexample: &Counterexample,
    bounds: &KnownBounds,
    expected_sessions: Option<u64>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(err) = check_admissible(&counterexample.trace, bounds) {
        problems.push(format!("rebuilt trace is not admissible: {err}"));
    }
    if let Some(expected) = expected_sessions {
        let n = match root {
            AnyMachine::Sm(m) => m.n_ports(),
            AnyMachine::Mp(m) => m.num_processes(),
        };
        let counted = match root {
            AnyMachine::Sm(_) => count_sessions(&counterexample.trace, n, |_| None),
            AnyMachine::Mp(_) => count_sessions(&counterexample.trace, n, |p: ProcessId| {
                (p.index() < n).then(|| PortId::new(p.index()))
            }),
        };
        if counted != expected {
            problems.push(format!(
                "reference session counter disagrees: counted {counted}, explorer saw {expected}"
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
        let counterexample = replay(&root, &[0, 0, 0]);
        assert_eq!(counterexample.trace.events().len(), 3);
        assert_eq!(counterexample.script.len(), 3);
        assert!(!render(&counterexample, 10).is_empty());
    }

    #[test]
    fn self_check_confirms_a_clean_replay() {
        let root = sync_root(2, 1);
        let counterexample = replay(&root, &[0, 0]);
        let bounds =
            KnownBounds::synchronous(Dur::from_int(1), Dur::from_int(1)).expect("valid bounds");
        let problems = self_check(&root, &counterexample, &bounds, Some(1));
        assert!(problems.is_empty(), "problems: {problems:?}");
    }

    #[test]
    fn self_check_catches_wrong_session_expectation() {
        let root = sync_root(2, 1);
        let counterexample = replay(&root, &[0, 0]);
        let bounds =
            KnownBounds::synchronous(Dur::from_int(1), Dur::from_int(1)).expect("valid bounds");
        let problems = self_check(&root, &counterexample, &bounds, Some(7));
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("disagrees"));
    }

    #[test]
    fn repro_string_is_deterministic() {
        assert_eq!(repro_string(2, &[0, 3, 1]), "root=2 path=0.3.1");
        assert_eq!(repro_string(0, &[]), "root=0 path=");
    }
}
