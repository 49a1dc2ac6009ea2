//! Failure-injection tests for the shared-memory engine: every misuse must
//! surface as a structured error, never as silent corruption.

use session_sim::{FixedPeriods, RunLimits};
use session_smm::{JoinSemiLattice, Knowledge, PortBinding, SmEngine, SmProcess};
use session_types::{Dur, Error, PortId, ProcessId, Time, VarId};

/// A process that can be configured to misbehave by targeting any variable.
#[derive(Debug, Hash)]
struct Configurable {
    target: VarId,
    steps: u64,
}

impl SmProcess<Knowledge> for Configurable {
    fn target(&self) -> VarId {
        self.target
    }
    fn step(&mut self, value: &Knowledge) -> Knowledge {
        self.steps += 1;
        let mut k = Knowledge::bottom();
        k.join(value);
        k
    }
    fn is_idle(&self) -> bool {
        self.steps >= 2
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

fn boxed(target: usize) -> Box<dyn SmProcess<Knowledge>> {
    Box::new(Configurable {
        target: VarId::new(target),
        steps: 0,
    })
}

#[test]
fn scripted_step_for_unknown_process_errors() {
    let mut engine = SmEngine::new(vec![Knowledge::new()], vec![boxed(0)], 2, vec![]).unwrap();
    let err = engine
        .run_scripted(&[(Time::from_int(1), ProcessId::new(7))])
        .unwrap_err();
    assert!(matches!(err, Error::UnknownId { .. }), "{err}");
}

#[test]
fn targeting_a_missing_variable_errors() {
    let mut engine = SmEngine::new(vec![Knowledge::new()], vec![boxed(5)], 2, vec![]).unwrap();
    let mut sched = FixedPeriods::uniform(1, Dur::ONE).unwrap();
    let err = engine.run(&mut sched, RunLimits::default()).unwrap_err();
    assert!(matches!(err, Error::UnknownId { .. }), "{err}");
}

#[test]
fn b_bound_error_names_the_offender() {
    let mut engine = SmEngine::new(
        vec![Knowledge::new()],
        vec![boxed(0), boxed(0), boxed(0)],
        2,
        vec![],
    )
    .unwrap();
    let mut sched = FixedPeriods::uniform(3, Dur::ONE).unwrap();
    let err = engine.run(&mut sched, RunLimits::default()).unwrap_err();
    match err {
        Error::BBoundViolation {
            var,
            bound,
            process,
        } => {
            assert_eq!(var, VarId::new(0));
            assert_eq!(bound, 2);
            assert_eq!(process, ProcessId::new(2), "FIFO order: p2 is third");
        }
        other => panic!("expected BBoundViolation, got {other}"),
    }
}

#[test]
fn port_binding_to_variable_owned_by_wrong_process_is_structural() {
    // Binding port 0's variable to process 1 while process 0 actually
    // accesses it: construction succeeds (the engine cannot know targets
    // in advance), but process 0's accesses are then NOT port steps.
    let bindings = vec![PortBinding {
        port: PortId::new(0),
        var: VarId::new(0),
        process: ProcessId::new(1),
    }];
    let mut engine = SmEngine::new(
        vec![Knowledge::new(), Knowledge::new()],
        vec![boxed(0), boxed(1)],
        2,
        bindings,
    )
    .unwrap();
    let mut sched = FixedPeriods::uniform(2, Dur::ONE).unwrap();
    let outcome = engine.run(&mut sched, RunLimits::default()).unwrap();
    let port_steps = outcome
        .trace
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                session_sim::StepKind::VarAccess { port: Some(_), .. }
            )
        })
        .count();
    assert_eq!(
        port_steps, 0,
        "process 0's accesses to x0 are not port steps of process 1's port"
    );
}

#[test]
fn zero_step_budget_reports_nontermination_immediately() {
    let mut engine = SmEngine::new(vec![Knowledge::new()], vec![boxed(0)], 2, vec![]).unwrap();
    let mut sched = FixedPeriods::uniform(1, Dur::ONE).unwrap();
    let outcome = engine
        .run(&mut sched, RunLimits::default().with_max_steps(0))
        .unwrap();
    assert!(!outcome.terminated);
    assert_eq!(outcome.steps, 0);
}

#[test]
fn time_budget_cuts_the_run() {
    let mut engine = SmEngine::new(
        vec![Knowledge::new()],
        vec![Box::new(Configurable {
            target: VarId::new(0),
            steps: 0,
        }) as Box<dyn SmProcess<Knowledge>>],
        2,
        vec![],
    )
    .unwrap();
    // Needs 2 steps at period 5 (idle at t = 10), but time budget is 7.
    let mut sched = FixedPeriods::uniform(1, Dur::from_int(5)).unwrap();
    let outcome = engine
        .run(
            &mut sched,
            RunLimits::default().with_max_time(Time::from_int(7)),
        )
        .unwrap();
    assert!(!outcome.terminated);
    assert_eq!(outcome.steps, 1);
}
