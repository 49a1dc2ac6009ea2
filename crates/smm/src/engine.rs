//! The timed executor for shared-memory systems.

use std::collections::BTreeMap;

use session_obs::{NullRecorder, Recorder};
use session_sim::{EventQueue, RunLimits, RunOutcome, StepKind, StepSchedule, Trace, TraceEvent};
use session_types::{Error, PortId, ProcessId, Result, Time, VarId};

use crate::memory::SharedMemory;
use crate::process::SmProcess;

/// Associates a port with the variable realizing it and the unique port
/// process allowed to take port steps on it (§2.3, condition 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortBinding {
    /// The port.
    pub port: PortId,
    /// The shared variable that is this port.
    pub var: VarId,
    /// The port process corresponding to this port.
    pub process: ProcessId,
}

/// A snapshot of the global state of a shared-memory system: every variable
/// value plus a fingerprint of every process's internal state.
///
/// Used to check, executably, the reordering claims of the lower-bound
/// proofs ("every total order consistent with the dependency order leaves
/// the system in the same global state", Claim 5.2).
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalState<V> {
    /// Variable values in variable order.
    pub vars: Vec<V>,
    /// Per-process state fingerprints in process order.
    pub process_fingerprints: Vec<u64>,
}

/// Executes a shared-memory system under a step schedule, recording a
/// [`Trace`].
///
/// Termination: the run stops as soon as every *watched* process — the port
/// processes when port bindings were given, otherwise all processes — is
/// idle. (The formal model has every process take infinitely many steps;
/// the engine simply stops observing once the algorithm's running time is
/// determined.)
pub struct SmEngine<V> {
    memory: SharedMemory<V>,
    processes: Vec<Box<dyn SmProcess<V>>>,
    bindings: Vec<PortBinding>,
    port_by_var: BTreeMap<VarId, (PortId, ProcessId)>,
    watch: Vec<ProcessId>,
}

impl<V> std::fmt::Debug for SmEngine<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmEngine")
            .field("num_vars", &self.memory.len())
            .field("num_processes", &self.processes.len())
            .field("bindings", &self.bindings)
            .finish_non_exhaustive()
    }
}

impl<V> SmEngine<V> {
    /// Assembles a system from initial variable values, processes, the
    /// fan-in bound `b` and the port bindings.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if there are no processes, or a
    /// binding references a missing variable/process, or two bindings share
    /// a port, variable or process.
    pub fn new(
        initial_values: Vec<V>,
        processes: Vec<Box<dyn SmProcess<V>>>,
        b: usize,
        bindings: Vec<PortBinding>,
    ) -> Result<SmEngine<V>> {
        if processes.is_empty() {
            return Err(Error::invalid_params("SmEngine requires >= 1 process"));
        }
        let mut port_by_var = BTreeMap::new();
        let mut seen_ports = BTreeMap::new();
        let mut seen_procs = BTreeMap::new();
        for binding in &bindings {
            if binding.var.index() >= initial_values.len() {
                return Err(Error::unknown_id(format!("port variable {}", binding.var)));
            }
            if binding.process.index() >= processes.len() {
                return Err(Error::unknown_id(format!(
                    "port process {}",
                    binding.process
                )));
            }
            if port_by_var
                .insert(binding.var, (binding.port, binding.process))
                .is_some()
            {
                return Err(Error::invalid_params(format!(
                    "variable {} bound to two ports",
                    binding.var
                )));
            }
            if seen_ports.insert(binding.port, ()).is_some() {
                return Err(Error::invalid_params(format!(
                    "port {} bound twice",
                    binding.port
                )));
            }
            if seen_procs.insert(binding.process, ()).is_some() {
                return Err(Error::invalid_params(format!(
                    "process {} bound to two ports",
                    binding.process
                )));
            }
        }
        let watch = if bindings.is_empty() {
            (0..processes.len()).map(ProcessId::new).collect()
        } else {
            bindings.iter().map(|b| b.process).collect()
        };
        Ok(SmEngine {
            memory: SharedMemory::new(initial_values, b),
            processes,
            bindings,
            port_by_var,
            watch,
        })
    }

    /// The shared-variable store.
    pub fn memory(&self) -> &SharedMemory<V> {
        &self.memory
    }

    /// The process with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn process(&self, p: ProcessId) -> &dyn SmProcess<V> {
        self.processes[p.index()].as_ref()
    }

    /// The number of processes.
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// The registered port bindings.
    pub fn port_bindings(&self) -> &[PortBinding] {
        &self.bindings
    }

    /// Returns `true` if every watched process is idle.
    pub fn is_quiescent(&self) -> bool {
        self.watch
            .iter()
            .all(|p| self.processes[p.index()].is_idle())
    }

    /// Snapshots the global state (variable values + process fingerprints).
    pub fn global_state(&self) -> GlobalState<V>
    where
        V: Clone,
    {
        GlobalState {
            vars: self.memory.values().to_vec(),
            process_fingerprints: self.processes.iter().map(|p| p.fingerprint()).collect(),
        }
    }

    /// Runs the system under `schedule` until every watched process is idle
    /// or `limits` are exhausted.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::BBoundViolation`] / [`Error::UnknownId`] from a
    /// misbehaving process's variable access.
    pub fn run(
        &mut self,
        schedule: &mut dyn StepSchedule,
        limits: RunLimits,
    ) -> Result<RunOutcome> {
        self.run_recorded(schedule, limits, &mut NullRecorder)
    }

    /// [`SmEngine::run`] with instrumentation: emits `sm.steps`,
    /// `sm.port_steps` and `sched.steps_scheduled` counters plus a final
    /// `sm.end_time_ms` gauge to `recorder`.
    ///
    /// # Errors
    ///
    /// As for [`SmEngine::run`].
    pub fn run_recorded(
        &mut self,
        schedule: &mut dyn StepSchedule,
        limits: RunLimits,
        recorder: &mut dyn Recorder,
    ) -> Result<RunOutcome> {
        let mut trace = Trace::new(self.processes.len());
        if self.is_quiescent() {
            return Ok(RunOutcome {
                trace,
                terminated: true,
                steps: 0,
            });
        }
        let mut queue = EventQueue::new();
        for i in 0..self.processes.len() {
            let p = ProcessId::new(i);
            queue.push(schedule.first_step(p), p);
            recorder.counter("sched.steps_scheduled", 1);
        }
        let mut steps = 0u64;
        #[cfg(feature = "strict-invariants")]
        let mut last_time = Time::ZERO;
        let finish = |trace: Trace, terminated: bool, steps: u64, recorder: &mut dyn Recorder| {
            if recorder.is_enabled() {
                recorder.gauge(
                    "sm.end_time_ms",
                    trace.end_time().unwrap_or(Time::ZERO).to_f64(),
                );
            }
            Ok(RunOutcome {
                trace,
                terminated,
                steps,
            })
        };
        while let Some((now, p)) = queue.pop() {
            #[cfg(feature = "strict-invariants")]
            {
                debug_assert!(now >= last_time, "event times must be nondecreasing");
                last_time = now;
            }
            if !limits.allows(steps, now) {
                return finish(trace, false, steps, recorder);
            }
            let was_port_step = self.execute_step(p, now, &mut trace)?;
            steps += 1;
            recorder.counter("sm.steps", 1);
            if was_port_step {
                recorder.counter("sm.port_steps", 1);
            }
            if self.is_quiescent() {
                return finish(trace, true, steps, recorder);
            }
            queue.push(schedule.next_step(p, now), p);
            recorder.counter("sched.steps_scheduled", 1);
        }
        // Unreachable in practice: each executed step re-enqueues the process.
        let terminated = self.is_quiescent();
        finish(trace, terminated, steps, recorder)
    }

    /// Executes exactly the scripted `(time, process)` steps, in order.
    ///
    /// This is how the lower-bound adversaries replay their reordered and
    /// retimed computations. Times must be nondecreasing.
    ///
    /// # Errors
    ///
    /// Propagates variable-access errors, as for [`SmEngine::run`].
    ///
    /// # Panics
    ///
    /// Panics if the scripted times decrease (a timed computation's time
    /// mapping is nondecreasing by definition).
    pub fn run_scripted(&mut self, script: &[(Time, ProcessId)]) -> Result<RunOutcome> {
        let mut trace = Trace::new(self.processes.len());
        let mut steps = 0u64;
        for &(now, p) in script {
            self.execute_step(p, now, &mut trace)?;
            steps += 1;
        }
        Ok(RunOutcome {
            trace,
            terminated: self.is_quiescent(),
            steps,
        })
    }

    /// Executes one step of `p`, returning whether it was a port step.
    fn execute_step(&mut self, p: ProcessId, now: Time, trace: &mut Trace) -> Result<bool> {
        if p.index() >= self.processes.len() {
            return Err(Error::unknown_id(format!("process {p}")));
        }
        let process = &mut self.processes[p.index()];
        #[cfg(feature = "strict-invariants")]
        let was_idle = process.is_idle();
        let var = process.target();
        self.memory.access(p, var, |value| {
            let new_value = process.step(value);
            *value = new_value;
        })?;
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            !was_idle || self.processes[p.index()].is_idle(),
            "idle states must be closed under steps (process {p} un-idled)"
        );
        let port = self
            .port_by_var
            .get(&var)
            .and_then(|&(port, owner)| (owner == p).then_some(port));
        trace.push(TraceEvent {
            time: now,
            process: p,
            kind: StepKind::VarAccess { var, port },
            idle_after: self.processes[p.index()].is_idle(),
        });
        Ok(port.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use session_sim::FixedPeriods;
    use session_types::Dur;

    /// Counts down `budget` steps on its variable, then idles.
    #[derive(Debug, Hash)]
    struct Countdown {
        var: VarId,
        budget: u32,
    }

    impl SmProcess<u64> for Countdown {
        fn target(&self) -> VarId {
            self.var
        }

        fn step(&mut self, value: &u64) -> u64 {
            if self.budget > 0 {
                self.budget -= 1;
                value + 1
            } else {
                *value
            }
        }

        fn is_idle(&self) -> bool {
            self.budget == 0
        }

        fn fingerprint(&self) -> u64 {
            session_types::fingerprint_of(self)
        }
    }

    fn countdown(var: usize, budget: u32) -> Box<dyn SmProcess<u64>> {
        Box::new(Countdown {
            var: VarId::new(var),
            budget,
        })
    }

    #[test]
    fn run_terminates_when_watched_processes_idle() {
        let mut engine = SmEngine::new(
            vec![0u64, 0],
            vec![countdown(0, 3), countdown(1, 1)],
            2,
            vec![],
        )
        .unwrap();
        let mut sched = FixedPeriods::uniform(2, Dur::from_int(2)).unwrap();
        let outcome = engine.run(&mut sched, RunLimits::default()).unwrap();
        assert!(outcome.terminated);
        // p0 needs 3 steps at period 2 => idle at t=6; p1 idle at t=2.
        assert_eq!(
            outcome
                .trace
                .all_idle_time([ProcessId::new(0), ProcessId::new(1)]),
            Some(Time::from_int(6))
        );
        assert_eq!(engine.memory().value(VarId::new(0)), &3);
        assert_eq!(engine.memory().value(VarId::new(1)), &1);
    }

    #[test]
    fn run_respects_limits() {
        let mut engine = SmEngine::new(vec![0u64], vec![countdown(0, 1000)], 2, vec![]).unwrap();
        let mut sched = FixedPeriods::uniform(1, Dur::from_int(1)).unwrap();
        let outcome = engine
            .run(&mut sched, RunLimits::default().with_max_steps(10))
            .unwrap();
        assert!(!outcome.terminated);
        assert_eq!(outcome.steps, 10);
    }

    #[test]
    fn port_steps_are_tagged_only_for_the_port_process() {
        // Two processes share var 0, which is port y0 owned by process 0.
        let bindings = vec![PortBinding {
            port: PortId::new(0),
            var: VarId::new(0),
            process: ProcessId::new(0),
        }];
        let mut engine = SmEngine::new(
            vec![0u64],
            vec![countdown(0, 2), countdown(0, 2)],
            2,
            bindings,
        )
        .unwrap();
        let mut sched = FixedPeriods::uniform(2, Dur::from_int(1)).unwrap();
        let outcome = engine.run(&mut sched, RunLimits::default()).unwrap();
        let tagged: Vec<ProcessId> = outcome
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, StepKind::VarAccess { port: Some(_), .. }))
            .map(|e| e.process)
            .collect();
        assert!(!tagged.is_empty());
        assert!(tagged.iter().all(|&p| p == ProcessId::new(0)));
    }

    #[test]
    fn watch_defaults_to_ports_when_bound() {
        // Process 1 never idles, but it is not a port process: run must
        // still terminate once the port process is idle.
        #[derive(Debug, Hash)]
        struct Forever(VarId);
        impl SmProcess<u64> for Forever {
            fn target(&self) -> VarId {
                self.0
            }
            fn step(&mut self, value: &u64) -> u64 {
                *value
            }
            fn is_idle(&self) -> bool {
                false
            }

            fn fingerprint(&self) -> u64 {
                session_types::fingerprint_of(self)
            }
        }
        let bindings = vec![PortBinding {
            port: PortId::new(0),
            var: VarId::new(0),
            process: ProcessId::new(0),
        }];
        let mut engine = SmEngine::new(
            vec![0u64, 0],
            vec![countdown(0, 1), Box::new(Forever(VarId::new(1)))],
            2,
            bindings,
        )
        .unwrap();
        let mut sched = FixedPeriods::uniform(2, Dur::from_int(1)).unwrap();
        let outcome = engine.run(&mut sched, RunLimits::default()).unwrap();
        assert!(outcome.terminated);
    }

    #[test]
    fn b_bound_violation_surfaces_from_run() {
        let mut engine = SmEngine::new(
            vec![0u64],
            vec![countdown(0, 5), countdown(0, 5), countdown(0, 5)],
            2,
            vec![],
        )
        .unwrap();
        let mut sched = FixedPeriods::uniform(3, Dur::from_int(1)).unwrap();
        let err = engine.run(&mut sched, RunLimits::default()).unwrap_err();
        assert!(matches!(err, Error::BBoundViolation { .. }));
    }

    #[test]
    fn scripted_run_follows_script_exactly() {
        let mut engine = SmEngine::new(
            vec![0u64],
            vec![countdown(0, 2), countdown(0, 2)],
            2,
            vec![],
        )
        .unwrap();
        let script = vec![
            (Time::from_int(1), ProcessId::new(1)),
            (Time::from_int(1), ProcessId::new(0)),
            (Time::from_int(3), ProcessId::new(1)),
        ];
        let outcome = engine.run_scripted(&script).unwrap();
        assert_eq!(outcome.steps, 3);
        assert!(!outcome.terminated); // p0 still has budget 1
        let order: Vec<ProcessId> = outcome.trace.events().iter().map(|e| e.process).collect();
        assert_eq!(
            order,
            vec![ProcessId::new(1), ProcessId::new(0), ProcessId::new(1)]
        );
    }

    #[test]
    fn reordering_independent_steps_preserves_global_state() {
        // Two processes on two disjoint variables: any interleaving reaches
        // the same global state (the executable content of Claim 5.2 for
        // independent steps).
        let build = || {
            SmEngine::new(
                vec![0u64, 0],
                vec![countdown(0, 2), countdown(1, 2)],
                2,
                vec![],
            )
            .unwrap()
        };
        let mut a = build();
        let mut b = build();
        let t = Time::from_int(1);
        a.run_scripted(&[
            (t, ProcessId::new(0)),
            (t, ProcessId::new(1)),
            (t, ProcessId::new(0)),
            (t, ProcessId::new(1)),
        ])
        .unwrap();
        b.run_scripted(&[
            (t, ProcessId::new(1)),
            (t, ProcessId::new(1)),
            (t, ProcessId::new(0)),
            (t, ProcessId::new(0)),
        ])
        .unwrap();
        assert_eq!(a.global_state(), b.global_state());
    }

    #[test]
    fn binding_validation() {
        let mk_bind = |port, var, process| PortBinding {
            port: PortId::new(port),
            var: VarId::new(var),
            process: ProcessId::new(process),
        };
        // Missing variable.
        assert!(
            SmEngine::new(vec![0u64], vec![countdown(0, 1)], 2, vec![mk_bind(0, 3, 0)]).is_err()
        );
        // Missing process.
        assert!(
            SmEngine::new(vec![0u64], vec![countdown(0, 1)], 2, vec![mk_bind(0, 0, 3)]).is_err()
        );
        // Duplicate port.
        assert!(SmEngine::new(
            vec![0u64, 0],
            vec![countdown(0, 1), countdown(1, 1)],
            2,
            vec![mk_bind(0, 0, 0), mk_bind(0, 1, 1)],
        )
        .is_err());
        // No processes at all.
        assert!(SmEngine::<u64>::new(vec![0u64], vec![], 2, vec![]).is_err());
    }

    #[test]
    fn run_recorded_counts_steps_and_port_steps() {
        let bindings = vec![PortBinding {
            port: PortId::new(0),
            var: VarId::new(0),
            process: ProcessId::new(0),
        }];
        let mut engine = SmEngine::new(
            vec![0u64, 0],
            vec![countdown(0, 3), countdown(1, 2)],
            2,
            bindings,
        )
        .unwrap();
        let mut sched = FixedPeriods::uniform(2, Dur::from_int(1)).unwrap();
        let mut rec = session_obs::InMemoryRecorder::new();
        let outcome = engine
            .run_recorded(&mut sched, RunLimits::default(), &mut rec)
            .unwrap();
        assert!(outcome.terminated);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("sm.steps"), outcome.steps);
        assert_eq!(snap.counter("sm.port_steps"), 3);
        assert!(snap.counter("sched.steps_scheduled") >= outcome.steps);
        assert!(snap.gauge("sm.end_time_ms").is_some());
    }

    #[test]
    fn quiescent_at_start_returns_immediately() {
        let mut engine = SmEngine::new(vec![0u64], vec![countdown(0, 0)], 2, vec![]).unwrap();
        let mut sched = FixedPeriods::uniform(1, Dur::from_int(1)).unwrap();
        let outcome = engine.run(&mut sched, RunLimits::default()).unwrap();
        assert!(outcome.terminated);
        assert_eq!(outcome.steps, 0);
        assert!(outcome.trace.is_empty());
    }
}
