//! The timed executor for message-passing systems.

use std::collections::BTreeMap;

use session_obs::{NullRecorder, Recorder};
use session_sim::{
    DelayPolicy, EventQueue, RunLimits, RunOutcome, StepKind, StepSchedule, Trace, TraceEvent,
};
use session_types::{Error, MsgId, PortId, ProcessId, Result};

use crate::process::{step_process, Envelope, MpProcess};

/// What the event queue schedules: a process step or a network delivery.
enum Event<M> {
    Step(ProcessId),
    Deliver {
        to: ProcessId,
        envelope: Envelope<M>,
        msg: MsgId,
    },
}

/// Executes a message-passing system under a step schedule and a delay
/// policy, recording a [`Trace`].
///
/// The network process `N` of the formal model is realized as delivery
/// events: one per (message, recipient) pair, scheduled at
/// `send time + delay`, where the delay is chosen by the
/// [`DelayPolicy`]. This is an equivalent formulation — each delivery event
/// *is* a step of `N` — documented as such in DESIGN.md.
///
/// Termination: the run stops as soon as every port process is idle.
pub struct MpEngine<M> {
    processes: Vec<Box<dyn MpProcess<M>>>,
    bufs: Vec<Vec<Envelope<M>>>,
    port_of: BTreeMap<ProcessId, PortId>,
}

impl<M> std::fmt::Debug for MpEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpEngine")
            .field("num_processes", &self.processes.len())
            .field("ports", &self.port_of)
            .finish_non_exhaustive()
    }
}

impl<M: Clone> MpEngine<M> {
    /// Assembles a system from its regular processes and the port
    /// assignment (`buf_p` of each listed process is a port).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if there are no processes or the
    /// port map references a missing process or assigns one port twice.
    pub fn new(
        processes: Vec<Box<dyn MpProcess<M>>>,
        ports: Vec<(ProcessId, PortId)>,
    ) -> Result<MpEngine<M>> {
        if processes.is_empty() {
            return Err(Error::invalid_params("MpEngine requires >= 1 process"));
        }
        let mut port_of = BTreeMap::new();
        let mut seen_ports = BTreeMap::new();
        for (p, y) in ports {
            if p.index() >= processes.len() {
                return Err(Error::unknown_id(format!("port process {p}")));
            }
            if port_of.insert(p, y).is_some() {
                return Err(Error::invalid_params(format!(
                    "process {p} assigned two ports"
                )));
            }
            if seen_ports.insert(y, ()).is_some() {
                return Err(Error::invalid_params(format!("port {y} assigned twice")));
            }
        }
        let bufs = processes.iter().map(|_| Vec::new()).collect();
        Ok(MpEngine {
            processes,
            bufs,
            port_of,
        })
    }

    /// The number of regular processes.
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// The process with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn process(&self, p: ProcessId) -> &dyn MpProcess<M> {
        self.processes[p.index()].as_ref()
    }

    /// The port realized by `p`'s buffer, if `p` is a port process.
    pub fn port_of(&self, p: ProcessId) -> Option<PortId> {
        self.port_of.get(&p).copied()
    }

    /// Returns `true` if every port process is idle (every process, if no
    /// ports were assigned).
    pub fn is_quiescent(&self) -> bool {
        if self.port_of.is_empty() {
            self.processes.iter().all(|p| p.is_idle())
        } else {
            self.port_of
                .keys()
                .all(|p| self.processes[p.index()].is_idle())
        }
    }

    /// Per-process state fingerprints, for global-state comparisons.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.processes.iter().map(|p| p.fingerprint()).collect()
    }

    /// Runs the system until every port process is idle or `limits` are
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Currently infallible at runtime (validation happens in
    /// [`MpEngine::new`]); the `Result` is kept for interface symmetry with
    /// the shared-memory engine and future failure injection.
    pub fn run(
        &mut self,
        schedule: &mut dyn StepSchedule,
        delays: &mut dyn DelayPolicy,
        limits: RunLimits,
    ) -> Result<RunOutcome> {
        self.run_recorded(schedule, delays, limits, &mut NullRecorder)
    }

    /// [`MpEngine::run`] with instrumentation: emits `mp.steps`,
    /// `mp.broadcasts`, `mp.messages_sent`, `mp.messages_delivered` and
    /// `sched.steps_scheduled` counters, an `mp.buffer_occupancy`
    /// histogram (messages in the buffer at each process step) and a final
    /// `mp.end_time_ms` gauge to `recorder`.
    ///
    /// # Errors
    ///
    /// As for [`MpEngine::run`].
    #[allow(clippy::too_many_lines)]
    pub fn run_recorded(
        &mut self,
        schedule: &mut dyn StepSchedule,
        delays: &mut dyn DelayPolicy,
        limits: RunLimits,
        recorder: &mut dyn Recorder,
    ) -> Result<RunOutcome> {
        let n = self.processes.len();
        let mut trace = Trace::new(n);
        if self.is_quiescent() {
            return Ok(RunOutcome {
                trace,
                terminated: true,
                steps: 0,
            });
        }
        let mut queue: EventQueue<Event<M>> = EventQueue::new();
        for i in 0..n {
            let p = ProcessId::new(i);
            queue.push(schedule.first_step(p), Event::Step(p));
            recorder.counter("sched.steps_scheduled", 1);
        }
        let mut steps = 0u64;
        let finish = |trace: Trace, terminated: bool, steps: u64, recorder: &mut dyn Recorder| {
            if recorder.is_enabled() {
                recorder.gauge(
                    "mp.end_time_ms",
                    trace
                        .end_time()
                        .unwrap_or(session_types::Time::ZERO)
                        .to_f64(),
                );
            }
            Ok(RunOutcome {
                trace,
                terminated,
                steps,
            })
        };
        #[cfg(feature = "strict-invariants")]
        let mut last_time = session_types::Time::ZERO;
        while let Some((now, event)) = queue.pop() {
            #[cfg(feature = "strict-invariants")]
            {
                debug_assert!(now >= last_time, "event times must be nondecreasing");
                last_time = now;
            }
            match event {
                Event::Deliver { to, envelope, msg } => {
                    self.bufs[to.index()].push(envelope);
                    trace.record_delivery(msg, now);
                    recorder.counter("mp.messages_delivered", 1);
                    trace.push(TraceEvent {
                        time: now,
                        process: to,
                        kind: StepKind::Deliver { msg },
                        idle_after: self.processes[to.index()].is_idle(),
                    });
                }
                Event::Step(p) => {
                    if !limits.allows(steps, now) {
                        return finish(trace, false, steps, recorder);
                    }
                    let inbox = std::mem::take(&mut self.bufs[p.index()]);
                    if recorder.is_enabled() {
                        recorder.observe("mp.buffer_occupancy", inbox.len() as f64);
                    }
                    let result = step_process(self.processes[p.index()].as_mut(), inbox);
                    let received = result.received;
                    let broadcast = result.broadcast.is_some();
                    if let Some(payload) = result.broadcast {
                        recorder.counter("mp.broadcasts", 1);
                        recorder.counter("mp.messages_sent", n as u64);
                        for q in 0..n {
                            let to = ProcessId::new(q);
                            let msg = trace.record_send(p, to, now);
                            let delay = delays.delay(p, to, now);
                            debug_assert!(
                                !delay.is_negative(),
                                "delay policies must return nonnegative delays"
                            );
                            queue.push(
                                now + delay,
                                Event::Deliver {
                                    to,
                                    envelope: Envelope::new(p, payload.clone()),
                                    msg,
                                },
                            );
                        }
                    }
                    trace.push(TraceEvent {
                        time: now,
                        process: p,
                        kind: StepKind::MpStep {
                            received,
                            broadcast,
                        },
                        idle_after: result.idle_after,
                    });
                    steps += 1;
                    recorder.counter("mp.steps", 1);
                    if self.is_quiescent() {
                        return finish(trace, true, steps, recorder);
                    }
                    queue.push(schedule.next_step(p, now), Event::Step(p));
                    recorder.counter("sched.steps_scheduled", 1);
                }
            }
        }
        // Unreachable in practice: each step re-enqueues its process.
        let terminated = self.is_quiescent();
        finish(trace, terminated, steps, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use session_sim::{ConstantDelay, FixedPeriods, ScriptedDelay, UniformDelay};
    use session_types::Dur;

    /// Broadcasts its step count every step; idles after hearing `goal`
    /// messages.
    #[derive(Debug, Hash)]
    struct Chatter {
        sent: u64,
        heard: usize,
        goal: usize,
    }

    impl MpProcess<u64> for Chatter {
        fn step(&mut self, inbox: Vec<Envelope<u64>>) -> Option<u64> {
            self.heard += inbox.len();
            if self.is_idle() {
                return None;
            }
            self.sent += 1;
            Some(self.sent)
        }

        fn is_idle(&self) -> bool {
            self.heard >= self.goal
        }

        fn fingerprint(&self) -> u64 {
            session_types::fingerprint_of(self)
        }
    }

    fn chatters(n: usize, goal: usize) -> Vec<Box<dyn MpProcess<u64>>> {
        (0..n)
            .map(|_| {
                Box::new(Chatter {
                    sent: 0,
                    heard: 0,
                    goal,
                }) as Box<dyn MpProcess<u64>>
            })
            .collect()
    }

    fn all_ports(n: usize) -> Vec<(ProcessId, PortId)> {
        (0..n)
            .map(|i| (ProcessId::new(i), PortId::new(i)))
            .collect()
    }

    #[test]
    fn broadcast_reaches_every_process_including_sender() {
        let mut engine = MpEngine::new(chatters(3, 3), all_ports(3)).unwrap();
        let mut sched = FixedPeriods::uniform(3, Dur::from_int(1)).unwrap();
        let mut delays = ConstantDelay::new(Dur::ZERO).unwrap();
        let outcome = engine
            .run(&mut sched, &mut delays, RunLimits::default())
            .unwrap();
        assert!(outcome.terminated);
        // The first broadcast creates exactly 3 message instances.
        let first_sender = outcome.trace.messages()[0].from;
        let first_batch: Vec<_> = outcome
            .trace
            .messages()
            .iter()
            .take(3)
            .filter(|m| m.from == first_sender)
            .collect();
        assert_eq!(first_batch.len(), 3);
        let recipients: std::collections::BTreeSet<ProcessId> =
            first_batch.iter().map(|m| m.to).collect();
        assert_eq!(recipients.len(), 3);
        assert!(recipients.contains(&first_sender), "self-delivery required");
    }

    #[test]
    fn delays_are_recorded_exactly() {
        let mut engine = MpEngine::new(chatters(2, 2), all_ports(2)).unwrap();
        let mut sched = FixedPeriods::uniform(2, Dur::from_int(1)).unwrap();
        let mut delays = ConstantDelay::new(Dur::from_int(5)).unwrap();
        let outcome = engine
            .run(&mut sched, &mut delays, RunLimits::default())
            .unwrap();
        for m in outcome.trace.messages() {
            if let Some(delay) = m.delay() {
                assert_eq!(delay, Dur::from_int(5));
            }
        }
    }

    #[test]
    fn uniform_delays_stay_in_window() {
        let d1 = Dur::from_int(1);
        let d2 = Dur::from_int(4);
        let mut engine = MpEngine::new(chatters(3, 5), all_ports(3)).unwrap();
        let mut sched = FixedPeriods::uniform(3, Dur::from_int(1)).unwrap();
        let mut delays = UniformDelay::new(d1, d2, 7).unwrap();
        let outcome = engine
            .run(&mut sched, &mut delays, RunLimits::default())
            .unwrap();
        let mut seen = 0;
        for m in outcome.trace.messages() {
            if let Some(delay) = m.delay() {
                assert!(delay >= d1 && delay <= d2);
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn buffered_messages_wait_for_recipient_step() {
        // With delay 0, a message sent at t=1 is delivered at t=1 but only
        // received at the recipient's next step (t=2 with period 1 steps at
        // 1, 2, 3, ...). The paper's delay measure must still be 0.
        let mut engine = MpEngine::new(chatters(2, 100), all_ports(2)).unwrap();
        let mut sched = FixedPeriods::uniform(2, Dur::from_int(1)).unwrap();
        let mut delays = ConstantDelay::new(Dur::ZERO).unwrap();
        let outcome = engine
            .run(
                &mut sched,
                &mut delays,
                RunLimits::default().with_max_steps(20),
            )
            .unwrap();
        assert!(!outcome.terminated); // goal unreachable in 20 steps
        let m0 = &outcome.trace.messages()[0];
        assert_eq!(m0.delay(), Some(Dur::ZERO));
        // Find the step that received it: must be strictly after the send.
        let recv_step = outcome
            .trace
            .events()
            .iter()
            .find(|e| {
                e.process == m0.to
                    && matches!(e.kind, StepKind::MpStep { received, .. } if received > 0)
            })
            .unwrap();
        assert!(recv_step.time > m0.sent_at);
    }

    #[test]
    fn scripted_delays_apply_in_send_order() {
        let mut engine = MpEngine::new(chatters(1, 1000), all_ports(1)).unwrap();
        let mut sched = FixedPeriods::uniform(1, Dur::from_int(1)).unwrap();
        let mut delays = ScriptedDelay::new(vec![Dur::from_int(9)], Dur::from_int(1)).unwrap();
        let outcome = engine
            .run(
                &mut sched,
                &mut delays,
                RunLimits::default().with_max_steps(30),
            )
            .unwrap();
        assert_eq!(outcome.trace.messages()[0].delay(), Some(Dur::from_int(9)));
    }

    #[test]
    fn validation_rejects_bad_port_maps() {
        assert!(MpEngine::new(chatters(1, 1), vec![(ProcessId::new(5), PortId::new(0))]).is_err());
        assert!(MpEngine::new(
            chatters(2, 1),
            vec![
                (ProcessId::new(0), PortId::new(0)),
                (ProcessId::new(0), PortId::new(1)),
            ],
        )
        .is_err());
        assert!(MpEngine::new(
            chatters(2, 1),
            vec![
                (ProcessId::new(0), PortId::new(0)),
                (ProcessId::new(1), PortId::new(0)),
            ],
        )
        .is_err());
        assert!(MpEngine::<u64>::new(vec![], vec![]).is_err());
    }

    #[test]
    fn limits_stop_nonterminating_runs() {
        let mut engine = MpEngine::new(chatters(2, usize::MAX), all_ports(2)).unwrap();
        let mut sched = FixedPeriods::uniform(2, Dur::from_int(1)).unwrap();
        let mut delays = ConstantDelay::new(Dur::ZERO).unwrap();
        let outcome = engine
            .run(
                &mut sched,
                &mut delays,
                RunLimits::default().with_max_steps(50),
            )
            .unwrap();
        assert!(!outcome.terminated);
        assert_eq!(outcome.steps, 50);
    }

    #[test]
    fn run_recorded_tracks_messages_and_buffers() {
        let mut engine = MpEngine::new(chatters(3, 3), all_ports(3)).unwrap();
        let mut sched = FixedPeriods::uniform(3, Dur::from_int(1)).unwrap();
        let mut delays = ConstantDelay::new(Dur::ZERO).unwrap();
        let mut rec = session_obs::InMemoryRecorder::new();
        let outcome = engine
            .run_recorded(&mut sched, &mut delays, RunLimits::default(), &mut rec)
            .unwrap();
        assert!(outcome.terminated);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("mp.steps"), outcome.steps);
        assert_eq!(
            snap.counter("mp.messages_sent"),
            outcome.trace.messages().len() as u64
        );
        assert_eq!(
            snap.counter("mp.messages_delivered"),
            outcome
                .trace
                .messages()
                .iter()
                .filter(|m| m.delivered_at.is_some())
                .count() as u64
        );
        assert_eq!(
            snap.counter("mp.broadcasts") * 3,
            snap.counter("mp.messages_sent")
        );
        let occupancy = snap.histogram("mp.buffer_occupancy").unwrap();
        assert_eq!(occupancy.count(), outcome.steps);
    }

    #[test]
    fn port_of_and_quiescence() {
        let engine = MpEngine::new(chatters(2, 0), all_ports(2)).unwrap();
        assert_eq!(engine.port_of(ProcessId::new(1)), Some(PortId::new(1)));
        assert_eq!(engine.num_processes(), 2);
        // goal 0 means idle from the start
        assert!(engine.is_quiescent());
    }
}
