//! Edge-case and failure-injection tests for the message-passing engine.

use session_mpm::{Envelope, MpEngine, MpProcess};
use session_sim::{ConstantDelay, ExplicitSchedule, FixedPeriods, RunLimits, StepKind};
use session_types::{Dur, PortId, ProcessId, Time};

/// Broadcasts its own id value once, then echoes nothing; idles on demand.
#[derive(Debug, Hash)]
struct Once {
    sent: bool,
    idle_after_steps: u64,
    steps: u64,
}

impl MpProcess<u32> for Once {
    fn step(&mut self, _inbox: Vec<Envelope<u32>>) -> Option<u32> {
        self.steps += 1;
        if !self.sent {
            self.sent = true;
            Some(7)
        } else {
            None
        }
    }
    fn is_idle(&self) -> bool {
        self.steps >= self.idle_after_steps
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

fn once(idle_after_steps: u64) -> Box<dyn MpProcess<u32>> {
    Box::new(Once {
        sent: false,
        idle_after_steps,
        steps: 0,
    })
}

fn ports(n: usize) -> Vec<(ProcessId, PortId)> {
    (0..n)
        .map(|i| (ProcessId::new(i), PortId::new(i)))
        .collect()
}

#[test]
fn termination_drops_pending_deliveries_without_corruption() {
    // Both processes idle at step 1; their broadcasts (delay 100) are still
    // in flight when the run stops. The trace must show the sends as
    // undelivered rather than panicking or inventing deliveries.
    let mut engine = MpEngine::new(vec![once(1), once(1)], ports(2)).unwrap();
    let mut sched = FixedPeriods::uniform(2, Dur::ONE).unwrap();
    let mut delays = ConstantDelay::new(Dur::from_int(100)).unwrap();
    let outcome = engine
        .run(&mut sched, &mut delays, RunLimits::default())
        .unwrap();
    assert!(outcome.terminated);
    assert_eq!(outcome.trace.messages().len(), 4); // 2 broadcasts × 2 recipients
    assert!(outcome
        .trace
        .messages()
        .iter()
        .all(|m| m.delivered_at.is_none()));
}

#[test]
fn deliveries_between_steps_accumulate_in_the_buffer() {
    // p1 steps rarely; p0's early broadcast must wait in p1's buffer and
    // arrive in full at p1's next step.
    let mut scripted = std::collections::BTreeMap::new();
    scripted.insert(ProcessId::new(0), vec![Time::from_int(1)]);
    scripted.insert(ProcessId::new(1), vec![Time::from_int(50)]);
    let mut sched = ExplicitSchedule::new(scripted, Dur::from_int(100)).unwrap();
    let mut engine = MpEngine::new(vec![once(1), once(1)], ports(2)).unwrap();
    let mut delays = ConstantDelay::new(Dur::from_int(2)).unwrap();
    let outcome = engine
        .run(&mut sched, &mut delays, RunLimits::default())
        .unwrap();
    let p1_step = outcome
        .trace
        .events()
        .iter()
        .find(|e| e.process == ProcessId::new(1) && matches!(e.kind, StepKind::MpStep { .. }))
        .expect("p1 stepped");
    assert_eq!(p1_step.time, Time::from_int(50));
    match p1_step.kind {
        StepKind::MpStep { received, .. } => {
            assert_eq!(received, 1, "p0's broadcast waited in the buffer");
        }
        _ => unreachable!(),
    }
    // The recorded delay is 2, not 49: buffer time does not count (§2.1.2).
    let to_p1 = outcome
        .trace
        .messages()
        .iter()
        .find(|m| m.to == ProcessId::new(1) && m.from == ProcessId::new(0))
        .unwrap();
    assert_eq!(to_p1.delay(), Some(Dur::from_int(2)));
}

#[test]
fn single_process_system_self_delivers() {
    let mut engine = MpEngine::new(vec![once(3)], ports(1)).unwrap();
    let mut sched = FixedPeriods::uniform(1, Dur::ONE).unwrap();
    let mut delays = ConstantDelay::new(Dur::ONE).unwrap();
    let outcome = engine
        .run(&mut sched, &mut delays, RunLimits::default())
        .unwrap();
    assert!(outcome.terminated);
    assert_eq!(outcome.trace.messages().len(), 1);
    let m = &outcome.trace.messages()[0];
    assert_eq!(m.from, m.to);
    assert_eq!(m.delay(), Some(Dur::ONE));
    // Received at the step after delivery.
    let received_any = outcome
        .trace
        .events()
        .iter()
        .any(|e| matches!(e.kind, StepKind::MpStep { received, .. } if received > 0));
    assert!(received_any);
}

#[test]
fn zero_delay_messages_arrive_at_the_next_step_not_the_same_one() {
    let mut engine = MpEngine::new(vec![once(4)], ports(1)).unwrap();
    let mut sched = FixedPeriods::uniform(1, Dur::from_int(5)).unwrap();
    let mut delays = ConstantDelay::new(Dur::ZERO).unwrap();
    let outcome = engine
        .run(&mut sched, &mut delays, RunLimits::default())
        .unwrap();
    let steps: Vec<(Time, usize)> = outcome
        .trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            StepKind::MpStep { received, .. } => Some((e.time, received)),
            _ => None,
        })
        .collect();
    // Step 1 (t=5) sends; the self-message is delivered at t=5 but the
    // sending step has already consumed its (empty) buffer: it shows up at
    // step 2 (t=10).
    assert_eq!(steps[0], (Time::from_int(5), 0));
    assert_eq!(steps[1], (Time::from_int(10), 1));
}

#[test]
fn port_of_unassigned_processes_is_none() {
    // 3 processes, only 2 ports: the third is infrastructure.
    let engine = MpEngine::new(vec![once(1), once(1), once(1)], ports(2)).unwrap();
    assert_eq!(engine.port_of(ProcessId::new(0)), Some(PortId::new(0)));
    assert_eq!(engine.port_of(ProcessId::new(2)), None);
}

#[test]
fn quiescence_watches_only_port_processes() {
    // The non-port process never idles; the run must still terminate once
    // the two port processes do.
    #[derive(Debug, Hash)]
    struct Forever;
    impl MpProcess<u32> for Forever {
        fn step(&mut self, _inbox: Vec<Envelope<u32>>) -> Option<u32> {
            None
        }
        fn is_idle(&self) -> bool {
            false
        }

        fn fingerprint(&self) -> u64 {
            session_types::fingerprint_of(self)
        }
    }
    let mut engine = MpEngine::new(vec![once(1), once(1), Box::new(Forever)], ports(2)).unwrap();
    let mut sched = FixedPeriods::uniform(3, Dur::ONE).unwrap();
    let mut delays = ConstantDelay::new(Dur::ZERO).unwrap();
    let outcome = engine
        .run(&mut sched, &mut delays, RunLimits::default())
        .unwrap();
    assert!(outcome.terminated);
}
