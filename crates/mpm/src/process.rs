//! The message-passing process abstraction.

use std::fmt;

use session_types::ProcessId;

/// A message as received: the payload plus its sender.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The sending process.
    pub from: ProcessId,
    /// The message payload.
    pub payload: M,
}

impl<M> Envelope<M> {
    /// Creates an envelope.
    pub fn new(from: ProcessId, payload: M) -> Envelope<M> {
        Envelope { from, payload }
    }
}

/// A regular process of the message-passing model (§2.1.2).
///
/// Each step receives the entire delivery buffer and decides, *based solely
/// on those messages and the current state* (the paper's wording — there is
/// deliberately no clock parameter), the new state and an optional broadcast
/// payload. Returning `Some(m)` broadcasts `m` to **all** regular processes,
/// including the sender itself.
///
/// Once [`is_idle`](MpProcess::is_idle) returns `true` it must remain `true`
/// forever (idle states are closed under steps, §2.3).
///
/// Processes are `Send`: the real-clock runtime (`session-net`) runs each
/// one on its own OS thread. Every process is plain owned data — the bound
/// costs nothing in the single-threaded simulator.
pub trait MpProcess<M>: fmt::Debug + Send {
    /// Executes one step: consumes the buffered messages, returns the
    /// payload to broadcast, if any.
    fn step(&mut self, inbox: Vec<Envelope<M>>) -> Option<M>;

    /// Returns `true` if the process is in an idle state.
    fn is_idle(&self) -> bool;

    /// A hash of the process's internal state, used to compare global
    /// states between original and adversarially reordered computations,
    /// and by the analyzer's state keys. Implementors hash their state
    /// structurally: `session_types::fingerprint_of(self)` over a
    /// `#[derive(Hash)]` state.
    fn fingerprint(&self) -> u64;
}

/// What one algorithm step did: the inputs it consumed, the broadcast it
/// produced, and whether the process is idle afterwards.
///
/// This is the shared vocabulary of everything that steps a process: the
/// discrete-event simulator ([`crate::MpEngine`]), the real-clock runtime
/// (`session-net`), the session service (`session-serve`) and the
/// analyzer's message-passing machine (`session-analyzer`) all drive
/// processes exclusively through [`step_process`], so a process cannot
/// behave differently under any of them.
#[derive(Debug)]
pub struct StepResult<M> {
    /// How many messages were in the buffer (all were consumed).
    pub received: usize,
    /// The payload broadcast to all regular processes, if any.
    pub broadcast: Option<M>,
    /// Whether the process is in an idle state after the step.
    pub idle_after: bool,
}

/// Executes one step of `process` on `inbox`: the single algorithm-step
/// function shared by the simulator engine, the real-clock runtime, the
/// session service and the analyzer.
///
/// With the `strict-invariants` feature, asserts that idle states are
/// closed under steps (§2.3).
pub fn step_process<M>(process: &mut dyn MpProcess<M>, inbox: Vec<Envelope<M>>) -> StepResult<M> {
    let received = inbox.len();
    #[cfg(feature = "strict-invariants")]
    let was_idle = process.is_idle();
    let broadcast = process.step(inbox);
    let idle_after = process.is_idle();
    #[cfg(feature = "strict-invariants")]
    debug_assert!(
        !was_idle || idle_after,
        "idle states must be closed under steps (process un-idled)"
    );
    StepResult {
        received,
        broadcast,
        idle_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use session_types::fingerprint_of;

    #[derive(Debug, Hash)]
    struct Echo {
        last: Option<u32>,
    }

    impl MpProcess<u32> for Echo {
        fn step(&mut self, inbox: Vec<Envelope<u32>>) -> Option<u32> {
            self.last = inbox.last().map(|e| e.payload);
            self.last
        }

        fn is_idle(&self) -> bool {
            false
        }

        fn fingerprint(&self) -> u64 {
            fingerprint_of(self)
        }
    }

    #[test]
    fn envelope_construction() {
        let e = Envelope::new(ProcessId::new(2), 9u32);
        assert_eq!(e.from, ProcessId::new(2));
        assert_eq!(e.payload, 9);
    }

    #[test]
    fn step_consumes_inbox() {
        let mut p = Echo { last: None };
        let out = p.step(vec![
            Envelope::new(ProcessId::new(0), 1),
            Envelope::new(ProcessId::new(1), 2),
        ]);
        assert_eq!(out, Some(2));
        assert_eq!(p.step(vec![]), None);
    }

    #[test]
    fn step_process_reports_received_broadcast_and_idle() {
        let mut p = Echo { last: None };
        let result = step_process(&mut p, vec![Envelope::new(ProcessId::new(0), 7)]);
        assert_eq!(result.received, 1);
        assert_eq!(result.broadcast, Some(7));
        assert!(!result.idle_after);
        let quiet = step_process(&mut p, vec![]);
        assert_eq!(quiet.received, 0);
        assert_eq!(quiet.broadcast, None);
    }

    #[test]
    fn fingerprint_tracks_state() {
        let mut p = Echo { last: None };
        let before = p.fingerprint();
        let _ = p.step(vec![Envelope::new(ProcessId::new(0), 5)]);
        let after = p.fingerprint();
        assert_ne!(before, after);
        // Equal states fingerprint equally, whatever path reached them.
        assert_eq!(after, Echo { last: Some(5) }.fingerprint());
        let _ = p.step(vec![]);
        assert_eq!(p.fingerprint(), before);
    }
}
