//! The synchronous message-passing algorithm: no communication at all.

use session_mpm::{Envelope, MpProcess};

use crate::msg::SessionMsg;

/// In the synchronous model all processes step in lockstep every `c2`, and
/// in the message-passing model every step of a port process is a port step
/// — so `s` silent steps suffice (Table 1 row 1).
#[derive(Clone, Debug, Hash)]
pub struct SyncMpPort {
    s: u64,
    steps: u64,
}

impl SyncMpPort {
    /// Creates the port process for the `s`-session requirement.
    pub fn new(s: u64) -> SyncMpPort {
        SyncMpPort { s, steps: 0 }
    }

    /// Port steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }
}

impl MpProcess<SessionMsg> for SyncMpPort {
    fn step(&mut self, _inbox: Vec<Envelope<SessionMsg>>) -> Option<SessionMsg> {
        if self.steps < self.s {
            self.steps += 1;
        }
        None
    }

    fn is_idle(&self) -> bool {
        self.steps >= self.s
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idles_after_s_steps_without_broadcasting() {
        let mut p = SyncMpPort::new(2);
        assert_eq!(p.step(vec![]), None);
        assert!(!p.is_idle());
        assert_eq!(p.step(vec![]), None);
        assert!(p.is_idle());
        assert_eq!(p.steps_taken(), 2);
        // Absorbing.
        assert_eq!(p.step(vec![]), None);
        assert_eq!(p.steps_taken(), 2);
    }

    #[test]
    fn ignores_any_messages() {
        use session_types::ProcessId;
        let mut p = SyncMpPort::new(1);
        let inbox = vec![Envelope::new(ProcessId::new(3), SessionMsg::new(9))];
        assert_eq!(p.step(inbox), None);
        assert!(p.is_idle());
    }
}
