//! The asynchronous message-passing algorithm: one broadcast wave per
//! session (\[4\]; Table 1 row 5).

use session_mpm::{Envelope, MpProcess};
use session_smm::Knowledge;
use session_types::ProcessId;

use crate::msg::SessionMsg;

/// The wave protocol over broadcast: commit wave `k + 1` only after hearing
/// `m(j, v)` with `v >= k` from every port process `j` (the first commit is
/// free); broadcast `m(i, k + 1)` on committing; idle after committing `s`
/// waves with no final wait — the `(s − 1)(d2 + c2) + c2` upper bound
/// of \[4\].
#[derive(Clone, Debug, Hash)]
pub struct AsyncMpPort {
    s: u64,
    n: usize,
    committed: u64,
    heard: Knowledge,
}

impl AsyncMpPort {
    /// Creates the port process for the `(s, n)`-session problem.
    pub fn new(s: u64, n: usize) -> AsyncMpPort {
        AsyncMpPort {
            s,
            n,
            committed: 0,
            heard: Knowledge::new(),
        }
    }

    /// The number of committed waves.
    pub fn committed(&self) -> u64 {
        self.committed
    }
}

impl MpProcess<SessionMsg> for AsyncMpPort {
    fn step(&mut self, inbox: Vec<Envelope<SessionMsg>>) -> Option<SessionMsg> {
        for env in &inbox {
            self.heard.announce(env.from, env.payload.value);
        }
        if self.is_idle() {
            return None;
        }
        let ports = (0..self.n).map(ProcessId::new);
        if self.committed == 0 || self.heard.all_at_least(ports, self.committed) {
            self.committed += 1;
            return Some(SessionMsg::new(self.committed));
        }
        None
    }

    fn is_idle(&self) -> bool {
        self.committed >= self.s
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(i: usize, value: u64) -> Envelope<SessionMsg> {
        Envelope::new(ProcessId::new(i), SessionMsg::new(value))
    }

    #[test]
    fn first_commit_broadcasts_wave_one() {
        let mut p = AsyncMpPort::new(3, 2);
        assert_eq!(p.step(vec![]), Some(SessionMsg::new(1)));
        assert_eq!(p.committed(), 1);
    }

    #[test]
    fn later_commits_wait_for_all_processes() {
        let mut p = AsyncMpPort::new(3, 2);
        let _ = p.step(vec![]); // commit 1
        assert_eq!(p.step(vec![wave(0, 1)]), None, "missing p1's wave 1");
        assert_eq!(p.step(vec![wave(1, 1)]), Some(SessionMsg::new(2)));
        assert_eq!(
            p.step(vec![wave(0, 2), wave(1, 2)]),
            Some(SessionMsg::new(3))
        );
        assert!(p.is_idle());
    }

    #[test]
    fn higher_values_satisfy_lower_waves() {
        let mut p = AsyncMpPort::new(3, 2);
        let _ = p.step(vec![]); // commit 1
                                // Hearing wave 5 from both: covers every wave requirement.
        let _ = p.step(vec![wave(0, 5), wave(1, 5)]);
        assert_eq!(p.committed(), 2);
        let _ = p.step(vec![]);
        assert_eq!(p.committed(), 3);
        assert!(p.is_idle());
    }

    #[test]
    fn idle_is_silent() {
        let mut p = AsyncMpPort::new(1, 2);
        let _ = p.step(vec![]);
        assert!(p.is_idle());
        assert_eq!(p.step(vec![wave(0, 9)]), None);
        assert_eq!(p.committed(), 1);
    }
}
