//! The periodic message-passing algorithm `A(p)` (§4).

use std::collections::BTreeSet;

use session_mpm::{Envelope, MpProcess};
use session_types::ProcessId;

use crate::msg::SessionMsg;

/// The paper's `A(p)` over the broadcast network: take `s − 1` (port)
/// steps, broadcast the fact at the `(s − 1)`-th, and idle after hearing
/// the fact from all `n` port processes and taking at least one more step.
///
/// Running time (Theorem 4.1): `s · c_max + d2` (plus one step to pick the
/// last message out of the buffer).
#[derive(Clone, Debug, Hash)]
pub struct PeriodicMpPort {
    s: u64,
    n: usize,
    steps: u64,
    done: BTreeSet<ProcessId>,
    heard_all_at: Option<u64>,
}

impl PeriodicMpPort {
    /// Creates the port process for the `(s, n)`-session problem.
    pub fn new(s: u64, n: usize) -> PeriodicMpPort {
        PeriodicMpPort {
            s,
            n,
            steps: 0,
            done: BTreeSet::new(),
            heard_all_at: None,
        }
    }

    /// Port steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// How many port processes are known to have completed their `s − 1`
    /// steps.
    pub fn done_count(&self) -> usize {
        self.done.len()
    }

    /// The step at which the announcement is broadcast: the `(s − 1)`-th,
    /// or the first step when `s = 1` (there is no zeroth step to attach
    /// the announcement to).
    fn announce_step(&self) -> u64 {
        self.s.saturating_sub(1).max(1)
    }
}

impl MpProcess<SessionMsg> for PeriodicMpPort {
    fn step(&mut self, inbox: Vec<Envelope<SessionMsg>>) -> Option<SessionMsg> {
        let threshold = self.s.saturating_sub(1);
        for env in &inbox {
            if env.payload.value >= threshold {
                self.done.insert(env.from);
            }
        }
        if self.is_idle() {
            return None;
        }
        self.steps += 1;
        let out = (self.steps == self.announce_step()).then(|| SessionMsg::new(threshold));
        if self.heard_all_at.is_none() && self.done.len() >= self.n {
            self.heard_all_at = Some(self.steps);
        }
        out
    }

    fn is_idle(&self) -> bool {
        match self.heard_all_at {
            Some(heard) => self.steps > heard,
            None => false,
        }
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done_from(i: usize, value: u64) -> Envelope<SessionMsg> {
        Envelope::new(ProcessId::new(i), SessionMsg::new(value))
    }

    #[test]
    fn broadcasts_exactly_once_at_step_s_minus_one() {
        let mut p = PeriodicMpPort::new(4, 2);
        assert_eq!(p.step(vec![]), None);
        assert_eq!(p.step(vec![]), None);
        assert_eq!(p.step(vec![]), Some(SessionMsg::new(3)));
        assert_eq!(p.step(vec![]), None);
        assert_eq!(p.steps_taken(), 4);
    }

    #[test]
    fn waits_for_all_n_announcements() {
        let mut p = PeriodicMpPort::new(2, 3);
        let _ = p.step(vec![done_from(0, 1), done_from(1, 1)]);
        for _ in 0..20 {
            let _ = p.step(vec![]);
        }
        assert!(!p.is_idle());
        assert_eq!(p.done_count(), 2);
        let _ = p.step(vec![done_from(2, 1)]);
        assert!(!p.is_idle(), "one more step required after hearing");
        let _ = p.step(vec![]);
        assert!(p.is_idle());
    }

    #[test]
    fn stale_announcements_are_ignored() {
        let mut p = PeriodicMpPort::new(3, 1);
        // value 1 < s - 1 = 2: not a completion announcement.
        let _ = p.step(vec![done_from(0, 1)]);
        assert_eq!(p.done_count(), 0);
        let _ = p.step(vec![done_from(0, 2)]);
        assert_eq!(p.done_count(), 1);
    }

    #[test]
    fn s_equals_one_announces_at_first_step() {
        let mut p = PeriodicMpPort::new(1, 2);
        assert_eq!(p.step(vec![]), Some(SessionMsg::new(0)));
        // Hearing both processes' announcements (threshold 0).
        let _ = p.step(vec![done_from(0, 0), done_from(1, 0)]);
        let _ = p.step(vec![]);
        assert!(p.is_idle());
    }

    #[test]
    fn idle_is_absorbing_and_silent() {
        let mut p = PeriodicMpPort::new(1, 1);
        let _ = p.step(vec![done_from(0, 0)]);
        let _ = p.step(vec![]);
        assert!(p.is_idle());
        let before = p.steps_taken();
        assert_eq!(p.step(vec![done_from(0, 5)]), None);
        assert_eq!(p.steps_taken(), before);
        assert!(p.is_idle());
    }
}
