//! The asynchronous shared-memory algorithm: one tree broadcast per session
//! (\[2\]; Table 1 row 5).

use session_smm::{JoinSemiLattice, Knowledge, SmProcess};
use session_types::{ProcessId, VarId};

/// The wave protocol: a process *commits* port step `k + 1` only after the
/// flooded [`Knowledge`] shows every port process has committed `k` (the
/// first commit is free — every process's first step belongs to the first
/// session unconditionally). After committing `s` waves it idles without a
/// final wait, giving the `(s − 1) · O(log_b n)`-round upper bound of \[2\].
///
/// Also the **sporadic** shared-memory algorithm (the sporadic constraint
/// offers nothing a shared-memory algorithm can exploit, §1) and the
/// communication arm of the semi-synchronous algorithm.
#[derive(Clone, Debug, Hash)]
pub struct AsyncSmPort {
    id: ProcessId,
    port_var: VarId,
    s: u64,
    n: usize,
    committed: u64,
    knowledge: Knowledge,
}

impl AsyncSmPort {
    /// Creates port process `id` over `port_var` for the `(s, n)`-session
    /// problem.
    pub fn new(id: ProcessId, port_var: VarId, s: u64, n: usize) -> AsyncSmPort {
        AsyncSmPort {
            id,
            port_var,
            s,
            n,
            committed: 0,
            knowledge: Knowledge::new(),
        }
    }

    /// The number of committed waves (own port steps that are guaranteed to
    /// lie in distinct sessions).
    pub fn committed(&self) -> u64 {
        self.committed
    }
}

impl SmProcess<Knowledge> for AsyncSmPort {
    fn target(&self) -> VarId {
        self.port_var
    }

    fn step(&mut self, value: &Knowledge) -> Knowledge {
        if self.is_idle() {
            let mut unchanged = Knowledge::bottom();
            unchanged.join(value);
            return unchanged;
        }
        self.knowledge.join(value);
        let ports = (0..self.n).map(ProcessId::new);
        if self.committed == 0 || self.knowledge.all_at_least(ports, self.committed) {
            self.committed += 1;
        }
        self.knowledge.announce(self.id, self.committed);
        self.knowledge.clone()
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

    fn all_at(n: usize, value: u64) -> Knowledge {
        (0..n).map(|i| (ProcessId::new(i), value)).collect()
    }

    #[test]
    fn first_commit_is_free() {
        let mut p = AsyncSmPort::new(ProcessId::new(0), VarId::new(0), 3, 4);
        let out = p.step(&Knowledge::new());
        assert_eq!(p.committed(), 1);
        assert_eq!(out.get(ProcessId::new(0)), 1);
    }

    #[test]
    fn later_commits_wait_for_the_wave() {
        let mut p = AsyncSmPort::new(ProcessId::new(0), VarId::new(0), 3, 2);
        let _ = p.step(&Knowledge::new()); // commit 1
        for _ in 0..10 {
            let _ = p.step(&Knowledge::new());
        }
        assert_eq!(p.committed(), 1, "no word from p1 yet");
        let _ = p.step(&all_at(2, 1));
        assert_eq!(p.committed(), 2);
        let _ = p.step(&all_at(2, 2));
        assert_eq!(p.committed(), 3);
        assert!(p.is_idle());
    }

    #[test]
    fn no_final_wait_after_last_commit() {
        let mut p = AsyncSmPort::new(ProcessId::new(1), VarId::new(1), 2, 2);
        let _ = p.step(&Knowledge::new()); // commit 1
        assert!(!p.is_idle());
        let _ = p.step(&all_at(2, 1)); // commit 2 == s
        assert!(p.is_idle(), "idles immediately after the s-th commit");
    }

    #[test]
    fn idle_steps_do_not_touch_the_variable() {
        let mut p = AsyncSmPort::new(ProcessId::new(0), VarId::new(0), 1, 1);
        let _ = p.step(&Knowledge::new());
        assert!(p.is_idle());
        let foreign: Knowledge = [(ProcessId::new(5), 3)].into_iter().collect();
        assert_eq!(p.step(&foreign), foreign);
        assert_eq!(p.committed(), 1);
    }

    #[test]
    fn skipping_ahead_on_fresher_knowledge() {
        // Knowledge may already show everyone at a higher wave; commits
        // still advance one per own step (each commit is one port step).
        let mut p = AsyncSmPort::new(ProcessId::new(0), VarId::new(0), 3, 2);
        let fresh = all_at(2, 5);
        let _ = p.step(&fresh);
        assert_eq!(p.committed(), 1);
        let _ = p.step(&fresh);
        assert_eq!(p.committed(), 2);
        let _ = p.step(&fresh);
        assert_eq!(p.committed(), 3);
        assert!(p.is_idle());
    }
}
