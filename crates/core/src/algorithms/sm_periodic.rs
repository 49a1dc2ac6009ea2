//! The periodic shared-memory algorithm `A(p)` (§4).

use session_smm::{JoinSemiLattice, Knowledge, SmProcess};
use session_types::{ProcessId, VarId};

/// The paper's `A(p)`: *"Each port process accesses its own port `s − 1`
/// times and at its `(s − 1)`-th step, broadcasts the fact. It enters an
/// idle state after it hears that all other processes have taken `s − 1`
/// steps and it has taken at least one more port step."*
///
/// In the shared-memory realization the port variable is a leaf of the §3
/// tree network, so "broadcasting the fact" is simply announcing the
/// step count in the port variable's [`Knowledge`]; the relay processes
/// flood it. Every step of this process accesses the port, so announcing
/// and port-stepping are the same atomic read-modify-write.
///
/// Running time (Theorem 4.1): `s · c_max + O(log_b n) · c_max`.
#[derive(Clone, Debug, Hash)]
pub struct PeriodicSmPort {
    id: ProcessId,
    port_var: VarId,
    s: u64,
    n: usize,
    steps: u64,
    knowledge: Knowledge,
    heard_all_at: Option<u64>,
}

impl PeriodicSmPort {
    /// Creates port process `id` over `port_var` for the `(s, n)`-session
    /// problem. The port processes are `p0 .. p(n-1)`.
    pub fn new(id: ProcessId, port_var: VarId, s: u64, n: usize) -> PeriodicSmPort {
        PeriodicSmPort {
            id,
            port_var,
            s,
            n,
            steps: 0,
            knowledge: Knowledge::new(),
            heard_all_at: None,
        }
    }

    /// Port steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// The step count at which this process first knew that every port
    /// process had completed `s − 1` port steps, if it has.
    pub fn heard_all_at(&self) -> Option<u64> {
        self.heard_all_at
    }

    fn all_done_threshold(&self) -> u64 {
        self.s.saturating_sub(1)
    }
}

impl SmProcess<Knowledge> for PeriodicSmPort {
    fn target(&self) -> VarId {
        self.port_var
    }

    fn step(&mut self, value: &Knowledge) -> Knowledge {
        if self.is_idle() {
            // Idle is absorbing; keep the variable unchanged.
            let mut unchanged = Knowledge::bottom();
            unchanged.join(value);
            return unchanged;
        }
        self.knowledge.join(value);
        self.steps += 1;
        // Announcing the running count subsumes "broadcast the fact of the
        // (s-1)-th step": once the counter reaches s - 1, the flooded map
        // carries the fact.
        self.knowledge.announce(self.id, self.steps);
        if self.heard_all_at.is_none()
            && self
                .knowledge
                .all_at_least((0..self.n).map(ProcessId::new), self.all_done_threshold())
        {
            self.heard_all_at = Some(self.steps);
        }
        self.knowledge.clone()
    }

    fn is_idle(&self) -> bool {
        match self.heard_all_at {
            // One more port step after hearing, per A(p).
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

    fn knowledge_all(n: usize, value: u64) -> Knowledge {
        (0..n).map(|i| (ProcessId::new(i), value)).collect()
    }

    #[test]
    fn does_not_idle_before_hearing_from_everyone() {
        let mut p = PeriodicSmPort::new(ProcessId::new(0), VarId::new(0), 3, 2);
        for _ in 0..50 {
            let _ = p.step(&Knowledge::new());
        }
        assert!(!p.is_idle(), "must wait for the other port process");
        assert_eq!(p.steps_taken(), 50);
    }

    #[test]
    fn idles_one_step_after_hearing() {
        let mut p = PeriodicSmPort::new(ProcessId::new(0), VarId::new(0), 3, 2);
        let _ = p.step(&Knowledge::new());
        let _ = p.step(&Knowledge::new());
        // Now the other process announces 2 (= s - 1) via the tree.
        let heard = knowledge_all(2, 2);
        let _ = p.step(&heard);
        assert_eq!(p.heard_all_at(), Some(3));
        assert!(!p.is_idle(), "needs one more port step after hearing");
        let _ = p.step(&Knowledge::new());
        assert!(p.is_idle());
    }

    #[test]
    fn announces_its_step_count() {
        let mut p = PeriodicSmPort::new(ProcessId::new(1), VarId::new(1), 4, 2);
        let out = p.step(&Knowledge::new());
        assert_eq!(out.get(ProcessId::new(1)), 1);
        let out = p.step(&out);
        assert_eq!(out.get(ProcessId::new(1)), 2);
    }

    #[test]
    fn joins_incoming_knowledge() {
        let mut p = PeriodicSmPort::new(ProcessId::new(0), VarId::new(0), 5, 3);
        let incoming = knowledge_all(3, 1);
        let out = p.step(&incoming);
        // Output contains both the incoming announcements and its own.
        assert_eq!(out.get(ProcessId::new(2)), 1);
        assert_eq!(out.get(ProcessId::new(0)), 1);
    }

    #[test]
    fn idle_steps_leave_the_variable_unchanged() {
        let mut p = PeriodicSmPort::new(ProcessId::new(0), VarId::new(0), 1, 1);
        // s = 1: threshold 0; first step announces 1 >= 0 for itself.
        let _ = p.step(&Knowledge::new());
        let _ = p.step(&Knowledge::new());
        assert!(p.is_idle());
        let foreign: Knowledge = [(ProcessId::new(9), 42)].into_iter().collect();
        let out = p.step(&foreign);
        assert_eq!(out, foreign);
    }

    #[test]
    fn s_equals_one_still_requires_hearing_everyone() {
        let mut p = PeriodicSmPort::new(ProcessId::new(0), VarId::new(0), 1, 2);
        let _ = p.step(&Knowledge::new());
        assert!(!p.is_idle(), "p1 has not announced anything yet");
        let _ = p.step(&knowledge_all(2, 1));
        let _ = p.step(&Knowledge::new());
        assert!(p.is_idle());
    }
}
