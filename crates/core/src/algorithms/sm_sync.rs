//! The synchronous shared-memory algorithm: no communication at all.

use session_smm::{JoinSemiLattice, Knowledge, SmProcess};
use session_types::VarId;

/// In the synchronous model every process steps exactly every `c2`, so the
/// steps at times `c2, 2c2, …, s·c2` form `s` sessions with no communication
/// whatsoever (\[2\]; Table 1 row 1). Each port process simply accesses its
/// port `s` times and idles.
///
/// # Examples
///
/// ```
/// use session_core::algorithms::SyncSmPort;
/// use session_smm::{Knowledge, SmProcess};
/// use session_types::VarId;
///
/// let mut p = SyncSmPort::new(VarId::new(0), 2);
/// assert!(!p.is_idle());
/// let _ = p.step(&Knowledge::new());
/// let _ = p.step(&Knowledge::new());
/// assert!(p.is_idle());
/// ```
#[derive(Clone, Debug, Hash)]
pub struct SyncSmPort {
    port_var: VarId,
    s: u64,
    steps: u64,
}

impl SyncSmPort {
    /// Creates the port process for a port realized by `port_var`, solving
    /// the `s`-session requirement.
    pub fn new(port_var: VarId, s: u64) -> SyncSmPort {
        SyncSmPort {
            port_var,
            s,
            steps: 0,
        }
    }

    /// Port steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }
}

impl SmProcess<Knowledge> for SyncSmPort {
    fn target(&self) -> VarId {
        self.port_var
    }

    fn step(&mut self, value: &Knowledge) -> Knowledge {
        if self.steps < self.s {
            self.steps += 1;
        }
        // Nothing to communicate: write the value back unchanged.
        let mut unchanged = Knowledge::bottom();
        unchanged.join(value);
        unchanged
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
    fn idles_after_exactly_s_steps() {
        let mut p = SyncSmPort::new(VarId::new(3), 3);
        for expected in 1..=3u64 {
            assert!(!p.is_idle());
            let _ = p.step(&Knowledge::new());
            assert_eq!(p.steps_taken(), expected);
        }
        assert!(p.is_idle());
        // Idle is absorbing; extra steps change nothing.
        let _ = p.step(&Knowledge::new());
        assert!(p.is_idle());
        assert_eq!(p.steps_taken(), 3);
    }

    #[test]
    fn writes_value_back_unchanged() {
        let mut p = SyncSmPort::new(VarId::new(0), 1);
        let input: Knowledge = [(session_types::ProcessId::new(7), 9)]
            .into_iter()
            .collect();
        let output = p.step(&input);
        assert_eq!(output, input);
    }

    #[test]
    fn targets_its_port_forever() {
        let mut p = SyncSmPort::new(VarId::new(5), 1);
        assert_eq!(p.target(), VarId::new(5));
        let _ = p.step(&Knowledge::new());
        assert_eq!(p.target(), VarId::new(5));
    }
}
