//! The semi-synchronous shared-memory algorithm (§5): the cheaper of
//! step-counting and communicating, chosen from the known constants.

use session_smm::{JoinSemiLattice, Knowledge, SmProcess};
use session_types::{Dur, Error, ProcessId, Result, VarId};

use super::sm_async::AsyncSmPort;

/// Which arm of the `min{⌊c2/c1⌋ + 1, O(log_b n)}` upper bound the
/// algorithm executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SmStrategy {
    /// Count own steps: `⌊c2/c1⌋ + 1` own steps span more than `c2` of real
    /// time, hence contain at least one step of every other process — one
    /// session per block with no communication.
    StepCounting,
    /// Communicate through the tree network, one flood per session, as in
    /// the asynchronous algorithm.
    Communicating,
}

/// The silent arm: `(s − 1) · (⌊c2/c1⌋ + 1) + 1` port steps, then idle.
///
/// Correctness: `B = ⌊c2/c1⌋ + 1` own steps take at least `B · c1 > c2`
/// real time, and every other process steps at least once in any window of
/// length `c2` — so each block of `B` own steps closes a session, and the
/// final `+1` step seals the `s`-th.
#[derive(Clone, Debug, Hash)]
pub struct StepCountingSmPort {
    port_var: VarId,
    needed: u64,
    steps: u64,
}

impl StepCountingSmPort {
    /// Creates the port process.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `c1 <= 0` or `c1 > c2`.
    pub fn new(port_var: VarId, s: u64, c1: Dur, c2: Dur) -> Result<StepCountingSmPort> {
        let block = block_size(c1, c2)?;
        Ok(StepCountingSmPort {
            port_var,
            needed: (s - 1) * block + 1,
            steps: 0,
        })
    }

    /// Total port steps this process will take before idling.
    pub fn steps_needed(&self) -> u64 {
        self.needed
    }
}

/// `B = ⌊c2/c1⌋ + 1`, the number of own steps that certainly spans `c2`.
pub(crate) fn block_size(c1: Dur, c2: Dur) -> Result<u64> {
    if !c1.is_positive() {
        return Err(Error::invalid_params("step counting requires c1 > 0"));
    }
    if c1 > c2 {
        return Err(Error::invalid_params("step counting requires c1 <= c2"));
    }
    Ok(c2.div_floor(c1) as u64 + 1)
}

impl SmProcess<Knowledge> for StepCountingSmPort {
    fn target(&self) -> VarId {
        self.port_var
    }

    fn step(&mut self, value: &Knowledge) -> Knowledge {
        if self.steps < self.needed {
            self.steps += 1;
        }
        let mut unchanged = Knowledge::bottom();
        unchanged.join(value);
        unchanged
    }

    fn is_idle(&self) -> bool {
        self.steps >= self.needed
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

/// The semi-synchronous port process: picks the cheaper arm by comparing
/// the step-counting block `⌊c2/c1⌋ + 1` against the concrete tree-network
/// flood bound, realizing the `min{…}` of the Table 1 upper bound
/// `min{(⌊c2/c1⌋ + 1) · c2, O(log_b n) · c2} · (s − 1) + c2`.
#[derive(Clone, Debug, Hash)]
pub enum SemiSyncSmPort {
    /// Step-counting arm.
    Silent(StepCountingSmPort),
    /// Communicating arm (asynchronous wave protocol).
    Talking(AsyncSmPort),
}

impl SemiSyncSmPort {
    /// Creates the port process, choosing the strategy from the known
    /// constants: step counting iff `⌊c2/c1⌋ + 1 <= comm_rounds` (the tree
    /// network's flood bound in rounds).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `c1 <= 0` or `c1 > c2`.
    pub fn new(
        id: ProcessId,
        port_var: VarId,
        s: u64,
        n: usize,
        c1: Dur,
        c2: Dur,
        comm_rounds: u64,
    ) -> Result<SemiSyncSmPort> {
        let block = block_size(c1, c2)?;
        let strategy = if block <= comm_rounds {
            SmStrategy::StepCounting
        } else {
            SmStrategy::Communicating
        };
        SemiSyncSmPort::with_strategy(id, port_var, s, n, c1, c2, strategy)
    }

    /// Creates the port process with an explicit strategy (used by the
    /// crossover experiments to measure both arms).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if the step-counting arm is chosen
    /// with `c1 <= 0` or `c1 > c2`.
    pub fn with_strategy(
        id: ProcessId,
        port_var: VarId,
        s: u64,
        n: usize,
        c1: Dur,
        c2: Dur,
        strategy: SmStrategy,
    ) -> Result<SemiSyncSmPort> {
        Ok(match strategy {
            SmStrategy::StepCounting => {
                SemiSyncSmPort::Silent(StepCountingSmPort::new(port_var, s, c1, c2)?)
            }
            SmStrategy::Communicating => {
                SemiSyncSmPort::Talking(AsyncSmPort::new(id, port_var, s, n))
            }
        })
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> SmStrategy {
        match self {
            SemiSyncSmPort::Silent(_) => SmStrategy::StepCounting,
            SemiSyncSmPort::Talking(_) => SmStrategy::Communicating,
        }
    }
}

impl SmProcess<Knowledge> for SemiSyncSmPort {
    fn target(&self) -> VarId {
        match self {
            SemiSyncSmPort::Silent(p) => p.target(),
            SemiSyncSmPort::Talking(p) => p.target(),
        }
    }

    fn step(&mut self, value: &Knowledge) -> Knowledge {
        match self {
            SemiSyncSmPort::Silent(p) => p.step(value),
            SemiSyncSmPort::Talking(p) => p.step(value),
        }
    }

    fn is_idle(&self) -> bool {
        match self {
            SemiSyncSmPort::Silent(p) => p.is_idle(),
            SemiSyncSmPort::Talking(p) => p.is_idle(),
        }
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(x: i128) -> Dur {
        Dur::from_int(x)
    }

    #[test]
    fn block_size_exceeds_c2_over_c1() {
        assert_eq!(block_size(d(2), d(7)).unwrap(), 4); // floor(7/2)+1
        assert_eq!(block_size(d(1), d(1)).unwrap(), 2);
        assert!(block_size(d(0), d(1)).is_err());
        assert!(block_size(d(3), d(2)).is_err());
    }

    #[test]
    fn step_counter_takes_the_advertised_number_of_steps() {
        // s = 3, c1 = 1, c2 = 4 => B = 5, needed = 2*5 + 1 = 11.
        let mut p = StepCountingSmPort::new(VarId::new(0), 3, d(1), d(4)).unwrap();
        assert_eq!(p.steps_needed(), 11);
        for _ in 0..10 {
            let _ = p.step(&Knowledge::new());
            assert!(!p.is_idle());
        }
        let _ = p.step(&Knowledge::new());
        assert!(p.is_idle());
    }

    #[test]
    fn strategy_choice_follows_the_min() {
        // Small c2/c1: step counting wins against a 10-round flood.
        let p =
            SemiSyncSmPort::new(ProcessId::new(0), VarId::new(0), 2, 4, d(1), d(3), 10).unwrap();
        assert_eq!(p.strategy(), SmStrategy::StepCounting);
        // Huge c2/c1: communication wins.
        let p =
            SemiSyncSmPort::new(ProcessId::new(0), VarId::new(0), 2, 4, d(1), d(100), 10).unwrap();
        assert_eq!(p.strategy(), SmStrategy::Communicating);
    }

    #[test]
    fn explicit_strategy_is_respected() {
        let p = SemiSyncSmPort::with_strategy(
            ProcessId::new(0),
            VarId::new(0),
            2,
            4,
            d(1),
            d(3),
            SmStrategy::Communicating,
        )
        .unwrap();
        assert_eq!(p.strategy(), SmStrategy::Communicating);
    }

    #[test]
    fn delegation_matches_inner_process() {
        let mut p = SemiSyncSmPort::with_strategy(
            ProcessId::new(0),
            VarId::new(7),
            1,
            1,
            d(1),
            d(2),
            SmStrategy::StepCounting,
        )
        .unwrap();
        assert_eq!(p.target(), VarId::new(7));
        assert!(!p.is_idle());
        let _ = p.step(&Knowledge::new());
        assert!(p.is_idle()); // s = 1 => needed = 1
    }
}
