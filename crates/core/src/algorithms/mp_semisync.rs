//! The semi-synchronous message-passing algorithm (\[4\]; §5): the cheaper of
//! step-counting and communicating, chosen from the known constants.

use session_mpm::{Envelope, MpProcess};
use session_types::{Dur, Result};

use super::mp_async::AsyncMpPort;
use super::sm_semisync::block_size;
use crate::msg::SessionMsg;

/// Which arm of the `min{(⌊c2/c1⌋ + 1) · c2, d2 + c2}` upper bound the
/// algorithm executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpStrategy {
    /// Count own steps (`⌊c2/c1⌋ + 1` per session), broadcast nothing.
    StepCounting,
    /// One broadcast wave per session (`d2 + c2` each).
    Communicating,
}

/// The silent arm: `(s − 1) · (⌊c2/c1⌋ + 1) + 1` steps, then idle. Every
/// step of a port process is a port step in the message-passing model, so
/// the argument is identical to the shared-memory step counter.
#[derive(Clone, Debug, Hash)]
pub struct StepCountingMpPort {
    needed: u64,
    steps: u64,
}

impl StepCountingMpPort {
    /// Creates the port process.
    ///
    /// # Errors
    ///
    /// Returns [`session_types::Error::InvalidParams`] if `c1 <= 0` or
    /// `c1 > c2`.
    pub fn new(s: u64, c1: Dur, c2: Dur) -> Result<StepCountingMpPort> {
        let block = block_size(c1, c2)?;
        Ok(StepCountingMpPort {
            needed: (s - 1) * block + 1,
            steps: 0,
        })
    }

    /// Total steps this process will take before idling.
    pub fn steps_needed(&self) -> u64 {
        self.needed
    }
}

impl MpProcess<SessionMsg> for StepCountingMpPort {
    fn step(&mut self, _inbox: Vec<Envelope<SessionMsg>>) -> Option<SessionMsg> {
        if self.steps < self.needed {
            self.steps += 1;
        }
        None
    }

    fn is_idle(&self) -> bool {
        self.steps >= self.needed
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

/// The semi-synchronous port process: picks the cheaper arm by comparing
/// `(⌊c2/c1⌋ + 1) · c2` (step counting per session) against `d2 + c2`
/// (communication per session).
#[derive(Clone, Debug, Hash)]
pub enum SemiSyncMpPort {
    /// Step-counting arm.
    Silent(StepCountingMpPort),
    /// Communicating arm.
    Talking(AsyncMpPort),
}

impl SemiSyncMpPort {
    /// Creates the port process, choosing the strategy from the known
    /// constants `c1`, `c2`, `d2`.
    ///
    /// # Errors
    ///
    /// Returns [`session_types::Error::InvalidParams`] if `c1 <= 0` or
    /// `c1 > c2`.
    pub fn new(s: u64, n: usize, c1: Dur, c2: Dur, d2: Dur) -> Result<SemiSyncMpPort> {
        let block = block_size(c1, c2)?;
        let silent_cost = c2 * block as i128;
        let talking_cost = d2 + c2;
        let strategy = if silent_cost <= talking_cost {
            MpStrategy::StepCounting
        } else {
            MpStrategy::Communicating
        };
        SemiSyncMpPort::with_strategy(s, n, c1, c2, strategy)
    }

    /// Creates the port process with an explicit strategy (used by the
    /// crossover experiments to measure both arms).
    ///
    /// # Errors
    ///
    /// Returns [`session_types::Error::InvalidParams`] if the step-counting
    /// arm is chosen with `c1 <= 0` or `c1 > c2`.
    pub fn with_strategy(
        s: u64,
        n: usize,
        c1: Dur,
        c2: Dur,
        strategy: MpStrategy,
    ) -> Result<SemiSyncMpPort> {
        Ok(match strategy {
            MpStrategy::StepCounting => SemiSyncMpPort::Silent(StepCountingMpPort::new(s, c1, c2)?),
            MpStrategy::Communicating => SemiSyncMpPort::Talking(AsyncMpPort::new(s, n)),
        })
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> MpStrategy {
        match self {
            SemiSyncMpPort::Silent(_) => MpStrategy::StepCounting,
            SemiSyncMpPort::Talking(_) => MpStrategy::Communicating,
        }
    }
}

impl MpProcess<SessionMsg> for SemiSyncMpPort {
    fn step(&mut self, inbox: Vec<Envelope<SessionMsg>>) -> Option<SessionMsg> {
        match self {
            SemiSyncMpPort::Silent(p) => p.step(inbox),
            SemiSyncMpPort::Talking(p) => p.step(inbox),
        }
    }

    fn is_idle(&self) -> bool {
        match self {
            SemiSyncMpPort::Silent(p) => p.is_idle(),
            SemiSyncMpPort::Talking(p) => p.is_idle(),
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
    fn step_counter_needs_documented_steps() {
        // s = 2, c1 = 2, c2 = 5 => B = 3, needed = 4.
        let mut p = StepCountingMpPort::new(2, d(2), d(5)).unwrap();
        assert_eq!(p.steps_needed(), 4);
        for _ in 0..3 {
            assert_eq!(p.step(vec![]), None);
            assert!(!p.is_idle());
        }
        let _ = p.step(vec![]);
        assert!(p.is_idle());
        assert!(StepCountingMpPort::new(2, d(0), d(5)).is_err());
    }

    #[test]
    fn strategy_choice_compares_per_session_costs() {
        // (floor(4/1)+1)*4 = 20 vs d2 + c2 = 9: talk.
        let p = SemiSyncMpPort::new(3, 2, d(1), d(4), d(5)).unwrap();
        assert_eq!(p.strategy(), MpStrategy::Communicating);
        // (floor(4/4)+1)*4 = 8 vs d2 + c2 = 104: count.
        let p = SemiSyncMpPort::new(3, 2, d(4), d(4), d(100)).unwrap();
        assert_eq!(p.strategy(), MpStrategy::StepCounting);
    }

    #[test]
    fn explicit_strategy_is_respected() {
        let p = SemiSyncMpPort::with_strategy(3, 2, d(4), d(4), MpStrategy::Communicating).unwrap();
        assert_eq!(p.strategy(), MpStrategy::Communicating);
    }

    #[test]
    fn delegation_works_for_both_arms() {
        let mut silent =
            SemiSyncMpPort::with_strategy(1, 2, d(1), d(1), MpStrategy::StepCounting).unwrap();
        assert_eq!(silent.step(vec![]), None);
        assert!(silent.is_idle()); // s = 1 => 1 step

        let mut talking =
            SemiSyncMpPort::with_strategy(1, 2, d(1), d(1), MpStrategy::Communicating).unwrap();
        assert_eq!(talking.step(vec![]), Some(SessionMsg::new(1)));
        assert!(talking.is_idle());
    }
}
