//! Message-delay policies: the adversary's choice of how long each message
//! spends in the network, within the model's `[d1, d2]` window.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use rand::rngs::StdRng;

use session_types::{Dur, Error, ProcessId, Result, Time};

use crate::rng::{ratio_in_range, seeded_rng, GRANULARITY};

/// Chooses the network delay of each (message, recipient) instance.
///
/// The returned delay is the paper's message delay: the time from the
/// sending step (which adds `(m, q)` to `net`) to the delivery step of the
/// network process (which moves `m` into `buf_q`); it excludes the time
/// until the recipient's next step (§2.1.2).
pub trait DelayPolicy {
    /// The delay for a message sent from `from` to `to` at `sent_at`.
    fn delay(&mut self, from: ProcessId, to: ProcessId, sent_at: Time) -> Dur;
}

/// Every message takes exactly the same time. With `d2` this is the
/// synchronous network and the worst case for most upper-bound experiments.
#[derive(Clone, Copy, Debug)]
pub struct ConstantDelay(Dur);

impl ConstantDelay {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `delay < 0`.
    pub fn new(delay: Dur) -> Result<ConstantDelay> {
        if delay.is_negative() {
            return Err(Error::invalid_params("ConstantDelay requires delay >= 0"));
        }
        Ok(ConstantDelay(delay))
    }

    /// The configured delay.
    pub fn get(&self) -> Dur {
        self.0
    }
}

impl DelayPolicy for ConstantDelay {
    fn delay(&mut self, _from: ProcessId, _to: ProcessId, _sent_at: Time) -> Dur {
        self.0
    }
}

/// Delays drawn uniformly (over a rational grid) from `[d1, d2]`.
#[derive(Debug)]
pub struct UniformDelay {
    d1: Dur,
    d2: Dur,
    rng: StdRng,
}

impl UniformDelay {
    /// Creates the policy, deterministic from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `d1 < 0` or `d1 > d2`.
    pub fn new(d1: Dur, d2: Dur, seed: u64) -> Result<UniformDelay> {
        if d1.is_negative() {
            return Err(Error::invalid_params("UniformDelay requires d1 >= 0"));
        }
        if d1 > d2 {
            return Err(Error::invalid_params("UniformDelay requires d1 <= d2"));
        }
        Ok(UniformDelay {
            d1,
            d2,
            rng: seeded_rng(seed),
        })
    }
}

impl DelayPolicy for UniformDelay {
    fn delay(&mut self, _from: ProcessId, _to: ProcessId, _sent_at: Time) -> Dur {
        Dur::from_ratio(ratio_in_range(
            &mut self.rng,
            self.d1.as_ratio(),
            self.d2.as_ratio(),
            GRANULARITY,
        ))
    }
}

/// A default delay with per-edge overrides: lets an adversary starve
/// specific sender→recipient pairs (e.g. maximal delay toward one process
/// while everyone else communicates instantly).
#[derive(Clone, Debug)]
pub struct TargetedDelay {
    default: Dur,
    overrides: BTreeMap<(ProcessId, ProcessId), Dur>,
}

impl TargetedDelay {
    /// Creates the policy with the given default delay.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `default < 0`.
    pub fn new(default: Dur) -> Result<TargetedDelay> {
        if default.is_negative() {
            return Err(Error::invalid_params("TargetedDelay requires delay >= 0"));
        }
        Ok(TargetedDelay {
            default,
            overrides: BTreeMap::new(),
        })
    }

    /// Overrides the delay for messages from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `delay < 0`.
    pub fn with_edge(
        mut self,
        from: ProcessId,
        to: ProcessId,
        delay: Dur,
    ) -> Result<TargetedDelay> {
        if delay.is_negative() {
            return Err(Error::invalid_params("TargetedDelay requires delay >= 0"));
        }
        self.overrides.insert((from, to), delay);
        Ok(self)
    }

    /// Overrides the delay for all messages *to* `to`.
    ///
    /// Applied after construction by recording a per-recipient override; an
    /// explicit per-edge override takes precedence.
    pub fn with_recipient(
        mut self,
        to: ProcessId,
        delay: Dur,
        senders: usize,
    ) -> Result<TargetedDelay> {
        if delay.is_negative() {
            return Err(Error::invalid_params("TargetedDelay requires delay >= 0"));
        }
        for s in 0..senders {
            let key = (ProcessId::new(s), to);
            self.overrides.entry(key).or_insert(delay);
        }
        Ok(self)
    }
}

impl DelayPolicy for TargetedDelay {
    fn delay(&mut self, from: ProcessId, to: ProcessId, _sent_at: Time) -> Dur {
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default)
    }
}

/// Replays a scripted sequence of delays (in send order) and then falls back
/// to a constant: used by adversaries to reproduce exact delay assignments
/// from the lower-bound constructions.
#[derive(Clone, Debug)]
pub struct ScriptedDelay {
    script: VecDeque<Dur>,
    fallback: Dur,
}

impl ScriptedDelay {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if any delay is negative.
    pub fn new(script: Vec<Dur>, fallback: Dur) -> Result<ScriptedDelay> {
        if fallback.is_negative() || script.iter().any(|d| d.is_negative()) {
            return Err(Error::invalid_params("ScriptedDelay requires delays >= 0"));
        }
        Ok(ScriptedDelay {
            script: script.into(),
            fallback,
        })
    }
}

impl DelayPolicy for ScriptedDelay {
    fn delay(&mut self, _from: ProcessId, _to: ProcessId, _sent_at: Time) -> Dur {
        self.script.pop_front().unwrap_or(self.fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn constant_delay() {
        let mut d = ConstantDelay::new(Dur::from_int(4)).unwrap();
        assert_eq!(d.delay(p(0), p(1), Time::ZERO), Dur::from_int(4));
        assert_eq!(d.get(), Dur::from_int(4));
        assert!(ConstantDelay::new(Dur::from_int(-1)).is_err());
    }

    #[test]
    fn uniform_delay_in_bounds_and_deterministic() {
        let d1 = Dur::from_int(2);
        let d2 = Dur::from_int(9);
        let mut a = UniformDelay::new(d1, d2, 3).unwrap();
        let mut b = UniformDelay::new(d1, d2, 3).unwrap();
        for _ in 0..200 {
            let da = a.delay(p(0), p(1), Time::ZERO);
            let db = b.delay(p(0), p(1), Time::ZERO);
            assert_eq!(da, db);
            assert!(da >= d1 && da <= d2);
        }
    }

    #[test]
    fn uniform_delay_validation() {
        assert!(UniformDelay::new(Dur::from_int(-1), Dur::ZERO, 0).is_err());
        assert!(UniformDelay::new(Dur::from_int(3), Dur::from_int(2), 0).is_err());
        assert!(UniformDelay::new(Dur::ZERO, Dur::ZERO, 0).is_ok());
    }

    #[test]
    fn targeted_delay_overrides() {
        let mut d = TargetedDelay::new(Dur::ZERO)
            .unwrap()
            .with_edge(p(0), p(2), Dur::from_int(7))
            .unwrap();
        assert_eq!(d.delay(p(0), p(1), Time::ZERO), Dur::ZERO);
        assert_eq!(d.delay(p(0), p(2), Time::ZERO), Dur::from_int(7));
    }

    #[test]
    fn targeted_recipient_override_keeps_edge_priority() {
        let mut d = TargetedDelay::new(Dur::ZERO)
            .unwrap()
            .with_edge(p(1), p(2), Dur::from_int(1))
            .unwrap()
            .with_recipient(p(2), Dur::from_int(9), 3)
            .unwrap();
        // Edge override survives the recipient-wide default.
        assert_eq!(d.delay(p(1), p(2), Time::ZERO), Dur::from_int(1));
        assert_eq!(d.delay(p(0), p(2), Time::ZERO), Dur::from_int(9));
        assert_eq!(d.delay(p(0), p(1), Time::ZERO), Dur::ZERO);
    }

    #[test]
    fn scripted_delay_replays_then_falls_back() {
        let mut d =
            ScriptedDelay::new(vec![Dur::from_int(5), Dur::from_int(1)], Dur::from_int(2)).unwrap();
        assert_eq!(d.delay(p(0), p(1), Time::ZERO), Dur::from_int(5));
        assert_eq!(d.delay(p(0), p(1), Time::ZERO), Dur::from_int(1));
        assert_eq!(d.delay(p(0), p(1), Time::ZERO), Dur::from_int(2));
        assert!(ScriptedDelay::new(vec![Dur::from_int(-1)], Dur::ZERO).is_err());
    }
}
