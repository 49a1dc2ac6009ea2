//! Configuration for a real-clock run.
//!
//! A [`RealConfig`] fixes everything the runtime needs before a thread is
//! spawned: the timing model and its `[c1, c2]` / `[d1, d2]` parameters,
//! the problem instance `(s, n)`, the transport, the RNG seed, and the
//! *realization* knobs that map logical time onto wall-clock time — the
//! real duration of one logical time unit and the watchdog limits.
//! [`RealConfig::validate`] routes the timing parameters through the
//! analyzer's `SA006 infeasible-timing` gate, so a configuration the
//! pacer cannot realize is rejected with the same diagnostic the
//! simulator CLI would emit.

use std::collections::BTreeMap;
use std::time::Duration;

use session_analyzer::{require_feasible, TimingParams};
use session_types::{Dur, Error, KnownBounds, ProcessId, Result, SessionSpec, TimingModel};

use crate::transport::TransportKind;

/// Everything a real-clock run needs.
#[derive(Clone, Debug)]
pub struct RealConfig {
    /// The timing model to realize.
    pub model: TimingModel,
    /// The `(s, n)`-session instance to solve.
    pub spec: SessionSpec,
    /// Lower step bound / sporadic minimum separation, in logical units.
    pub c1: Dur,
    /// Upper step bound (also the pacer window for models without one).
    pub c2: Dur,
    /// Lower message-delay bound.
    pub d1: Dur,
    /// Upper message-delay bound.
    pub d2: Dur,
    /// Which transport carries broadcasts.
    pub transport: TransportKind,
    /// Seed for every sampled gap and delay (mixed per process).
    pub seed: u64,
    /// Real duration of one logical time unit.
    pub unit: Duration,
    /// Watchdog: a process that takes this many steps without global
    /// quiescence aborts the run as failed.
    pub max_steps_per_process: u64,
    /// Watchdog: wall-clock deadline for the whole run.
    pub deadline: Duration,
    /// Optional per-process sporadic gap scripts (from
    /// [`session_rt::bridge::sporadic_gap_script`]); only meaningful for the
    /// sporadic model.
    pub sporadic_gaps: Option<BTreeMap<ProcessId, Vec<Dur>>>,
}

impl RealConfig {
    /// A configuration with paper-scale defaults: `[c1, c2] = [1, 2]`,
    /// `[d1, d2] = [0, 4]`, channel transport, 2 ms per logical unit.
    pub fn new(model: TimingModel, spec: SessionSpec) -> RealConfig {
        RealConfig {
            model,
            spec,
            c1: Dur::ONE,
            c2: Dur::from_int(2),
            d1: Dur::ZERO,
            d2: Dur::from_int(4),
            transport: TransportKind::Chan,
            seed: 42,
            unit: Duration::from_millis(2),
            max_steps_per_process: 10_000,
            deadline: Duration::from_secs(30),
            sporadic_gaps: None,
        }
    }

    /// The [`KnownBounds`] the run must be admissible under — exactly the
    /// mapping the simulator CLI uses, so sim and net verify against the
    /// same model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if the parameters violate a model
    /// precondition.
    pub fn bounds(&self) -> Result<KnownBounds> {
        match self.model {
            TimingModel::Synchronous => KnownBounds::synchronous(self.c2, self.d2),
            TimingModel::Periodic => KnownBounds::periodic(self.d2),
            TimingModel::SemiSynchronous => {
                KnownBounds::semi_synchronous(self.c1, self.c2, self.d2)
            }
            TimingModel::Sporadic => KnownBounds::sporadic(self.c1, self.d1, self.d2),
            TimingModel::Asynchronous => Ok(KnownBounds::asynchronous()),
        }
    }

    /// The nominal delay window the sender samples from: the model's
    /// bounds where it has them, the configured window where it does not
    /// (the asynchronous model's delays are unconstrained, but the pacer
    /// still needs a concrete target).
    pub fn delay_window(&self, bounds: &KnownBounds) -> (Dur, Dur) {
        let lo = bounds.d1().unwrap_or(self.d1);
        let hi = bounds.d2().unwrap_or(self.d2);
        (lo, hi)
    }

    /// Validates the configuration: the analyzer's `SA006` feasibility
    /// gate over the timing parameters, positive realization knobs, and —
    /// when a sporadic gap script is attached — one non-empty script per
    /// process with every gap at least `c1`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] naming every violation.
    pub fn validate(&self) -> Result<()> {
        require_feasible(&TimingParams {
            model: self.model,
            c1: self.c1,
            c2: self.c2,
            d1: self.d1,
            d2: self.d2,
        })?;
        if self.unit.is_zero() {
            return Err(Error::invalid_params(
                "real-clock unit must be positive".to_string(),
            ));
        }
        if self.max_steps_per_process == 0 {
            return Err(Error::invalid_params(
                "max_steps_per_process must be positive".to_string(),
            ));
        }
        if self.deadline.is_zero() {
            return Err(Error::invalid_params(
                "deadline must be positive".to_string(),
            ));
        }
        if let Some(gaps) = &self.sporadic_gaps {
            if self.model != TimingModel::Sporadic {
                return Err(Error::invalid_params(format!(
                    "sporadic gap scripts attached to a {} config",
                    self.model
                )));
            }
            for i in 0..self.spec.n() {
                let p = ProcessId::new(i);
                let script = gaps.get(&p).ok_or_else(|| {
                    Error::invalid_params(format!("no sporadic gap script for {p}"))
                })?;
                if script.is_empty() {
                    return Err(Error::invalid_params(format!(
                        "empty sporadic gap script for {p}"
                    )));
                }
                if script.iter().any(|&g| g < self.c1) {
                    return Err(Error::invalid_params(format!(
                        "sporadic gap script for {p} has a gap below c1 = {}",
                        self.c1
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(model: TimingModel) -> RealConfig {
        RealConfig::new(model, SessionSpec::new(2, 2, 2).unwrap())
    }

    #[test]
    fn defaults_validate_for_every_model() {
        for model in TimingModel::ALL {
            let cfg = config(model);
            cfg.validate().unwrap();
            cfg.bounds().unwrap();
        }
    }

    #[test]
    fn infeasible_timing_is_rejected_with_sa006() {
        let mut cfg = config(TimingModel::SemiSynchronous);
        cfg.c2 = Dur::ZERO; // c2 < c1: empty step window
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("SA006"), "{err}");
    }

    #[test]
    fn delay_window_follows_the_model() {
        let cfg = config(TimingModel::Synchronous);
        let bounds = cfg.bounds().unwrap();
        // Synchronous pins d1 = d2.
        assert_eq!(cfg.delay_window(&bounds), (cfg.d2, cfg.d2));
        let cfg = config(TimingModel::Asynchronous);
        let bounds = cfg.bounds().unwrap();
        // Asynchronous has no bounds: the configured window applies.
        assert_eq!(cfg.delay_window(&bounds), (cfg.d1, cfg.d2));
    }

    #[test]
    fn gap_scripts_are_checked() {
        let mut cfg = config(TimingModel::Sporadic);
        let mut gaps = BTreeMap::new();
        gaps.insert(ProcessId::new(0), vec![Dur::from_int(2)]);
        gaps.insert(ProcessId::new(1), vec![Dur::from_int(3)]);
        cfg.sporadic_gaps = Some(gaps.clone());
        cfg.validate().unwrap();
        // A gap below c1 is rejected.
        gaps.insert(ProcessId::new(1), vec![Dur::ZERO]);
        cfg.sporadic_gaps = Some(gaps);
        assert!(cfg.validate().is_err());
        // Scripts on a non-sporadic model are rejected.
        let mut cfg = config(TimingModel::Periodic);
        cfg.sporadic_gaps = Some(BTreeMap::new());
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_knobs_are_rejected() {
        let mut cfg = config(TimingModel::Periodic);
        cfg.unit = Duration::ZERO;
        assert!(cfg.validate().is_err());
        let mut cfg = config(TimingModel::Periodic);
        cfg.max_steps_per_process = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = config(TimingModel::Periodic);
        cfg.deadline = Duration::ZERO;
        assert!(cfg.validate().is_err());
    }
}
