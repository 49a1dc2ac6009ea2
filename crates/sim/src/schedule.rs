//! Step schedules: the adversary's choice of *when* each process steps.
//!
//! A schedule realizes the hidden timing information of a model run. The
//! paper assumes all processes start at time 0 and that every step —
//! including the first — obeys the model's constraint measured from time 0
//! (see the conversion note under Table 1); every implementation here
//! honours that by treating time 0 as the "previous step" of the first step.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::RngExt;

use session_types::{Dur, Error, ProcessId, Result, Time};

use crate::rng::{ratio_in_range, seeded_rng, GRANULARITY};

/// Chooses the real times of process steps.
///
/// Engines call [`first_step`](StepSchedule::first_step) once per process and
/// then [`next_step`](StepSchedule::next_step) after each executed step.
/// Implementations must return nondecreasing times per process with
/// `next_step(p, last) > last`.
pub trait StepSchedule {
    /// The time of process `p`'s first step.
    fn first_step(&mut self, p: ProcessId) -> Time;

    /// The time of process `p`'s next step, given its previous step was at
    /// `last`.
    fn next_step(&mut self, p: ProcessId, last: Time) -> Time;
}

/// Every process steps at its own constant period: the **periodic** model's
/// hidden `c_i` constants (§2.2), and — with all periods equal — the
/// **synchronous** model and the round-robin computations used by the
/// lower-bound proofs.
///
/// # Examples
///
/// ```
/// use session_sim::{FixedPeriods, StepSchedule};
/// use session_types::{Dur, ProcessId, Time};
///
/// # fn main() -> Result<(), session_types::Error> {
/// let mut s = FixedPeriods::new(vec![Dur::from_int(2), Dur::from_int(3)])?;
/// let p1 = ProcessId::new(1);
/// assert_eq!(s.first_step(p1), Time::from_int(3));
/// assert_eq!(s.next_step(p1, Time::from_int(3)), Time::from_int(6));
/// assert_eq!(s.c_max(), Dur::from_int(3));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FixedPeriods {
    periods: Vec<Dur>,
}

impl FixedPeriods {
    /// Creates a schedule from one period per process.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `periods` is empty or any period
    /// is not strictly positive.
    pub fn new(periods: Vec<Dur>) -> Result<FixedPeriods> {
        if periods.is_empty() {
            return Err(Error::invalid_params("FixedPeriods requires >= 1 period"));
        }
        if periods.iter().any(|p| !p.is_positive()) {
            return Err(Error::invalid_params(
                "FixedPeriods requires strictly positive periods",
            ));
        }
        Ok(FixedPeriods { periods })
    }

    /// Creates a schedule where all `n` processes share the period `c` —
    /// the synchronous model, and the round-robin computations of the
    /// lower-bound proofs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `n == 0` or `c <= 0`.
    pub fn uniform(n: usize, c: Dur) -> Result<FixedPeriods> {
        FixedPeriods::new(vec![c; n])
            .map_err(|_| Error::invalid_params("FixedPeriods::uniform requires n >= 1 and c > 0"))
    }

    /// The period of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn period(&self, p: ProcessId) -> Dur {
        self.periods[p.index()]
    }

    /// The largest period: the paper's `c_max`.
    pub fn c_max(&self) -> Dur {
        self.periods.iter().copied().fold(Dur::ZERO, Dur::max)
    }

    /// The smallest period: the paper's `c_min`.
    pub fn c_min(&self) -> Dur {
        self.periods
            .iter()
            .copied()
            .reduce(Dur::min)
            .expect("FixedPeriods is never empty")
    }
}

impl StepSchedule for FixedPeriods {
    fn first_step(&mut self, p: ProcessId) -> Time {
        Time::ZERO + self.periods[p.index()]
    }

    fn next_step(&mut self, p: ProcessId, last: Time) -> Time {
        last + self.periods[p.index()]
    }
}

/// Step gaps drawn uniformly (over a rational grid) from `[c1, c2]`: the
/// **semi-synchronous** model's hidden nondeterminism.
#[derive(Debug)]
pub struct JitterSchedule {
    c1: Dur,
    c2: Dur,
    rng: StdRng,
}

impl JitterSchedule {
    /// Creates a schedule drawing each gap from `[c1, c2]`, deterministically
    /// from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `c1 <= 0` or `c1 > c2`.
    pub fn new(c1: Dur, c2: Dur, seed: u64) -> Result<JitterSchedule> {
        if !c1.is_positive() {
            return Err(Error::invalid_params("JitterSchedule requires c1 > 0"));
        }
        if c1 > c2 {
            return Err(Error::invalid_params("JitterSchedule requires c1 <= c2"));
        }
        Ok(JitterSchedule {
            c1,
            c2,
            rng: seeded_rng(seed),
        })
    }

    fn gap(&mut self) -> Dur {
        Dur::from_ratio(ratio_in_range(
            &mut self.rng,
            self.c1.as_ratio(),
            self.c2.as_ratio(),
            GRANULARITY,
        ))
    }
}

impl StepSchedule for JitterSchedule {
    fn first_step(&mut self, _p: ProcessId) -> Time {
        Time::ZERO + self.gap()
    }

    fn next_step(&mut self, _p: ProcessId, last: Time) -> Time {
        last + self.gap()
    }
}

/// Step gaps of at least `c1` with occasional long pauses: the **sporadic**
/// model's event-driven behaviour (§1: "the time interval between
/// consecutive occurrences varies and can be arbitrarily large").
#[derive(Debug)]
pub struct SporadicBursts {
    c1: Dur,
    max_pause_factor: u32,
    pause_percent: u8,
    rng: StdRng,
}

impl SporadicBursts {
    /// Creates a schedule where each gap is `c1` with probability
    /// `(100 - pause_percent)%`, and otherwise `c1 * k` for a uniformly
    /// random integer `k ∈ [2, max_pause_factor]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `c1 <= 0`, `pause_percent > 100`
    /// or `max_pause_factor < 2`.
    pub fn new(
        c1: Dur,
        max_pause_factor: u32,
        pause_percent: u8,
        seed: u64,
    ) -> Result<SporadicBursts> {
        if !c1.is_positive() {
            return Err(Error::invalid_params("SporadicBursts requires c1 > 0"));
        }
        if pause_percent > 100 {
            return Err(Error::invalid_params(
                "SporadicBursts requires pause_percent <= 100",
            ));
        }
        if max_pause_factor < 2 {
            return Err(Error::invalid_params(
                "SporadicBursts requires max_pause_factor >= 2",
            ));
        }
        Ok(SporadicBursts {
            c1,
            max_pause_factor,
            pause_percent,
            rng: seeded_rng(seed),
        })
    }

    fn gap(&mut self) -> Dur {
        if self.rng.random_range(0..100u8) < self.pause_percent {
            let k = self.rng.random_range(2..=self.max_pause_factor);
            self.c1 * k as i128
        } else {
            self.c1
        }
    }
}

impl StepSchedule for SporadicBursts {
    fn first_step(&mut self, _p: ProcessId) -> Time {
        Time::ZERO + self.gap()
    }

    fn next_step(&mut self, _p: ProcessId, last: Time) -> Time {
        last + self.gap()
    }
}

/// All processes step at `normal_period` except one, which steps at
/// `slow_period`: the adversary of Theorem 4.3, which slows a single port
/// process to defeat algorithms that idle without communicating.
#[derive(Clone, Debug)]
pub struct SlowProcess {
    normal_period: Dur,
    slow: ProcessId,
    slow_period: Dur,
}

impl SlowProcess {
    /// Creates the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if either period is not strictly
    /// positive.
    pub fn new(normal_period: Dur, slow: ProcessId, slow_period: Dur) -> Result<SlowProcess> {
        if !normal_period.is_positive() || !slow_period.is_positive() {
            return Err(Error::invalid_params(
                "SlowProcess requires strictly positive periods",
            ));
        }
        Ok(SlowProcess {
            normal_period,
            slow,
            slow_period,
        })
    }

    fn period(&self, p: ProcessId) -> Dur {
        if p == self.slow {
            self.slow_period
        } else {
            self.normal_period
        }
    }
}

impl StepSchedule for SlowProcess {
    fn first_step(&mut self, p: ProcessId) -> Time {
        Time::ZERO + self.period(p)
    }

    fn next_step(&mut self, p: ProcessId, last: Time) -> Time {
        last + self.period(p)
    }
}

/// Fully scripted step times with a periodic tail: used by the lower-bound
/// adversaries to replay the retimed computations their constructions
/// produce, and by tests to pin exact interleavings.
#[derive(Clone, Debug)]
pub struct ExplicitSchedule {
    scripted: BTreeMap<ProcessId, VecDeque<Time>>,
    tail_period: Dur,
}

impl ExplicitSchedule {
    /// Creates a schedule that replays `scripted` times per process and then
    /// continues at `tail_period`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `tail_period <= 0` or any
    /// process's scripted times are not strictly increasing and positive.
    pub fn new(
        scripted: BTreeMap<ProcessId, Vec<Time>>,
        tail_period: Dur,
    ) -> Result<ExplicitSchedule> {
        if !tail_period.is_positive() {
            return Err(Error::invalid_params(
                "ExplicitSchedule requires tail_period > 0",
            ));
        }
        let mut map = BTreeMap::new();
        for (p, times) in scripted {
            let mut prev = Time::ZERO;
            for (i, &t) in times.iter().enumerate() {
                let strictly_after_prev = t > prev || (i == 0 && t >= prev);
                if !strictly_after_prev || t <= Time::ZERO {
                    return Err(Error::invalid_params(format!(
                        "ExplicitSchedule times for {p} must be positive and strictly increasing"
                    )));
                }
                prev = t;
            }
            map.insert(p, times.into_iter().collect());
        }
        Ok(ExplicitSchedule {
            scripted: map,
            tail_period,
        })
    }

    fn pop_or_tail(&mut self, p: ProcessId, last: Time) -> Time {
        if let Some(queue) = self.scripted.get_mut(&p) {
            if let Some(t) = queue.pop_front() {
                return t;
            }
        }
        last + self.tail_period
    }
}

impl StepSchedule for ExplicitSchedule {
    fn first_step(&mut self, p: ProcessId) -> Time {
        self.pop_or_tail(p, Time::ZERO)
    }

    fn next_step(&mut self, p: ProcessId, last: Time) -> Time {
        self.pop_or_tail(p, last)
    }
}

/// Composes different schedules per process: process `i` follows
/// `schedules[i]` (the last schedule serves any overflow ids). This is the
/// general adversary combinator — e.g. one process on [`SporadicBursts`]
/// while the rest run a [`JitterSchedule`] drumbeat.
///
/// The process id is passed through unchanged, so inner schedules must
/// tolerate every id routed to them (the randomized schedules ignore ids;
/// a [`FixedPeriods`] inner schedule must be built wide enough).
///
/// # Examples
///
/// ```
/// use session_sim::{JitterSchedule, PerProcess, SporadicBursts, StepSchedule};
/// use session_types::{Dur, ProcessId, Time};
///
/// # fn main() -> Result<(), session_types::Error> {
/// let mut sched = PerProcess::new(vec![
///     Box::new(JitterSchedule::new(Dur::from_int(2), Dur::from_int(2), 0)?),
///     Box::new(SporadicBursts::new(Dur::from_int(1), 8, 50, 7)?),
/// ])?;
/// assert_eq!(sched.first_step(ProcessId::new(0)), Time::from_int(2));
/// assert!(sched.first_step(ProcessId::new(1)) >= Time::from_int(1));
/// # Ok(())
/// # }
/// ```
pub struct PerProcess {
    schedules: Vec<Box<dyn StepSchedule>>,
}

impl std::fmt::Debug for PerProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerProcess")
            .field("schedules", &self.schedules.len())
            .finish()
    }
}

impl PerProcess {
    /// Creates the combinator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] if `schedules` is empty.
    pub fn new(schedules: Vec<Box<dyn StepSchedule>>) -> Result<PerProcess> {
        if schedules.is_empty() {
            return Err(Error::invalid_params("PerProcess requires >= 1 schedule"));
        }
        Ok(PerProcess { schedules })
    }

    fn pick(&mut self, p: ProcessId) -> &mut Box<dyn StepSchedule> {
        let idx = p.index().min(self.schedules.len() - 1);
        &mut self.schedules[idx]
    }
}

impl StepSchedule for PerProcess {
    fn first_step(&mut self, p: ProcessId) -> Time {
        self.pick(p).first_step(p)
    }

    fn next_step(&mut self, p: ProcessId, last: Time) -> Time {
        self.pick(p).next_step(p, last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_periods_validation() {
        assert!(FixedPeriods::new(vec![]).is_err());
        assert!(FixedPeriods::new(vec![Dur::ZERO]).is_err());
        assert!(FixedPeriods::new(vec![Dur::from_int(-1)]).is_err());
        assert!(FixedPeriods::uniform(0, Dur::from_int(1)).is_err());
        assert!(FixedPeriods::uniform(3, Dur::from_int(1)).is_ok());
    }

    #[test]
    fn fixed_periods_steps() {
        let mut s = FixedPeriods::new(vec![Dur::from_int(2), Dur::from_int(5)]).unwrap();
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        assert_eq!(s.first_step(p0), Time::from_int(2));
        assert_eq!(s.first_step(p1), Time::from_int(5));
        assert_eq!(s.next_step(p0, Time::from_int(2)), Time::from_int(4));
        assert_eq!(s.c_min(), Dur::from_int(2));
        assert_eq!(s.c_max(), Dur::from_int(5));
        assert_eq!(s.period(p1), Dur::from_int(5));
    }

    #[test]
    fn jitter_respects_bounds() {
        let c1 = Dur::from_int(2);
        let c2 = Dur::from_int(7);
        let mut s = JitterSchedule::new(c1, c2, 11).unwrap();
        let p = ProcessId::new(0);
        let mut last = Time::ZERO;
        for _ in 0..200 {
            let next = if last == Time::ZERO {
                s.first_step(p)
            } else {
                s.next_step(p, last)
            };
            let gap = next - last;
            assert!(gap >= c1 && gap <= c2, "gap {gap} outside [{c1}, {c2}]");
            last = next;
        }
    }

    #[test]
    fn jitter_validation() {
        assert!(JitterSchedule::new(Dur::ZERO, Dur::from_int(2), 0).is_err());
        assert!(JitterSchedule::new(Dur::from_int(3), Dur::from_int(2), 0).is_err());
        assert!(JitterSchedule::new(Dur::from_int(2), Dur::from_int(2), 0).is_ok());
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mk = || JitterSchedule::new(Dur::from_int(1), Dur::from_int(4), 5).unwrap();
        let mut a = mk();
        let mut b = mk();
        let p = ProcessId::new(0);
        let mut ta = a.first_step(p);
        let mut tb = b.first_step(p);
        for _ in 0..50 {
            assert_eq!(ta, tb);
            ta = a.next_step(p, ta);
            tb = b.next_step(p, tb);
        }
    }

    #[test]
    fn sporadic_gaps_at_least_c1() {
        let c1 = Dur::from_int(3);
        let mut s = SporadicBursts::new(c1, 10, 30, 17).unwrap();
        let p = ProcessId::new(0);
        let mut last = s.first_step(p);
        assert!(last - Time::ZERO >= c1);
        let mut saw_pause = false;
        for _ in 0..300 {
            let next = s.next_step(p, last);
            let gap = next - last;
            assert!(gap >= c1);
            saw_pause |= gap > c1;
            last = next;
        }
        assert!(saw_pause, "expected at least one long pause in 300 gaps");
    }

    #[test]
    fn sporadic_validation() {
        assert!(SporadicBursts::new(Dur::ZERO, 4, 10, 0).is_err());
        assert!(SporadicBursts::new(Dur::ONE, 1, 10, 0).is_err());
        assert!(SporadicBursts::new(Dur::ONE, 4, 101, 0).is_err());
        assert!(SporadicBursts::new(Dur::ONE, 4, 100, 0).is_ok());
    }

    #[test]
    fn slow_process_slows_only_target() {
        let mut s =
            SlowProcess::new(Dur::from_int(1), ProcessId::new(2), Dur::from_int(10)).unwrap();
        assert_eq!(s.first_step(ProcessId::new(0)), Time::from_int(1));
        assert_eq!(s.first_step(ProcessId::new(2)), Time::from_int(10));
        assert_eq!(
            s.next_step(ProcessId::new(2), Time::from_int(10)),
            Time::from_int(20)
        );
        assert!(SlowProcess::new(Dur::ZERO, ProcessId::new(0), Dur::ONE).is_err());
    }

    #[test]
    fn explicit_schedule_replays_then_tails() {
        let mut scripted = BTreeMap::new();
        scripted.insert(
            ProcessId::new(0),
            vec![Time::from_int(1), Time::from_int(4)],
        );
        let mut s = ExplicitSchedule::new(scripted, Dur::from_int(5)).unwrap();
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        assert_eq!(s.first_step(p0), Time::from_int(1));
        assert_eq!(s.next_step(p0, Time::from_int(1)), Time::from_int(4));
        // Script exhausted: falls back to the tail period.
        assert_eq!(s.next_step(p0, Time::from_int(4)), Time::from_int(9));
        // Unscripted process uses the tail period from the start.
        assert_eq!(s.first_step(p1), Time::from_int(5));
    }

    #[test]
    fn per_process_routes_by_id() {
        let mut sched = PerProcess::new(vec![
            Box::new(FixedPeriods::uniform(10, Dur::from_int(3)).unwrap()),
            Box::new(FixedPeriods::uniform(10, Dur::from_int(5)).unwrap()),
        ])
        .unwrap();
        assert_eq!(sched.first_step(ProcessId::new(0)), Time::from_int(3));
        assert_eq!(sched.first_step(ProcessId::new(1)), Time::from_int(5));
        // Overflow ids use the last schedule.
        assert_eq!(sched.first_step(ProcessId::new(9)), Time::from_int(5));
        assert_eq!(
            sched.next_step(ProcessId::new(0), Time::from_int(3)),
            Time::from_int(6)
        );
    }

    #[test]
    fn per_process_requires_one_schedule() {
        assert!(PerProcess::new(vec![]).is_err());
    }

    #[test]
    fn explicit_schedule_validation() {
        let mut bad = BTreeMap::new();
        bad.insert(
            ProcessId::new(0),
            vec![Time::from_int(3), Time::from_int(2)],
        );
        assert!(ExplicitSchedule::new(bad, Dur::ONE).is_err());

        let mut zero = BTreeMap::new();
        zero.insert(ProcessId::new(0), vec![Time::ZERO]);
        assert!(ExplicitSchedule::new(zero, Dur::ONE).is_err());

        assert!(ExplicitSchedule::new(BTreeMap::new(), Dur::ZERO).is_err());
    }
}
