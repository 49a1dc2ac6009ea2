//! Witness algorithms that run *faster* than the lower bounds allow — and
//! the adversarial schedules that consequently defeat them.
//!
//! Each witness is a plausible-looking algorithm whose running time beats an
//! `L` row of Table 1. The paper's theorems say such algorithms cannot be
//! correct; the functions in this module exhibit the incorrectness as an
//! actual admissible computation with fewer than `s` sessions, verified by
//! the independent session counter. Each experiment also runs the paper's
//! *correct* algorithm under the same adversary and confirms it still
//! produces `s` sessions.

use session_core::algorithms::{SporadicMpPort, StepCountingSmPort};
use session_core::system::{build_mp_system, build_sm_system, port_of};
use session_core::verify::{check_admissible, count_sessions};
use session_mpm::{Envelope, MpEngine, MpProcess};
use session_sim::{FixedPeriods, RunLimits, SlowProcess};
use session_smm::{JoinSemiLattice, Knowledge, PortBinding, SmEngine, SmProcess, TreeSpec};
use session_types::{Dur, Error, KnownBounds, PortId, ProcessId, Result, SessionSpec, Time, VarId};

/// A shared-memory port process that takes `s` port steps and idles without
/// any communication — correct in the synchronous model, a lower-bound
/// witness everywhere else.
#[derive(Clone, Debug, Hash)]
pub struct NaiveSmPort {
    port_var: VarId,
    steps_to_take: u64,
    steps: u64,
}

impl NaiveSmPort {
    /// Creates the witness taking `steps_to_take` port steps.
    pub fn new(port_var: VarId, steps_to_take: u64) -> NaiveSmPort {
        NaiveSmPort {
            port_var,
            steps_to_take,
            steps: 0,
        }
    }
}

impl SmProcess<Knowledge> for NaiveSmPort {
    fn target(&self) -> VarId {
        self.port_var
    }

    fn step(&mut self, value: &Knowledge) -> Knowledge {
        if self.steps < self.steps_to_take {
            self.steps += 1;
        }
        let mut unchanged = Knowledge::bottom();
        unchanged.join(value);
        unchanged
    }

    fn is_idle(&self) -> bool {
        self.steps >= self.steps_to_take
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

/// The message-passing twin of [`NaiveSmPort`].
#[derive(Clone, Debug, Hash)]
pub struct NaiveMpPort {
    steps_to_take: u64,
    steps: u64,
}

impl NaiveMpPort {
    /// Creates the witness taking `steps_to_take` steps.
    pub fn new(steps_to_take: u64) -> NaiveMpPort {
        NaiveMpPort {
            steps_to_take,
            steps: 0,
        }
    }
}

impl MpProcess<session_core::SessionMsg> for NaiveMpPort {
    fn step(
        &mut self,
        _inbox: Vec<Envelope<session_core::SessionMsg>>,
    ) -> Option<session_core::SessionMsg> {
        if self.steps < self.steps_to_take {
            self.steps += 1;
        }
        None
    }

    fn is_idle(&self) -> bool {
        self.steps >= self.steps_to_take
    }

    fn fingerprint(&self) -> u64 {
        session_types::fingerprint_of(self)
    }
}

/// The `NaivePeriodicSm` analyzer witness: a port process that takes `s`
/// silent steps in the periodic model and idles without ever hearing from
/// anyone. A slower port process defeats it (Theorem 4.3); the analyzer
/// flags the resulting session deficit as `SA001`.
pub fn naive_periodic_sm_port(port_var: VarId, s: u64) -> NaiveSmPort {
    NaiveSmPort::new(port_var, s)
}

/// The `NaiveSemiSyncSm` analyzer witness: a step-counting port process
/// whose block constant is computed as if steps were at least `2·c1` apart
/// — i.e. `⌊c2/2c1⌋ + 1` instead of the honest `⌊c2/c1⌋ + 1`. Run under
/// the true `[c1, c2]` bounds it certifies sessions its own steps have not
/// actually spanned (the step-counting arm of Theorem 5.1); the analyzer
/// flags the deficit as `SA001`.
///
/// # Errors
///
/// Returns [`Error::InvalidParams`] if `c1 <= 0` or `2·c1 > c2`.
pub fn naive_semisync_sm_port(
    port_var: VarId,
    s: u64,
    c1: Dur,
    c2: Dur,
) -> Result<StepCountingSmPort> {
    StepCountingSmPort::new(port_var, s, c1 * 2, c2)
}

/// The `NaiveSporadicMp` analyzer witness: `A(sp)` with its waiting
/// constant overridden to `B = 0`, so condition 2 trusts "freshness"
/// evidence without waiting out the delay uncertainty `u = d2 − d1`. An
/// adversarial delay assignment makes it certify sessions that never
/// happened; the analyzer flags the phantom certification as `SA003`.
pub fn naive_sporadic_mp_port(id: ProcessId, s: u64, n: usize) -> SporadicMpPort {
    SporadicMpPort::with_wait_override(id, s, n, 0)
}

/// The outcome of one lower-bound experiment: the same adversary applied to
/// the naive witness and to the paper's correct algorithm.
#[derive(Clone, Debug)]
pub struct LowerBoundDemo {
    /// Sessions the naive witness produced (expected `< s`).
    pub naive_sessions: u64,
    /// When the naive witness finished (it finishes fast — that is its sin).
    pub naive_running_time: Option<Time>,
    /// Sessions the correct algorithm produced under the same adversary
    /// (expected `>= s`).
    pub correct_sessions: u64,
    /// When the correct algorithm finished.
    pub correct_running_time: Option<Time>,
    /// The required number of sessions.
    pub s: u64,
}

impl LowerBoundDemo {
    /// Returns `true` if the experiment demonstrates the lower bound: the
    /// witness under-delivers and the correct algorithm does not.
    pub fn demonstrates_bound(&self) -> bool {
        self.naive_sessions < self.s && self.correct_sessions >= self.s
    }
}

/// Assembles the shared-memory system in which every port process is a
/// [`NaiveSmPort`] taking `steps_to_take` steps, over the usual tree
/// network — the standard system the adversaries attack.
pub fn naive_sm_system(spec: &SessionSpec, steps_to_take: u64) -> Result<SmEngine<Knowledge>> {
    let tree = TreeSpec::build(spec.n(), spec.b());
    let mut processes: Vec<Box<dyn SmProcess<Knowledge>>> = Vec::new();
    for i in 0..spec.n() {
        processes.push(Box::new(NaiveSmPort::new(tree.leaf_var(i), steps_to_take)));
    }
    for relay in tree.relay_processes() {
        processes.push(Box::new(relay));
    }
    let bindings = (0..spec.n())
        .map(|i| PortBinding {
            port: PortId::new(i),
            var: VarId::new(i),
            process: ProcessId::new(i),
        })
        .collect();
    SmEngine::new(
        vec![Knowledge::new(); tree.num_nodes()],
        processes,
        spec.b(),
        bindings,
    )
}

/// **Theorem 4.3 / 4.2, executed**: in the periodic model a single port
/// process may be arbitrarily slower than the rest. The naive witness (take
/// `s` steps, idle, never communicate) idles before the slowed process has
/// taken a single step, so fewer than `s` sessions exist; the paper's
/// `A(p)` waits to hear from everyone and survives.
///
/// `slow_factor` is how many times slower the slowed port process runs.
///
/// # Errors
///
/// Propagates engine errors; fails if either run exhausts `limits`.
pub fn periodic_sm_demo(
    spec: &SessionSpec,
    slow_factor: i128,
    limits: RunLimits,
) -> Result<LowerBoundDemo> {
    let slow = ProcessId::new(spec.n() - 1);
    let base = Dur::from_int(1);
    let slow_period = Dur::from_int(slow_factor.max(2));
    let bounds = KnownBounds::periodic(Dur::from_int(1))?;

    // The naive witness under the slowed schedule.
    let mut naive_engine = naive_sm_system(spec, spec.s())?;
    let mut sched = SlowProcess::new(base, slow, slow_period)?;
    let naive_outcome = naive_engine.run(&mut sched, limits)?;
    check_admissible(&naive_outcome.trace, &bounds)?;
    let naive_sessions = count_sessions(&naive_outcome.trace, spec.n(), |_| None);

    // The correct A(p) under the same adversary.
    let mut correct_engine = build_sm_system(spec, &bounds)?;
    let mut sched = SlowProcess::new(base, slow, slow_period)?;
    let correct_outcome = correct_engine.run(&mut sched, limits)?;
    check_admissible(&correct_outcome.trace, &bounds)?;
    let correct_sessions = count_sessions(&correct_outcome.trace, spec.n(), |_| None);

    let ports = (0..spec.n()).map(ProcessId::new).collect::<Vec<_>>();
    Ok(LowerBoundDemo {
        naive_sessions,
        naive_running_time: naive_outcome.trace.all_idle_time(ports.iter().copied()),
        correct_sessions,
        correct_running_time: correct_outcome.trace.all_idle_time(ports),
        s: spec.s(),
    })
}

/// **Theorem 4.2, executed (message passing)**: same slowed-process
/// adversary, message-passing substrate. The naive witness idles after `s`
/// fast steps; `A(p)` waits for everyone's announcement.
///
/// # Errors
///
/// Propagates engine errors.
pub fn periodic_mp_demo(
    spec: &SessionSpec,
    slow_factor: i128,
    d2: Dur,
    limits: RunLimits,
) -> Result<LowerBoundDemo> {
    let slow = ProcessId::new(spec.n() - 1);
    let base = Dur::from_int(1);
    let slow_period = Dur::from_int(slow_factor.max(2));
    let bounds = KnownBounds::periodic(d2)?;

    let mut delays = session_sim::ConstantDelay::new(d2)?;
    let processes: Vec<Box<dyn MpProcess<session_core::SessionMsg>>> = (0..spec.n())
        .map(|_| Box::new(NaiveMpPort::new(spec.s())) as Box<_>)
        .collect();
    let ports = (0..spec.n())
        .map(|i| (ProcessId::new(i), PortId::new(i)))
        .collect();
    let mut naive_engine = MpEngine::new(processes, ports)?;
    let mut sched = SlowProcess::new(base, slow, slow_period)?;
    let naive_outcome = naive_engine.run(&mut sched, &mut delays, limits)?;
    check_admissible(&naive_outcome.trace, &bounds)?;
    let naive_sessions = count_sessions(&naive_outcome.trace, spec.n(), port_of(spec));

    let mut correct_engine = build_mp_system(spec, &bounds)?;
    let mut sched = SlowProcess::new(base, slow, slow_period)?;
    let mut delays = session_sim::ConstantDelay::new(d2)?;
    let correct_outcome = correct_engine.run(&mut sched, &mut delays, limits)?;
    check_admissible(&correct_outcome.trace, &bounds)?;
    let correct_sessions = count_sessions(&correct_outcome.trace, spec.n(), port_of(spec));

    let port_ids = (0..spec.n()).map(ProcessId::new).collect::<Vec<_>>();
    Ok(LowerBoundDemo {
        naive_sessions,
        naive_running_time: naive_outcome.trace.all_idle_time(port_ids.iter().copied()),
        correct_sessions,
        correct_running_time: correct_outcome.trace.all_idle_time(port_ids),
        s: spec.s(),
    })
}

/// **Theorem 5.1's quantitative content, executed with a simple schedule**:
/// a semi-synchronous step-counting algorithm that certifies a session
/// after only `cheat_block <= ⌊c2/2c1⌋` own steps finishes too fast. Run
/// the cheater at `c1` while everyone else runs at `c2`: its
/// `(s−1)·cheat_block + 1` steps span less than `(s−1)·c2`, so the slow
/// processes cannot have closed `s` sessions. The honest step counter
/// (block `⌊c2/c1⌋ + 1`) survives the same schedule.
///
/// (The full reorder-and-retime machinery of Theorem 5.1 lives in
/// [`crate::retime`]; this demo isolates the *step-counting* arm of the
/// bound with a directly admissible schedule.)
///
/// # Errors
///
/// Returns [`Error::InvalidParams`] if `c2 < 4·c1` (the cheat needs a
/// nontrivial `⌊c2/2c1⌋`), and propagates engine errors.
pub fn semisync_sm_step_counting_demo(
    spec: &SessionSpec,
    c1: Dur,
    c2: Dur,
    limits: RunLimits,
) -> Result<LowerBoundDemo> {
    let half_block = c2.div_floor(c1 * 2);
    if half_block < 1 {
        return Err(Error::invalid_params("cheating demo requires c2 >= 2*c1"));
    }
    let cheat_block = half_block as u64;
    let honest_block = c2.div_floor(c1) as u64 + 1;
    let bounds = KnownBounds::semi_synchronous(c1, c2, Dur::from_int(1))?;

    // Everyone cheats: (s-1)*cheat_block + 1 steps each. The adversary runs
    // port process 0 at c1 and everyone else at c2; process 0 idles long
    // before the others have taken enough steps.
    let cheat_steps = (spec.s() - 1) * cheat_block + 1;
    let mut naive_engine = naive_sm_system(spec, cheat_steps)?;
    let mut sched = fast_one_schedule(naive_engine.num_processes(), c1, c2);
    let naive_outcome = naive_engine.run(&mut sched, limits)?;
    check_admissible(&naive_outcome.trace, &bounds)?;
    let naive_sessions = count_sessions(&naive_outcome.trace, spec.n(), |_| None);

    // The honest block size under the same schedule.
    let honest_steps = (spec.s() - 1) * honest_block + 1;
    let mut honest_engine = naive_sm_system(spec, honest_steps)?;
    let mut sched = fast_one_schedule(honest_engine.num_processes(), c1, c2);
    let honest_outcome = honest_engine.run(&mut sched, limits)?;
    check_admissible(&honest_outcome.trace, &bounds)?;
    let correct_sessions = count_sessions(&honest_outcome.trace, spec.n(), |_| None);

    let ports = (0..spec.n()).map(ProcessId::new).collect::<Vec<_>>();
    Ok(LowerBoundDemo {
        naive_sessions,
        naive_running_time: naive_outcome.trace.all_idle_time(ports.iter().copied()),
        correct_sessions,
        correct_running_time: honest_outcome.trace.all_idle_time(ports),
        s: spec.s(),
    })
}

/// Process 0 steps at `c1`; everyone else at `c2`.
fn fast_one_schedule(num_processes: usize, c1: Dur, c2: Dur) -> FixedPeriods {
    let mut periods = vec![c2; num_processes];
    periods[0] = c1;
    FixedPeriods::new(periods).expect("positive periods")
}

/// **The sporadic model's unbounded step time, executed**: there is no
/// upper bound on the gap between a process's steps, so a silent algorithm
/// that idles after a fixed number of steps is defeated by simply pausing
/// one process: the fast processes idle long before the paused process
/// resumes, and no further sessions can form. The honest `A(sp)` under the
/// very same schedule and delays keeps broadcasting and waiting for
/// evidence, and survives. (The quantitative per-session cost
/// `⌊u/4c1⌋ · K` of Theorem 6.5 is regenerated by the rescale-and-retime
/// machinery in [`crate::rescale`].)
///
/// Fixed scenario: `n = 2`, `s = 3`, `c1 = 1`, `d1 = 0`, delays 1.
///
/// # Errors
///
/// Propagates engine errors.
pub fn sporadic_mp_demo(d2: Dur, limits: RunLimits) -> Result<LowerBoundDemo> {
    let spec = SessionSpec::new(3, 2, 2)?;
    let c1 = Dur::from_int(1);
    let d1 = Dur::ZERO;
    let bounds = KnownBounds::sporadic(c1, d1, d2)?;
    let pause = Dur::from_int(1_000);
    let delay = Dur::from_int(1).min(d2);

    let make_schedule = || SlowProcess::new(c1, ProcessId::new(1), pause);
    let ports: Vec<(ProcessId, PortId)> = (0..2)
        .map(|i| (ProcessId::new(i), PortId::new(i)))
        .collect();

    // The witness: s silent steps, then idle.
    let naive: Vec<Box<dyn MpProcess<session_core::SessionMsg>>> = (0..2)
        .map(|_| Box::new(NaiveMpPort::new(3)) as Box<_>)
        .collect();
    let mut naive_engine = MpEngine::new(naive, ports.clone())?;
    let mut sched = make_schedule()?;
    let mut delays = session_sim::ConstantDelay::new(delay)?;
    let naive_outcome = naive_engine.run(&mut sched, &mut delays, limits)?;
    check_admissible(&naive_outcome.trace, &bounds)?;
    let naive_sessions = count_sessions(&naive_outcome.trace, 2, port_of(&spec));

    // The honest A(sp) under the same adversary.
    let honest: Vec<Box<dyn MpProcess<session_core::SessionMsg>>> = (0..2)
        .map(|i| {
            Box::new(SporadicMpPort::new(ProcessId::new(i), 3, 2, c1, d1, d2).expect("valid"))
                as Box<_>
        })
        .collect();
    let mut honest_engine = MpEngine::new(honest, ports)?;
    let mut sched = make_schedule()?;
    let mut delays = session_sim::ConstantDelay::new(delay)?;
    let honest_outcome = honest_engine.run(&mut sched, &mut delays, limits)?;
    check_admissible(&honest_outcome.trace, &bounds)?;
    let correct_sessions = count_sessions(&honest_outcome.trace, 2, port_of(&spec));

    let port_ids = [ProcessId::new(0), ProcessId::new(1)];
    Ok(LowerBoundDemo {
        naive_sessions,
        naive_running_time: naive_outcome.trace.all_idle_time(port_ids),
        correct_sessions,
        correct_running_time: honest_outcome.trace.all_idle_time(port_ids),
        s: 3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_sm_port_behaves() {
        let mut p = NaiveSmPort::new(VarId::new(0), 2);
        assert!(!p.is_idle());
        let _ = p.step(&Knowledge::new());
        let _ = p.step(&Knowledge::new());
        assert!(p.is_idle());
    }

    #[test]
    fn naive_mp_port_behaves() {
        let mut p = NaiveMpPort::new(1);
        assert_eq!(p.step(vec![]), None);
        assert!(p.is_idle());
    }

    #[test]
    fn periodic_sm_lower_bound_demonstrated() {
        let spec = SessionSpec::new(3, 4, 2).unwrap();
        let demo = periodic_sm_demo(&spec, 100, RunLimits::default()).unwrap();
        assert!(
            demo.demonstrates_bound(),
            "naive {} vs correct {} (s = {})",
            demo.naive_sessions,
            demo.correct_sessions,
            demo.s
        );
        // The witness finished no later than the correct algorithm — its
        // speed is exactly its sin.
        assert!(demo.naive_running_time.unwrap() <= demo.correct_running_time.unwrap());
    }

    #[test]
    fn periodic_mp_lower_bound_demonstrated() {
        let spec = SessionSpec::new(3, 3, 2).unwrap();
        let demo = periodic_mp_demo(&spec, 100, Dur::from_int(5), RunLimits::default()).unwrap();
        assert!(
            demo.demonstrates_bound(),
            "naive {} vs correct {}",
            demo.naive_sessions,
            demo.correct_sessions
        );
    }

    #[test]
    fn semisync_step_counting_lower_bound_demonstrated() {
        let spec = SessionSpec::new(4, 3, 2).unwrap();
        let demo = semisync_sm_step_counting_demo(
            &spec,
            Dur::from_int(1),
            Dur::from_int(8),
            RunLimits::default(),
        )
        .unwrap();
        assert!(
            demo.demonstrates_bound(),
            "naive {} vs correct {}",
            demo.naive_sessions,
            demo.correct_sessions
        );
    }

    #[test]
    fn semisync_demo_rejects_degenerate_parameters() {
        let spec = SessionSpec::new(2, 2, 2).unwrap();
        assert!(semisync_sm_step_counting_demo(
            &spec,
            Dur::from_int(3),
            Dur::from_int(4),
            RunLimits::default(),
        )
        .is_err());
    }

    #[test]
    fn sporadic_lower_bound_demonstrated() {
        let demo = sporadic_mp_demo(Dur::from_int(64), RunLimits::default()).unwrap();
        assert!(
            demo.demonstrates_bound(),
            "naive {} vs correct {} (s = {})",
            demo.naive_sessions,
            demo.correct_sessions,
            demo.s
        );
    }
}
