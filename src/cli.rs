//! The `session-cli` command line: run any (model × substrate × schedule ×
//! delay) configuration from the shell and print the verified report.
//!
//! Invocation grammar (every option is `key=value`; see
//! [`CliConfig::USAGE`]):
//!
//! ```text
//! session-cli model=periodic comm=mp s=5 n=4 d2=8 \
//!             schedule=periods:2,3,5,7 delay=const:8 timeline=true
//! ```

use std::fmt::Write as _;

use session_core::analysis::analyze;
use session_core::report::{run_mp_recorded, run_sm_recorded, MpConfig, RunReport, SmConfig};
use session_core::system::port_of;
use session_core::verify::check_admissible;
use session_obs::{NullRecorder, Recorder};
use session_sim::{
    render_timeline, ConstantDelay, DelayPolicy, FixedPeriods, HopDelay, JitterSchedule, RunLimits,
    SporadicBursts, StepSchedule, UniformDelay,
};
use session_smm::TreeSpec;
use session_types::{CommModel, Dur, KnownBounds, Result, SessionSpec, TimingModel};

use crate::kv::{parse_timing_model, KvArgs};

/// Which schedule family to drive the run with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleSpec {
    /// All processes at one period: `schedule=uniform:PERIOD`.
    Uniform(i128),
    /// Explicit periods, cycled if fewer than processes:
    /// `schedule=periods:2,3,5`.
    Periods(Vec<i128>),
    /// Random gaps in `[c1, c2]`: `schedule=jitter`.
    Jitter,
    /// Gaps `>= c1` with bursts: `schedule=bursts`.
    Bursts,
}

/// Which delay family (message passing only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DelaySpec {
    /// Constant delay: `delay=const:D`.
    Constant(i128),
    /// Uniform in `[d1, d2]`: `delay=uniform`.
    Uniform,
    /// Ring topology at a per-hop latency: `delay=ring:PER_HOP`.
    Ring(i128),
    /// Line topology: `delay=line:PER_HOP`.
    Line(i128),
    /// Star topology: `delay=star:PER_HOP`.
    Star(i128),
}

/// A fully parsed command line.
#[derive(Clone, Debug)]
pub struct CliConfig {
    /// Timing model.
    pub model: TimingModel,
    /// Communication substrate.
    pub comm: CommModel,
    /// Problem instance.
    pub spec: SessionSpec,
    /// Timing constants (where the model needs them).
    pub c1: i128,
    /// Upper step bound.
    pub c2: i128,
    /// Lower delay bound.
    pub d1: i128,
    /// Upper delay bound.
    pub d2: i128,
    /// Schedule family.
    pub schedule: ScheduleSpec,
    /// Delay family.
    pub delay: DelaySpec,
    /// RNG seed for randomized schedules/delays.
    pub seed: u64,
    /// Whether to print the trace timeline.
    pub timeline: bool,
    /// Step budget.
    pub max_steps: u64,
}

impl CliConfig {
    /// The usage string printed on parse errors.
    pub const USAGE: &'static str = "\
usage: session-cli [key=value ...]
  model=sync|periodic|semisync|sporadic|async   (default periodic)
  comm=sm|mp                                    (default mp)
  s=N n=N b=N                                   (default 3, 4, 2)
  c1=X c2=X d1=X d2=X                           (defaults 1, 4, 0, 8)
  schedule=uniform:P | periods:a,b,c | jitter | bursts   (default uniform:c2)
  delay=const:D | uniform | ring:H | line:H | star:H     (default const:d2)
  seed=N                                        (default 42)
  timeline=true|false                           (default false)
  max-steps=N                                   (default 1000000)
subcommands (own usage via `session-cli SUBCOMMAND --help`):
  analyze   exhaustive small-scope model checking over named targets
  trace     run one configuration, export Perfetto JSON / JSONL traces
  stats     run one configuration, print per-process and engine counters
  run-real  run one MP configuration on real clocks (one OS thread per
            process) and verify simulator conformance
  serve     run the sharded session service (TCP/UDP wire protocol,
            conformance-sampled multiplexed sessions)";

    /// Parses `key=value` arguments.
    ///
    /// # Errors
    ///
    /// Returns [`session_types::Error::InvalidParams`] (carrying a usage hint) on any
    /// unknown key, malformed value, or inconsistent combination.
    pub fn parse<I, S>(args: I) -> Result<CliConfig>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut model = TimingModel::Periodic;
        let mut comm = CommModel::MessagePassing;
        let (mut s, mut n, mut b) = (3u64, 4usize, 2usize);
        let (mut c1, mut c2, mut d1, mut d2) = (1i128, 4i128, 0i128, 8i128);
        let mut schedule = None;
        let mut delay = None;
        let mut seed = 42u64;
        let mut timeline = false;
        let mut max_steps = 1_000_000u64;

        let mut kv = KvArgs::new(CliConfig::USAGE);
        for arg in args {
            let (key, value) = kv.pair(arg.as_ref())?;
            match key {
                "model" => {
                    model = parse_timing_model(value)
                        .ok_or_else(|| kv.error(format_args!("unknown model `{value}`")))?;
                }
                "comm" => {
                    comm = match value {
                        "sm" => CommModel::SharedMemory,
                        "mp" => CommModel::MessagePassing,
                        other => return Err(kv.error(format_args!("unknown comm `{other}`"))),
                    }
                }
                "s" => s = kv.value(key, value, "an integer")?,
                "n" => n = kv.value(key, value, "an integer")?,
                "b" => b = kv.value(key, value, "an integer")?,
                "c1" => c1 = kv.value(key, value, "an integer")?,
                "c2" => c2 = kv.value(key, value, "an integer")?,
                "d1" => d1 = kv.value(key, value, "an integer")?,
                "d2" => d2 = kv.value(key, value, "an integer")?,
                "seed" => seed = kv.value(key, value, "an integer")?,
                "timeline" => timeline = kv.value(key, value, "true or false")?,
                "max-steps" => max_steps = kv.value(key, value, "an integer")?,
                "schedule" => {
                    schedule = Some(match value.split_once(':') {
                        Some(("uniform", p)) => ScheduleSpec::Uniform(
                            p.parse()
                                .map_err(|_| kv.error("uniform period must be an integer"))?,
                        ),
                        Some(("periods", list)) => {
                            let periods: std::result::Result<Vec<i128>, _> =
                                list.split(',').map(str::parse).collect();
                            ScheduleSpec::Periods(
                                periods.map_err(|_| kv.error("periods must be integers"))?,
                            )
                        }
                        None if value == "jitter" => ScheduleSpec::Jitter,
                        None if value == "bursts" => ScheduleSpec::Bursts,
                        _ => return Err(kv.error(format_args!("unknown schedule `{value}`"))),
                    });
                }
                "delay" => {
                    delay = Some(match value.split_once(':') {
                        Some(("const", x)) => DelaySpec::Constant(
                            x.parse()
                                .map_err(|_| kv.error("const delay must be an integer"))?,
                        ),
                        Some(("ring", h)) => DelaySpec::Ring(
                            h.parse()
                                .map_err(|_| kv.error("per-hop must be an integer"))?,
                        ),
                        Some(("line", h)) => DelaySpec::Line(
                            h.parse()
                                .map_err(|_| kv.error("per-hop must be an integer"))?,
                        ),
                        Some(("star", h)) => DelaySpec::Star(
                            h.parse()
                                .map_err(|_| kv.error("per-hop must be an integer"))?,
                        ),
                        None if value == "uniform" => DelaySpec::Uniform,
                        _ => return Err(kv.error(format_args!("unknown delay `{value}`"))),
                    });
                }
                other => return Err(kv.error(format_args!("unknown option `{other}`"))),
            }
        }

        Ok(CliConfig {
            model,
            comm,
            spec: SessionSpec::new(s, n, b)?,
            c1,
            c2,
            d1,
            d2,
            schedule: schedule.unwrap_or(ScheduleSpec::Uniform(c2)),
            delay: delay.unwrap_or(DelaySpec::Constant(d2)),
            seed,
            timeline,
            max_steps,
        })
    }

    fn bounds(&self) -> Result<KnownBounds> {
        let d = Dur::from_int;
        Ok(match self.model {
            TimingModel::Synchronous => KnownBounds::synchronous(d(self.c2), d(self.d2))?,
            TimingModel::Periodic => KnownBounds::periodic(d(self.d2))?,
            TimingModel::SemiSynchronous => {
                KnownBounds::semi_synchronous(d(self.c1), d(self.c2), d(self.d2))?
            }
            TimingModel::Sporadic => KnownBounds::sporadic(d(self.c1), d(self.d1), d(self.d2))?,
            TimingModel::Asynchronous => KnownBounds::asynchronous(),
        })
    }

    fn build_schedule(&self, num_processes: usize) -> Result<Box<dyn StepSchedule>> {
        let d = Dur::from_int;
        Ok(match &self.schedule {
            ScheduleSpec::Uniform(p) => Box::new(FixedPeriods::uniform(num_processes, d(*p))?),
            ScheduleSpec::Periods(list) => {
                let periods: Vec<Dur> = (0..num_processes)
                    .map(|i| d(list[i % list.len()]))
                    .collect();
                Box::new(FixedPeriods::new(periods)?)
            }
            ScheduleSpec::Jitter => {
                Box::new(JitterSchedule::new(d(self.c1), d(self.c2), self.seed)?)
            }
            ScheduleSpec::Bursts => Box::new(SporadicBursts::new(d(self.c1), 10, 25, self.seed)?),
        })
    }

    fn build_delay(&self) -> Result<Box<dyn DelayPolicy>> {
        let d = Dur::from_int;
        let n = self.spec.n();
        Ok(match &self.delay {
            DelaySpec::Constant(x) => Box::new(ConstantDelay::new(d(*x))?),
            DelaySpec::Uniform => Box::new(UniformDelay::new(d(self.d1), d(self.d2), self.seed)?),
            DelaySpec::Ring(h) => Box::new(HopDelay::ring(n, d(*h))?),
            DelaySpec::Line(h) => Box::new(HopDelay::line(n, d(*h))?),
            DelaySpec::Star(h) => Box::new(HopDelay::star(n, d(*h))?),
        })
    }

    /// Runs the configuration, streaming instrumentation to `recorder`,
    /// and returns the verified report together with the timing bounds it
    /// ran under. This is the shared engine behind [`CliConfig::execute`]
    /// and the `trace` / `stats` subcommands.
    ///
    /// # Errors
    ///
    /// Propagates parameter and engine errors.
    pub fn run_recorded(&self, recorder: &mut dyn Recorder) -> Result<(RunReport, KnownBounds)> {
        let bounds = self.bounds()?;
        let limits = RunLimits::default().with_max_steps(self.max_steps);
        let report: RunReport = match self.comm {
            CommModel::SharedMemory => {
                let tree = TreeSpec::build(self.spec.n(), self.spec.b());
                let mut schedule = self.build_schedule(self.spec.n() + tree.num_relays())?;
                run_sm_recorded(
                    SmConfig {
                        model: self.model,
                        spec: self.spec,
                        bounds,
                    },
                    schedule.as_mut(),
                    limits,
                    recorder,
                )?
            }
            CommModel::MessagePassing => {
                let mut schedule = self.build_schedule(self.spec.n())?;
                let mut delays = self.build_delay()?;
                run_mp_recorded(
                    MpConfig {
                        model: self.model,
                        spec: self.spec,
                        bounds,
                    },
                    schedule.as_mut(),
                    delays.as_mut(),
                    limits,
                    recorder,
                )?
            }
        };
        Ok((report, bounds))
    }

    /// The port realized by each process of this configuration, by process
    /// index: in message passing, process `i < n` realizes port `i`; in
    /// shared memory port steps are tagged in the trace itself, so the map
    /// is empty.
    pub fn port_labels(&self, num_processes: usize) -> Vec<Option<session_types::PortId>> {
        match self.comm {
            CommModel::SharedMemory => Vec::new(),
            CommModel::MessagePassing => {
                let map = port_of(&self.spec);
                (0..num_processes)
                    .map(|i| map(session_types::ProcessId::new(i)))
                    .collect()
            }
        }
    }

    /// Runs the configuration and renders the report.
    ///
    /// # Errors
    ///
    /// Propagates parameter and engine errors.
    pub fn execute(&self) -> Result<String> {
        let (report, bounds) = self.run_recorded(&mut NullRecorder)?;

        let mut out = String::new();
        let _ = writeln!(out, "{} / {} — {}", self.model, self.comm, self.spec);
        let admissible = check_admissible(&report.trace, &bounds).is_ok();
        let _ = writeln!(
            out,
            "terminated: {}   sessions: {}/{}   rounds: {}   admissible: {admissible}",
            report.terminated,
            report.sessions,
            self.spec.s(),
            report.rounds
        );
        let _ = writeln!(
            out,
            "running time: {}   steps: {}   γ: {}",
            report
                .running_time
                .map_or_else(|| "(did not terminate)".into(), |t| t.to_string()),
            report.steps,
            report.gamma
        );
        let analysis = analyze(&report.trace, self.spec.n(), port_of(&self.spec));
        let _ = writeln!(
            out,
            "messages: {} sent, {} delivered",
            analysis.messages_sent, analysis.messages_delivered
        );
        if self.timeline {
            let _ = writeln!(out, "\n{}", render_timeline(&report.trace, 60));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_parse() {
        let config = CliConfig::parse(Vec::<String>::new()).unwrap();
        assert_eq!(config.model, TimingModel::Periodic);
        assert_eq!(config.comm, CommModel::MessagePassing);
        assert_eq!(config.spec.s(), 3);
        assert_eq!(config.schedule, ScheduleSpec::Uniform(4));
        assert_eq!(config.delay, DelaySpec::Constant(8));
    }

    #[test]
    fn full_argument_set_parses() {
        let config = CliConfig::parse([
            "model=semisync",
            "comm=sm",
            "s=5",
            "n=9",
            "b=3",
            "c1=2",
            "c2=6",
            "d2=12",
            "schedule=periods:2,3",
            "seed=7",
            "timeline=true",
            "max-steps=500",
        ])
        .unwrap();
        assert_eq!(config.model, TimingModel::SemiSynchronous);
        assert_eq!(config.comm, CommModel::SharedMemory);
        assert_eq!(config.spec.n(), 9);
        assert_eq!(config.schedule, ScheduleSpec::Periods(vec![2, 3]));
        assert!(config.timeline);
        assert_eq!(config.max_steps, 500);
    }

    #[test]
    fn bad_arguments_are_rejected_with_usage() {
        for bad in [
            "model=quantum",
            "comm=pigeon",
            "s=many",
            "schedule=chaos",
            "delay=wormhole:3",
            "frobnicate=1",
            "positional",
        ] {
            let err = CliConfig::parse([bad]).unwrap_err();
            assert!(
                err.to_string().contains("usage:"),
                "`{bad}` should fail with usage, got: {err}"
            );
        }
    }

    #[test]
    fn duplicate_keys_are_rejected_by_name() {
        let err = CliConfig::parse(["s=3", "n=4", "s=5"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate option `s`"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        let err = CliConfig::parse(["model=sync", "model=sync"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate option `model`"), "{err}");
        // Distinct keys are of course still fine.
        CliConfig::parse(["s=3", "n=4", "b=2"]).unwrap();
    }

    #[test]
    fn execute_periodic_mp_default() {
        let config = CliConfig::parse(["model=periodic", "comm=mp", "s=3", "n=3"]).unwrap();
        let out = config.execute().unwrap();
        assert!(out.contains("terminated: true"), "{out}");
        assert!(out.contains("sessions: "), "{out}");
        assert!(out.contains("admissible: true"), "{out}");
    }

    #[test]
    fn execute_sm_with_timeline() {
        let config =
            CliConfig::parse(["model=sync", "comm=sm", "s=2", "n=2", "timeline=true"]).unwrap();
        let out = config.execute().unwrap();
        assert!(out.contains("t="), "timeline missing: {out}");
    }

    #[test]
    fn execute_with_ring_topology() {
        let config = CliConfig::parse([
            "model=async",
            "comm=mp",
            "s=3",
            "n=5",
            "delay=ring:2",
            "schedule=uniform:1",
        ])
        .unwrap();
        let out = config.execute().unwrap();
        assert!(out.contains("terminated: true"), "{out}");
        assert!(out.contains("/3"), "session count missing: {out}");
    }

    #[test]
    fn execute_sporadic_with_bursts() {
        let config = CliConfig::parse([
            "model=sporadic",
            "comm=mp",
            "s=3",
            "n=3",
            "c1=1",
            "d1=0",
            "d2=6",
            "schedule=bursts",
            "delay=uniform",
        ])
        .unwrap();
        let out = config.execute().unwrap();
        assert!(out.contains("terminated: true"), "{out}");
        assert!(out.contains("admissible: true"), "{out}");
    }
}
