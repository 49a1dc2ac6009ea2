//! The `session-cli stats` subcommand: run one configuration with the
//! in-memory recorder attached and print everything the instrumentation
//! layer observed — per-process step counts, engine counters and gauges,
//! and histogram summaries.
//!
//! `target=NAME` switches to analyzer mode: instead of one engine run, it
//! runs the explicit explorer (flight recorder on, so the `explore.*`
//! counters and timing histograms are populated — see DESIGN.md §15) and
//! the symbolic zone walker (`zones.*` counters, DBM closure timing) over
//! the named target, and renders both engines' metrics as one unified
//! snapshot.
//!
//! ```text
//! session-cli stats model=periodic comm=mp s=3 n=3
//! session-cli stats model=sync comm=sm s=2 n=2 json=stats.json
//! session-cli stats target=PeriodicMp threads=4 json=stats.json
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use session_analyzer::{target_names, target_space, ExploreOpts, FlightOpts};
use session_core::analysis::analyze;
use session_core::system::port_of;
use session_obs::InMemoryRecorder;
use session_sim::process_stats;
use session_types::{Error, Result};

use crate::cli::CliConfig;

/// A fully parsed `stats` command line.
#[derive(Clone, Debug)]
pub struct StatsConfig {
    /// The run configuration (everything `session-cli` itself accepts).
    /// `None` in analyzer mode (`target=`).
    pub run: Option<CliConfig>,
    /// Analyzer mode: the target whose explicit + symbolic metrics to
    /// snapshot.
    pub target: Option<String>,
    /// Worker threads for analyzer mode's explicit exploration.
    pub threads: usize,
    /// Where to also write the metrics snapshot as JSON, if requested.
    pub json: Option<PathBuf>,
}

impl StatsConfig {
    /// The usage string printed on parse errors.
    pub const USAGE: &'static str = "\
usage: session-cli stats [key=value ...]
  json=PATH    also write the metrics snapshot as JSON
  target=NAME  analyzer mode: snapshot the explicit explorer's and the
               symbolic zone walker's metrics for one registered target
  threads=N    worker threads for analyzer mode (default 1)
plus (without target=) every `session-cli` run option (model=, comm=, s=,
n=, schedule=, delay=, seed=, max-steps=, ...).";

    /// Parses the arguments after the `stats` keyword.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] (carrying a usage hint) when a run
    /// option is malformed, or when `target=` is combined with run
    /// options.
    pub fn parse<I, S>(args: I) -> Result<StatsConfig>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let bad = |msg: &str| Error::invalid_params(format!("{msg}\n{}", StatsConfig::USAGE));
        let mut json = None;
        let mut target: Option<String> = None;
        let mut threads: Option<usize> = None;
        let mut run_args: Vec<String> = Vec::new();
        for arg in args {
            let arg = arg.as_ref();
            match arg.split_once('=') {
                Some(("json", path)) => json = Some(PathBuf::from(path)),
                Some(("target", name)) => {
                    if !target_names().contains(&name) {
                        return Err(bad(&format!("unknown target `{name}`")));
                    }
                    target = Some(name.to_string());
                }
                Some(("threads", value)) => {
                    let parsed: usize = value
                        .parse()
                        .map_err(|_| bad(&format!("threads= wants a count, got `{value}`")))?;
                    if parsed == 0 {
                        return Err(bad("threads=0 is meaningless; pass threads=1 or more"));
                    }
                    threads = Some(parsed);
                }
                _ => run_args.push(arg.to_string()),
            }
        }
        if let Some(target) = target {
            if !run_args.is_empty() {
                return Err(bad(&format!(
                    "target= is analyzer mode and takes no run options (got `{}`)",
                    run_args.join(" ")
                )));
            }
            return Ok(StatsConfig {
                run: None,
                target: Some(target),
                threads: threads.unwrap_or(1),
                json,
            });
        }
        if threads.is_some() {
            return Err(bad("threads= only applies to analyzer mode (target=)"));
        }
        let run = CliConfig::parse(&run_args)
            .map_err(|err| Error::invalid_params(format!("{err}\n{}", StatsConfig::USAGE)))?;
        Ok(StatsConfig {
            run: Some(run),
            target: None,
            threads: 1,
            json,
        })
    }

    /// Runs the configuration and renders the report plus the recorded
    /// metrics, returning the printable report and the snapshot JSON.
    ///
    /// # Errors
    ///
    /// Propagates parameter and engine errors from the run.
    pub fn render(&self) -> Result<(String, String)> {
        if let Some(target) = &self.target {
            return Ok(self.render_target(target));
        }
        let run = self.run.as_ref().expect("either run or target is set"); // wslint: allow(ws004): constructors set exactly one of run/target
        let mut recorder = InMemoryRecorder::new();
        let (report, _bounds) = run.run_recorded(&mut recorder)?;
        let snapshot = recorder.into_snapshot();
        let spec = run.spec;

        let mut out = String::new();
        let _ = writeln!(out, "{} / {} — {}", run.model, run.comm, spec);
        let _ = writeln!(
            out,
            "terminated: {}   sessions: {}/{}   steps: {}",
            report.terminated,
            report.sessions,
            spec.s(),
            report.steps
        );

        let analysis = analyze(&report.trace, spec.n(), port_of(&spec));
        let ports = run.port_labels(report.trace.num_processes());
        // `process_stats` only tags shared-memory port steps; recount via
        // the port map so message-passing rows are right too.
        let events = report.trace.events();
        let mut port_steps = vec![0usize; report.trace.num_processes()];
        for (i, _port) in report.trace.port_steps(port_of(&spec)) {
            port_steps[events[i].process.index()] += 1;
        }
        let _ = writeln!(out, "\n## per process\n");
        let _ = writeln!(out, "| process | port | steps | port steps | idle at |");
        let _ = writeln!(out, "|---|---|---:|---:|---|");
        for (pid, stats) in process_stats(&report.trace) {
            let port = ports
                .get(pid.index())
                .and_then(|p| p.map(|p| p.to_string()))
                .unwrap_or_else(|| "-".into());
            let idle = stats.idle_at.map_or_else(|| "-".into(), |t| t.to_string());
            let _ = writeln!(
                out,
                "| {pid} | {port} | {} | {} | {idle} |",
                stats.steps,
                port_steps.get(pid.index()).copied().unwrap_or(0)
            );
        }
        let _ = writeln!(
            out,
            "\nmessages: {} sent, {} delivered   sessions closed: {}",
            analysis.messages_sent,
            analysis.messages_delivered,
            analysis.session_close_times.len()
        );
        let _ = writeln!(out, "\n## recorded metrics\n");
        out.push_str(&snapshot.to_markdown());
        Ok((out, snapshot.to_json()))
    }

    /// Analyzer mode: runs the explicit explorer (flight recorder on, so
    /// the `explore.*` counters, time-split totals and lock-wait/idle
    /// histograms are populated) and the symbolic zone walker (`zones.*`
    /// counters and DBM closure timing) over `target`, and renders both
    /// engines' metrics as one unified snapshot.
    fn render_target(&self, target: &str) -> (String, String) {
        let space = target_space(target).expect("parse validated the target name"); // wslint: allow(ws004): target names are validated at parse time
        let mut recorder = InMemoryRecorder::new();
        let opts = ExploreOpts {
            threads: self.threads,
            ..ExploreOpts::default()
        };
        let (report, _profile) = space.analyze(opts, &mut recorder, &FlightOpts::profiled());
        let symbolic = space.analyze_symbolic(&mut recorder);
        let snapshot = recorder.into_snapshot();

        let mut out = String::new();
        let _ = writeln!(out, "analyzer — target {target} (threads={})", self.threads);
        let explicit = &report.targets[0];
        let _ = writeln!(
            out,
            "explicit: {} states, {} memo hits, {} findings{}",
            explicit.states,
            explicit.memo_hits,
            report.findings.len(),
            if explicit.truncated {
                " (truncated)"
            } else {
                ""
            }
        );
        let zones = &symbolic.targets[0];
        let _ = writeln!(
            out,
            "symbolic: {} zone states, {} findings{}",
            zones.states,
            symbolic.findings.len(),
            if zones.truncated { " (truncated)" } else { "" }
        );
        let _ = writeln!(out, "\n## recorded metrics\n");
        out.push_str(&snapshot.to_markdown());
        (out, snapshot.to_json())
    }

    /// Runs the configuration, writes the JSON snapshot if requested, and
    /// returns the printable report.
    ///
    /// # Errors
    ///
    /// Propagates run errors and I/O errors (as [`Error::InvalidParams`]
    /// naming the path).
    pub fn execute(&self) -> Result<String> {
        let (mut out, json) = self.render()?;
        if let Some(path) = &self.json {
            std::fs::write(path, &json).map_err(|err| {
                Error::invalid_params(format!("cannot write {}: {err}", path.display()))
            })?;
            let _ = writeln!(out, "\nwrote {}", path.display());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use session_obs::json;

    #[test]
    fn bad_run_options_carry_the_stats_usage() {
        let err = StatsConfig::parse(["model=quantum"]).unwrap_err();
        assert!(err.to_string().contains("usage: session-cli stats"));
    }

    #[test]
    fn mp_stats_report_counters_and_per_process_table() {
        let config = StatsConfig::parse([
            "model=periodic",
            "comm=mp",
            "s=3",
            "n=3",
            "d2=8",
            "schedule=uniform:2",
            "delay=const:8",
        ])
        .unwrap();
        let (out, snapshot_json) = config.render().unwrap();
        // Every step of a message-passing port process is a port step, so
        // the steps and port-steps columns must match (7 each here).
        assert!(out.contains("| p0 | y0 | 7 | 7 |"), "{out}");
        assert!(out.contains("| p2 | y2 | 7 | 7 |"), "{out}");
        assert!(out.contains("mp.steps"), "{out}");
        assert!(out.contains("mp.messages_delivered"), "{out}");
        assert!(out.contains("mp.buffer_occupancy"), "{out}");
        assert!(out.contains("run.sessions_closed"), "{out}");
        json::validate(&snapshot_json).expect("snapshot must be valid JSON");
        assert!(
            snapshot_json.contains("\"mp.messages_sent\""),
            "{snapshot_json}"
        );
    }

    #[test]
    fn target_mode_parses_and_rejects_run_options() {
        let config = StatsConfig::parse(["target=PeriodicMp", "threads=4"]).unwrap();
        assert_eq!(config.target.as_deref(), Some("PeriodicMp"));
        assert_eq!(config.threads, 4);
        assert!(config.run.is_none());

        let err = StatsConfig::parse(["target=NoSuchTarget"]).unwrap_err();
        assert!(err.to_string().contains("unknown target"), "{err}");
        let err = StatsConfig::parse(["target=PeriodicMp", "model=periodic"]).unwrap_err();
        assert!(err.to_string().contains("takes no run options"), "{err}");
        let err =
            StatsConfig::parse(["model=sync", "comm=sm", "s=2", "n=2", "threads=2"]).unwrap_err();
        assert!(
            err.to_string().contains("only applies to analyzer mode"),
            "{err}"
        );
        assert!(StatsConfig::parse(["target=PeriodicMp", "threads=0"]).is_err());
    }

    #[test]
    fn target_mode_renders_a_unified_explicit_and_symbolic_snapshot() {
        let config = StatsConfig::parse(["target=SyncMp", "threads=2"]).unwrap();
        let (out, snapshot_json) = config.render().unwrap();
        assert!(
            out.contains("analyzer — target SyncMp (threads=2)"),
            "{out}"
        );
        assert!(out.contains("explicit:"), "{out}");
        assert!(out.contains("symbolic:"), "{out}");
        // Both engines' metrics land in one snapshot.
        assert!(out.contains("explore.states"), "{out}");
        assert!(out.contains("zones.zone_states"), "{out}");
        json::validate(&snapshot_json).expect("snapshot must be valid JSON");
        assert!(
            snapshot_json.contains("\"zones.dbm_closures\""),
            "{snapshot_json}"
        );
    }

    #[test]
    fn sm_stats_report_sm_counters() {
        let config = StatsConfig::parse(["model=sync", "comm=sm", "s=2", "n=2"]).unwrap();
        let (out, _json) = config.render().unwrap();
        assert!(out.contains("sm.steps"), "{out}");
        assert!(out.contains("sm.port_steps"), "{out}");
        assert!(out.contains("sched.steps_scheduled"), "{out}");
    }
}
