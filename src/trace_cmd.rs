//! The `session-cli trace` subcommand: run one configuration and export
//! the recorded timed computation as a Chrome trace-event / Perfetto JSON
//! file, a structured JSONL event stream, or both.
//!
//! ```text
//! session-cli trace model=periodic comm=mp s=3 n=3 d2=8 \
//!                   schedule=uniform:2 delay=const:8 out=run.perfetto.json
//! session-cli trace model=sync comm=sm s=2 n=2 jsonl=run.jsonl
//! ```
//!
//! The Perfetto file opens directly in <https://ui.perfetto.dev> (or
//! `chrome://tracing`): one track per process, step and delivery instants,
//! flow arrows per delivered message, and a `sessions` track with one
//! duration event per closed session.

use std::path::PathBuf;

use session_core::analysis::analyze;
use session_core::system::port_of;
use session_obs::export::{perfetto_json, trace_jsonl, ExportMeta};
use session_obs::NullRecorder;
use session_types::{Error, Result};

use crate::cli::CliConfig;
use crate::kv::KvArgs;

/// A fully parsed `trace` command line.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// The run configuration (everything `session-cli` itself accepts).
    pub run: CliConfig,
    /// Where to write the Perfetto JSON, if requested.
    pub out: Option<PathBuf>,
    /// Where to write the JSONL event stream, if requested.
    pub jsonl: Option<PathBuf>,
    /// Trace title (defaults to a description of the configuration).
    pub title: Option<String>,
}

/// The rendered exports, before any file I/O.
#[derive(Clone, Debug)]
pub struct TraceArtifacts {
    /// The Perfetto JSON document, when `out=` was given.
    pub perfetto: Option<String>,
    /// The JSONL event stream, when `jsonl=` was given.
    pub jsonl: Option<String>,
    /// One-paragraph run summary for stdout.
    pub summary: String,
}

impl TraceConfig {
    /// The usage string printed on parse errors.
    pub const USAGE: &'static str = "\
usage: session-cli trace [key=value ...]
  out=PATH     write Chrome trace-event / Perfetto JSON (open in ui.perfetto.dev)
  jsonl=PATH   write the structured JSONL event stream
  title=TEXT   trace title (default: the configuration description)
plus every `session-cli` run option (model=, comm=, s=, n=, schedule=,
delay=, seed=, max-steps=, ...). At least one of out= / jsonl= is required.";

    /// Parses the arguments after the `trace` keyword.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] (carrying a usage hint) when an
    /// argument is not `key=value`, a key is repeated, neither output is
    /// requested or a run option is malformed.
    pub fn parse<I, S>(args: I) -> Result<TraceConfig>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut kv = KvArgs::new(TraceConfig::USAGE);
        let mut out = None;
        let mut jsonl = None;
        let mut title = None;
        let mut run_args: Vec<String> = Vec::new();
        for arg in args {
            let arg = arg.as_ref();
            match kv.pair(arg)? {
                ("out", path) => out = Some(PathBuf::from(path)),
                ("jsonl", path) => jsonl = Some(PathBuf::from(path)),
                ("title", text) => title = Some(text.to_string()),
                _ => run_args.push(arg.to_string()),
            }
        }
        if out.is_none() && jsonl.is_none() {
            return Err(kv.error("pass out=PATH and/or jsonl=PATH"));
        }
        let run = CliConfig::parse(&run_args).map_err(|err| kv.error(err))?;
        Ok(TraceConfig {
            run,
            out,
            jsonl,
            title,
        })
    }

    /// Runs the configuration and renders the requested exports, without
    /// touching the filesystem (the binary writes the files; tests assert
    /// on the strings).
    ///
    /// # Errors
    ///
    /// Propagates parameter and engine errors from the run.
    pub fn render(&self) -> Result<TraceArtifacts> {
        let (report, _bounds) = self.run.run_recorded(&mut NullRecorder)?;
        let spec = self.run.spec;
        let analysis = analyze(&report.trace, spec.n(), port_of(&spec));
        let title = self
            .title
            .clone()
            .unwrap_or_else(|| format!("{} / {} — {}", self.run.model, self.run.comm, spec));
        let meta = ExportMeta::new(title)
            .with_ports(self.run.port_labels(report.trace.num_processes()))
            .with_sessions(analysis.session_close_times.clone());
        let perfetto = self
            .out
            .is_some()
            .then(|| perfetto_json(&report.trace, &meta));
        let jsonl = self
            .jsonl
            .is_some()
            .then(|| trace_jsonl(&report.trace, &meta));
        let summary = format!(
            "{}\nevents: {}   messages: {}   sessions closed: {}\n",
            meta.title,
            report.trace.len(),
            report.trace.messages().len(),
            analysis.session_close_times.len(),
        );
        Ok(TraceArtifacts {
            perfetto,
            jsonl,
            summary,
        })
    }

    /// Runs the configuration, writes the requested files and returns the
    /// printable summary.
    ///
    /// # Errors
    ///
    /// Propagates run errors and I/O errors (as [`Error::InvalidParams`]
    /// naming the path).
    pub fn execute(&self) -> Result<String> {
        let artifacts = self.render()?;
        let mut summary = artifacts.summary;
        let write = |path: &PathBuf, contents: &str| {
            std::fs::write(path, contents).map_err(|err| {
                Error::invalid_params(format!("cannot write {}: {err}", path.display()))
            })
        };
        if let (Some(path), Some(contents)) = (&self.out, &artifacts.perfetto) {
            write(path, contents)?;
            summary.push_str(&format!(
                "wrote {} (open in https://ui.perfetto.dev)\n",
                path.display()
            ));
        }
        if let (Some(path), Some(contents)) = (&self.jsonl, &artifacts.jsonl) {
            write(path, contents)?;
            summary.push_str(&format!("wrote {}\n", path.display()));
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use session_obs::json;

    const ACCEPTANCE: [&str; 7] = [
        "model=periodic",
        "comm=mp",
        "s=3",
        "n=3",
        "d2=8",
        "schedule=uniform:2",
        "delay=const:8",
    ];

    fn acceptance_args(extra: &str) -> Vec<String> {
        ACCEPTANCE
            .iter()
            .map(ToString::to_string)
            .chain([extra.to_string()])
            .collect()
    }

    #[test]
    fn requires_an_output() {
        let err = TraceConfig::parse(ACCEPTANCE).unwrap_err();
        assert!(err.to_string().contains("usage: session-cli trace"));
    }

    #[test]
    fn duplicate_keys_are_rejected_by_name() {
        // Its own keys and the run options it passes on alike.
        for (args, key) in [
            (["out=a.json", "out=b.json", "seed=1"], "out"),
            (["jsonl=a.jsonl", "jsonl=b.jsonl", "seed=1"], "jsonl"),
            (["out=a.json", "seed=1", "seed=2"], "seed"),
        ] {
            let err = TraceConfig::parse(args).unwrap_err().to_string();
            assert!(err.contains(&format!("duplicate option `{key}`")), "{err}");
            assert!(err.contains("usage: session-cli trace"), "{err}");
        }
    }

    #[test]
    fn bad_run_options_carry_the_trace_usage() {
        let err = TraceConfig::parse(["out=x.json", "model=quantum"]).unwrap_err();
        assert!(err.to_string().contains("usage: session-cli trace"));
    }

    #[test]
    fn acceptance_config_produces_valid_perfetto_json() {
        let config = TraceConfig::parse(acceptance_args("out=run.perfetto.json")).unwrap();
        let artifacts = config.render().unwrap();
        let perfetto = artifacts.perfetto.expect("out= requested");
        json::validate(&perfetto).expect("must parse as JSON");
        // One named track per process and the sessions track.
        for p in 0..3 {
            assert!(
                perfetto.contains(&format!("\"name\":\"p{p} (y{p})\"")),
                "{perfetto}"
            );
        }
        assert!(perfetto.contains("\"name\":\"sessions\""), "{perfetto}");
        assert!(perfetto.contains("\"name\":\"session 1\""), "{perfetto}");
        assert!(perfetto.contains("\"name\":\"session 3\""), "{perfetto}");
        assert!(artifacts.jsonl.is_none());
        // The greedy analysis counts every realized session, which can
        // exceed the required s = 3.
        assert!(artifacts.summary.contains("sessions closed: "));
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let config = TraceConfig::parse(acceptance_args("jsonl=run.jsonl")).unwrap();
        let artifacts = config.render().unwrap();
        let jsonl = artifacts.jsonl.expect("jsonl= requested");
        assert!(jsonl.lines().count() > 10);
        for line in jsonl.lines() {
            json::validate(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(jsonl.contains("\"type\":\"session\""), "{jsonl}");
    }

    #[test]
    fn title_overrides_the_default() {
        let mut args = acceptance_args("out=x.json");
        args.push("title=my run".to_string());
        let config = TraceConfig::parse(args).unwrap();
        assert_eq!(config.title.as_deref(), Some("my run"));
        let artifacts = config.render().unwrap();
        assert!(artifacts.perfetto.unwrap().contains("\"name\":\"my run\""));
    }

    #[test]
    fn sm_traces_export_without_a_port_map() {
        let config =
            TraceConfig::parse(["model=sync", "comm=sm", "s=2", "n=2", "out=sm.json"]).unwrap();
        let artifacts = config.render().unwrap();
        let perfetto = artifacts.perfetto.unwrap();
        json::validate(&perfetto).unwrap();
        assert!(perfetto.contains("\"name\":\"port step\""), "{perfetto}");
    }
}
