//! The `session-cli analyze` subcommand: run the exhaustive small-scope
//! model checker over named targets (or all of them), or the
//! happens-before analyzer over a recorded JSONL trace, and print a lint
//! report.
//!
//! ```text
//! session-cli analyze --all
//! session-cli analyze --all reduce=all
//! session-cli analyze --all reduce=all threads=8
//! session-cli analyze NaivePeriodicSm format=csv
//! session-cli analyze --all allow=SA005 warn=SA003
//! session-cli analyze target=PeriodicMp n=3 s=3 threads=8 profile=p.json
//! session-cli analyze PeriodicMp progress=on
//! session-cli analyze trace=run.jsonl
//! session-cli analyze trace=run.jsonl model=asynchronous
//! session-cli analyze --list
//! ```
//!
//! Exit status (returned by [`AnalyzeConfig::execute`], applied by the
//! binary): `0` when no deny-severity finding fired, `1` when at least one
//! did, `2` on usage errors, `3` when every finding cleared but at least
//! one exploration was cut at its depth budget (clean, but the verdict is
//! partial).
//!
//! The flight recorder (`profile=`, `progress=`; DESIGN.md §15) never
//! changes findings or exit codes — `tests/full_pipeline.rs` asserts
//! bit-identical reports with it on and off for every target.

use std::io::IsTerminal as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use session_analyzer::diag::ALL_CODES;
use session_analyzer::explore::SessionCounter;
use session_analyzer::{
    analyze_trace_jsonl, scoped_target_space, target_names, target_space, ExploreOpts, FlightOpts,
    LintCode, LintConfig, Report, Severity,
};
use session_obs::{NullRecorder, ProgressBoard};
use session_types::{Error, Result, TimingModel};

use crate::kv::{parse_timing_model, KvArgs};

/// Output format for the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalyzeFormat {
    /// GitHub-flavored markdown tables (the bench-report dialect).
    Markdown,
    /// `code,severity,target,scope,message` rows.
    Csv,
}

/// A fully parsed `analyze` command line.
#[derive(Clone, Debug)]
pub struct AnalyzeConfig {
    /// Targets to analyze, in registry order.
    pub targets: Vec<String>,
    /// Recorded JSONL trace to run the happens-before analyzer over.
    pub trace: Option<String>,
    /// Timing-model claim override for the trace analysis (`model=`).
    pub model: Option<TimingModel>,
    /// Reduction and worker threads for the exploration (`reduce=`,
    /// `threads=`).
    pub opts: ExploreOpts,
    /// When true, additionally run the symbolic zone-graph engine over
    /// each selected target (`symbolic=on`).
    pub symbolic: bool,
    /// Output format.
    pub format: AnalyzeFormat,
    /// Per-rule severity overrides.
    pub lints: LintConfig,
    /// When true, print the target registry and the lint codes, and exit.
    pub list: bool,
    /// Rebuild the (single) target at this process count (`n=`).
    pub n: Option<usize>,
    /// Rebuild the (single) target at this session count (`s=`).
    pub s: Option<u64>,
    /// Write the exploration's `analyzer-profile/v2` document here (and a
    /// Perfetto trace next to it); requires exactly one target.
    pub profile: Option<PathBuf>,
    /// Live progress line on stderr (`progress=on`); rate-limited, and
    /// silent when stderr is not a terminal or `CI` is set.
    pub progress: bool,
}

impl AnalyzeConfig {
    /// The usage string printed on parse errors.
    pub const USAGE: &'static str = "\
usage: session-cli analyze [--all | TARGET ...] [key=value ...]
  --all                 analyze every registered target
  --list                print the registered targets and lint codes, exit
  target=NAME           select a target (same as naming it positionally)
  n=N s=S               rebuild the target at these dimensions (exactly
                        one target; defaults are the registry fixtures)
  trace=FILE.jsonl      analyze a recorded trace (happens-before lints)
  model=NAME            claim override for trace analysis (synchronous,
                        periodic, semi-synchronous, sporadic, asynchronous;
                        or sync, semisync, async)
  reduce=none|por|all   partial-order reduction for the exploration
                        (default none; all is the same as por)
  threads=N             worker threads for the exploration (default 1);
                        findings are identical at every thread count
  symbolic=on|off       additionally run the symbolic zone-graph engine
                        over each target (SA010-SA012; default off)
  profile=FILE.json     write the exploration's flight-recorder profile
                        (analyzer-profile/v2, plus FILE.perfetto.json);
                        exactly one target; findings are unchanged
  progress=on|off       live progress line on stderr (default off; silent
                        when stderr is not a terminal or CI is set)
  format=md|csv         report format (default md)
  allow=CODE[,CODE...]  suppress rules (SAxxx code or rule name)
  warn=CODE[,CODE...]   report rules without failing
  deny=CODE[,CODE...]   restore rules to failing (the default)
exit status: 0 clean, 1 deny-severity finding, 2 usage error,
3 clean but at least one exploration was cut at its depth budget
targets: the ten paper algorithms (clean) and three naive witnesses
(flagged); run `session-cli analyze --list` for the names.";

    /// Parses the arguments after the `analyze` keyword.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] (carrying a usage hint) on unknown
    /// targets, codes, formats, models or options, on a repeated key, on
    /// `model=` without `trace=`, and when nothing is selected.
    pub fn parse<I, S>(args: I) -> Result<AnalyzeConfig>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut kv = KvArgs::new(AnalyzeConfig::USAGE);
        let mut all = false;
        let mut list = false;
        let mut targets: Vec<String> = Vec::new();
        let mut trace = None;
        let mut model = None;
        let mut opts = ExploreOpts::default();
        let mut threads: Option<usize> = None;
        let mut symbolic: Option<bool> = None;
        let mut format = AnalyzeFormat::Markdown;
        let mut lints = LintConfig::new();
        let mut n: Option<usize> = None;
        let mut s: Option<u64> = None;
        let mut profile: Option<PathBuf> = None;
        let mut progress: Option<bool> = None;

        let target = |kv: &KvArgs, name: &str| {
            if target_names().contains(&name) {
                Ok(name.to_string())
            } else {
                Err(kv.error(format_args!("unknown target `{name}`")))
            }
        };
        let set_codes = |kv: &KvArgs, lints: &mut LintConfig, value: &str, severity| {
            for part in value.split(',') {
                let code = LintCode::parse(part)
                    .ok_or_else(|| kv.error(format_args!("unknown lint code `{part}`")))?;
                lints.set(code, severity);
            }
            Ok::<(), Error>(())
        };

        for arg in args {
            let arg = arg.as_ref();
            match arg {
                "--all" => all = true,
                "--list" => list = true,
                _ if !arg.contains('=') => targets.push(target(&kv, arg)?),
                _ => match kv.pair(arg)? {
                    ("format", value) => {
                        format = match value {
                            "md" | "markdown" => AnalyzeFormat::Markdown,
                            "csv" => AnalyzeFormat::Csv,
                            other => return Err(kv.error(format_args!("unknown format `{other}`"))),
                        }
                    }
                    ("trace", value) => trace = Some(value.to_string()),
                    ("model", value) => {
                        model = Some(parse_timing_model(value).ok_or_else(|| {
                            kv.error(format_args!("unknown timing model `{value}`"))
                        })?);
                    }
                    ("reduce", value) => {
                        opts.por = match value {
                            "none" => false,
                            "por" | "all" => true,
                            other => {
                                return Err(kv.error(format_args!(
                                    "unknown reduction `{other}` (expected none|por|all)"
                                )))
                            }
                        }
                    }
                    ("threads", value) => threads = Some(kv.positive("threads", value, "a count")?),
                    ("symbolic", value) => symbolic = Some(kv.on_off("symbolic", value)?),
                    ("target", value) => targets.push(target(&kv, value)?),
                    ("n", value) => {
                        let parsed: usize = kv.positive("n", value, "a process count")?;
                        if parsed > SessionCounter::MAX_PORTS {
                            return Err(kv.error(format_args!(
                                "n={parsed} is too large; the explorer tracks at most {} ports",
                                SessionCounter::MAX_PORTS
                            )));
                        }
                        n = Some(parsed);
                    }
                    ("s", value) => s = Some(kv.positive("s", value, "a session count")?),
                    ("profile", value) => profile = Some(PathBuf::from(value)),
                    ("progress", value) => progress = Some(kv.on_off("progress", value)?),
                    ("allow", value) => set_codes(&kv, &mut lints, value, Severity::Allow)?,
                    ("warn", value) => set_codes(&kv, &mut lints, value, Severity::Warn)?,
                    ("deny", value) => set_codes(&kv, &mut lints, value, Severity::Deny)?,
                    (other, _) => return Err(kv.error(format_args!("unknown option `{other}`"))),
                },
            }
        }

        let bad = |msg: &str| kv.error(msg);
        if all {
            targets = target_names().iter().map(ToString::to_string).collect();
        } else if targets.is_empty() && trace.is_none() && !list {
            return Err(bad("select targets by name, pass --all, or pass trace="));
        }
        if model.is_some() && trace.is_none() {
            return Err(bad("model= is a claim override for trace= analysis"));
        }
        if threads.is_some() && trace.is_some() {
            return Err(bad("threads= parallelizes the state-space exploration; \
                 trace analysis replays one recorded run and is inherently serial"));
        }
        if symbolic.is_some() && trace.is_some() {
            return Err(bad("symbolic= runs the zone-graph engine over a target's \
                 state space; trace analysis replays one recorded run and has no \
                 space to abstract"));
        }
        if (n.is_some() || s.is_some()) && targets.len() != 1 {
            return Err(bad(
                "n=/s= rebuild one target's scope: select exactly one target",
            ));
        }
        if profile.is_some() {
            if targets.len() != 1 {
                return Err(bad(
                    "profile= records one exploration: select exactly one target",
                ));
            }
            if symbolic == Some(true) {
                return Err(bad(
                    "profile= records the explicit exploration; it does not \
                     cover the symbolic zone walk (drop symbolic=on)",
                ));
            }
        }
        if (profile.is_some() || progress.is_some()) && trace.is_some() {
            return Err(bad(
                "profile=/progress= observe a state-space exploration; \
                 trace analysis replays one recorded run",
            ));
        }
        opts.threads = threads.unwrap_or(1);
        Ok(AnalyzeConfig {
            targets,
            trace,
            model,
            opts,
            symbolic: symbolic.unwrap_or(false),
            format,
            lints,
            list,
            n,
            s,
            profile,
            progress: progress.unwrap_or(false),
        })
    }

    /// Runs the selected explorations and/or the trace analysis and
    /// renders the report. The second component is the process exit code:
    /// `0` clean, `1` at least one deny-severity finding, `3` clean but
    /// at least one exploration was cut at its depth budget.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] when the trace file cannot be read
    /// or is not a well-formed event stream.
    pub fn execute(&self) -> Result<(String, i32)> {
        if self.list {
            let mut out = String::from("targets:\n");
            for name in target_names() {
                out.push_str("  ");
                out.push_str(name);
                out.push('\n');
            }
            out.push_str("lints:\n");
            for code in ALL_CODES {
                out.push_str(&format!(
                    "  {} {:<24} {}\n",
                    code.code(),
                    code.name(),
                    code.describe()
                ));
            }
            return Ok((out, 0));
        }
        let board = self.progress.then(|| Arc::new(ProgressBoard::new()));
        let monitor = board
            .as_ref()
            .and_then(|b| spawn_monitor(b, self.opts.threads));
        let flight = FlightOpts {
            profile: self.profile.is_some(),
            progress: board.clone(),
        };
        let mut report = Report::default();
        let mut profile_doc = None;
        for name in &self.targets {
            let expect = "parse validated the target names";
            let mut space = target_space(name).expect(expect); // wslint: allow(ws004): target names are validated at parse time
            if self.n.is_some() || self.s.is_some() {
                let (n, s) = (
                    self.n.unwrap_or(space.scope.n),
                    self.s.unwrap_or(space.scope.s),
                );
                space = scoped_target_space(name, n, s).expect(expect); // wslint: allow(ws004): target names are validated at parse time
            }
            // Both engines analyze the one built space, so `n=`/`s=`
            // reach the symbolic row too.
            let (target, profile) = space.analyze(self.opts, &mut NullRecorder, &flight);
            report.merge(target);
            profile_doc = profile_doc.or(profile);
            if self.symbolic {
                report.merge(space.analyze_symbolic(&mut NullRecorder));
            }
        }
        if let Some(board) = &board {
            board.finish();
        }
        if let Some(handle) = monitor {
            let _ = handle.join();
        }
        if let Some(path) = &self.trace {
            let text = std::fs::read_to_string(path)
                .map_err(|e| Error::invalid_params(format!("trace `{path}`: {e}")))?;
            let analysis = analyze_trace_jsonl(&text, path, self.model)
                .map_err(|e| Error::invalid_params(format!("trace `{path}`: {e}")))?;
            report.merge(analysis.report);
        }
        let mut rendered = match self.format {
            AnalyzeFormat::Markdown => report.to_markdown(&self.lints),
            AnalyzeFormat::Csv => report.to_csv(&self.lints),
        };
        if let (Some(path), Some(profile)) = (&self.profile, &profile_doc) {
            let write = |path: &std::path::Path, text: &str| {
                std::fs::write(path, text).map_err(|err| {
                    Error::invalid_params(format!("cannot write {}: {err}", path.display()))
                })
            };
            write(path, &profile.to_json())?;
            let perfetto_path = perfetto_path_for(path);
            write(&perfetto_path, &profile.to_perfetto())?;
            rendered.push_str(&format!(
                "\nwrote {}\nwrote {}\n",
                path.display(),
                perfetto_path.display()
            ));
        }
        Ok((rendered, exit_code(&report, &self.lints)))
    }
}

/// `p.json` → `p.perfetto.json` (non-`.json` paths just get the suffix
/// appended).
fn perfetto_path_for(path: &std::path::Path) -> PathBuf {
    let raw = path.to_string_lossy();
    let stem = raw.strip_suffix(".json").unwrap_or(&raw);
    PathBuf::from(format!("{stem}.perfetto.json"))
}

/// Starts the `progress=on` stderr monitor, unless stderr is not a
/// terminal or `CI` is set (a CI log would collect thousands of
/// carriage-returned lines). The thread redraws a `\r`-anchored status
/// line about five times a second and clears it when the board finishes.
fn spawn_monitor(
    board: &Arc<ProgressBoard>,
    threads: usize,
) -> Option<std::thread::JoinHandle<()>> {
    if !std::io::stderr().is_terminal() || std::env::var_os("CI").is_some() {
        return None;
    }
    let board = Arc::clone(board);
    Some(std::thread::spawn(move || {
        // wslint: allow(ws001): the progress board shows real elapsed time by design
        let started = std::time::Instant::now();
        #[allow(clippy::cast_precision_loss)]
        while !board.is_done() {
            let snap = board.snapshot();
            let secs = started.elapsed().as_secs_f64();
            let rate = if secs > 0.0 {
                snap.states as f64 / secs
            } else {
                0.0
            };
            eprint!(
                "\r[analyze] states={} ({rate:.0}/s) depth={} pool={} busy={}/{threads}   ",
                snap.states, snap.depth, snap.frontier, snap.busy
            );
            std::thread::sleep(Duration::from_millis(200));
        }
        // Clear the status line so the report starts on a clean row.
        eprint!("\r{:78}\r", "");
    }))
}

/// Maps a finished report to the analyze exit status: `1` for any
/// deny-severity finding, `3` when every finding cleared but at least one
/// exploration was cut at its depth budget, `0` otherwise.
fn exit_code(report: &Report, lints: &LintConfig) -> i32 {
    if report.has_denials(lints) {
        1
    } else if report.targets.iter().any(|t| t.truncated) {
        3
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> (String, i32) {
        AnalyzeConfig::parse(args).unwrap().execute().unwrap()
    }

    #[test]
    fn truncated_but_clean_exits_3_and_denials_take_precedence() {
        use session_analyzer::TargetSummary;

        let lints = LintConfig::new();
        let mut report = Report::default();
        report.targets.push(TargetSummary::new("clean", 10));
        assert_eq!(exit_code(&report, &lints), 0);

        let mut cut = TargetSummary::new("cut", 10);
        cut.truncated = true;
        cut.depth_hits = 4;
        report.targets.push(cut);
        assert_eq!(exit_code(&report, &lints), 3);

        // A deny finding outranks the truncation signal.
        report.findings.push(session_analyzer::Diagnostic {
            code: LintCode::SessionDeficit,
            target: "cut".to_owned(),
            message: "synthetic".to_owned(),
            scope: String::new(),
            repro: String::new(),
            counterexample: String::new(),
        });
        assert_eq!(exit_code(&report, &lints), 1);
    }

    #[test]
    fn all_selects_the_whole_registry() {
        let config = AnalyzeConfig::parse(["--all"]).unwrap();
        assert_eq!(config.targets.len(), 13);
        assert_eq!(config.format, AnalyzeFormat::Markdown);
        assert_eq!(config.opts, ExploreOpts::default());
    }

    #[test]
    fn named_targets_format_and_reduce_parse() {
        let config =
            AnalyzeConfig::parse(["NaivePeriodicSm", "SyncSm", "format=csv", "reduce=all"])
                .unwrap();
        assert_eq!(config.targets, vec!["NaivePeriodicSm", "SyncSm"]);
        assert_eq!(config.format, AnalyzeFormat::Csv);
        assert_eq!(config.opts, ExploreOpts::reduced());
        assert!(AnalyzeConfig::parse(["SyncSm", "reduce=fast"]).is_err());
        // `all` is POR, the one reduction; any other value names the three.
        let por = AnalyzeConfig::parse(["SyncSm", "reduce=por"]).unwrap();
        assert_eq!(por.opts, ExploreOpts::reduced());
        let err = AnalyzeConfig::parse(["SyncSm", "reduce=symmetry"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("none|por|all"), "{err}");
        assert!(err.contains("usage: session-cli analyze"), "{err}");
    }

    #[test]
    fn duplicate_keys_are_rejected_by_name() {
        // A repeated key is an error, not a silent last-one-wins.
        for (args, key) in [
            (["SyncSm", "reduce=all", "reduce=none"], "reduce"),
            (["SyncSm", "threads=2", "threads=4"], "threads"),
            (["SyncSm", "target=SyncMp", "target=SyncMp"], "target"),
        ] {
            let err = AnalyzeConfig::parse(args).unwrap_err().to_string();
            assert!(err.contains(&format!("duplicate option `{key}`")), "{err}");
            assert!(err.contains("usage: session-cli analyze"), "{err}");
        }
        // Positional targets are not keys: naming several stays legal.
        let config = AnalyzeConfig::parse(["SyncSm", "SyncMp", "target=PeriodicMp"]).unwrap();
        assert_eq!(config.targets, vec!["SyncSm", "SyncMp", "PeriodicMp"]);
    }

    #[test]
    fn model_takes_the_shared_timing_vocabulary() {
        for (value, model) in [
            ("sync", TimingModel::Synchronous),
            ("synchronous", TimingModel::Synchronous),
            ("semisync", TimingModel::SemiSynchronous),
            ("semi-synchronous", TimingModel::SemiSynchronous),
            ("async", TimingModel::Asynchronous),
            ("sporadic", TimingModel::Sporadic),
        ] {
            let arg = format!("model={value}");
            let config = AnalyzeConfig::parse(["trace=run.jsonl", arg.as_str()]).unwrap();
            assert_eq!(config.model, Some(model), "{value}");
        }
    }

    #[test]
    fn threads_parses_independently_of_reduce_order() {
        let config = AnalyzeConfig::parse(["--all", "reduce=all", "threads=8"]).unwrap();
        assert_eq!(
            config.opts,
            ExploreOpts {
                threads: 8,
                ..ExploreOpts::reduced()
            }
        );
        // reduce= after threads= must not reset the thread count.
        let config = AnalyzeConfig::parse(["SyncSm", "threads=4", "reduce=por"]).unwrap();
        assert_eq!(
            config.opts,
            ExploreOpts {
                por: true,
                threads: 4
            }
        );
        // Default stays serial.
        let config = AnalyzeConfig::parse(["SyncSm"]).unwrap();
        assert_eq!(config.opts.threads, 1);
    }

    #[test]
    fn symbolic_parses_composes_with_reduce_and_threads_and_rejects_trace() {
        let config = AnalyzeConfig::parse(["--all", "symbolic=on"]).unwrap();
        assert!(config.symbolic);
        let config = AnalyzeConfig::parse(["SyncSm", "symbolic=off"]).unwrap();
        assert!(!config.symbolic);
        // Default stays off.
        let config = AnalyzeConfig::parse(["SyncSm"]).unwrap();
        assert!(!config.symbolic);
        // Composes with the explicit engine's knobs.
        let config =
            AnalyzeConfig::parse(["SyncSm", "symbolic=on", "reduce=all", "threads=4"]).unwrap();
        assert!(config.symbolic);
        assert_eq!(
            config.opts,
            ExploreOpts {
                por: true,
                threads: 4
            }
        );
        // Not a valid trace-analysis knob.
        let err = AnalyzeConfig::parse(["trace=run.jsonl", "symbolic=on"]).unwrap_err();
        assert!(
            err.to_string().contains("no space to abstract"),
            "symbolic= with trace= should explain itself, got: {err}"
        );
        let err = AnalyzeConfig::parse(["SyncSm", "symbolic=maybe"]).unwrap_err();
        assert!(err.to_string().contains("usage: session-cli analyze"));
    }

    #[test]
    fn symbolic_run_adds_a_summary_row_per_target() {
        let (out, code) = run(&["SyncMp", "symbolic=on"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("| SyncMp |"), "{out}");
        assert!(out.contains("| SyncMp (symbolic) |"), "{out}");
    }

    #[test]
    fn zero_malformed_or_trace_bound_threads_are_usage_errors() {
        for bad in ["threads=0", "threads=", "threads=two", "threads=-1"] {
            let err = AnalyzeConfig::parse(["SyncSm", bad]).unwrap_err();
            assert!(
                err.to_string().contains("usage: session-cli analyze"),
                "`{bad}` should fail with usage, got: {err}"
            );
        }
        let err = AnalyzeConfig::parse(["trace=run.jsonl", "threads=2"]).unwrap_err();
        assert!(
            err.to_string().contains("inherently serial"),
            "threads= with trace= should explain itself, got: {err}"
        );
    }

    #[test]
    fn profile_progress_and_scope_args_parse_and_validate() {
        let config = AnalyzeConfig::parse([
            "PeriodicMp",
            "n=3",
            "s=3",
            "threads=2",
            "profile=p.json",
            "progress=on",
        ])
        .unwrap();
        assert_eq!(config.n, Some(3));
        assert_eq!(config.s, Some(3));
        assert_eq!(
            config.profile.as_deref(),
            Some(std::path::Path::new("p.json"))
        );
        assert!(config.progress);
        // Defaults stay off.
        let config = AnalyzeConfig::parse(["PeriodicMp"]).unwrap();
        assert!(config.n.is_none() && config.s.is_none());
        assert!(config.profile.is_none() && !config.progress);
        assert!(AnalyzeConfig::parse(["PeriodicMp", "progress=off"]).is_ok());

        // Scoped dims and profile= need exactly one target.
        for bad in ["n=2", "s=2", "profile=p.json"] {
            for args in [vec!["--all", bad], vec!["SyncSm", "SyncMp", bad]] {
                let err = AnalyzeConfig::parse(args).unwrap_err();
                assert!(
                    err.to_string().contains("exactly one target"),
                    "`{bad}` without a single target should explain itself, got: {err}"
                );
            }
        }
        // The flight recorder profiles the explicit explorer only.
        assert!(AnalyzeConfig::parse(["SyncSm", "profile=p.json", "symbolic=on"]).is_err());
        // Not trace-analysis knobs.
        assert!(AnalyzeConfig::parse(["trace=run.jsonl", "profile=p.json"]).is_err());
        assert!(AnalyzeConfig::parse(["trace=run.jsonl", "progress=on"]).is_err());
        // Malformed values are usage errors.
        for bad in ["n=0", "n=two", "n=65", "s=0", "progress=maybe"] {
            let err = AnalyzeConfig::parse(["PeriodicMp", bad]).unwrap_err();
            assert!(
                err.to_string().contains("usage: session-cli analyze"),
                "`{bad}` should fail with usage, got: {err}"
            );
        }
        // The explorer's port sets are 64-bit masks: n=65 names the limit
        // instead of panicking, and n=64 still parses.
        let err = AnalyzeConfig::parse(["PeriodicMp", "n=65"]).unwrap_err();
        assert!(err.to_string().contains("at most 64 ports"), "{err}");
        assert_eq!(
            AnalyzeConfig::parse(["PeriodicMp", "n=64"]).unwrap().n,
            Some(64)
        );
    }

    #[test]
    fn severity_overrides_parse_by_code_and_name() {
        let config = AnalyzeConfig::parse(["--all", "allow=SA005", "warn=stale-evidence"]).unwrap();
        assert_eq!(
            config.lints.severity(LintCode::NonTermination),
            Severity::Allow
        );
        assert_eq!(
            config.lints.severity(LintCode::StaleEvidence),
            Severity::Warn
        );
        assert_eq!(
            config.lints.severity(LintCode::SessionDeficit),
            Severity::Deny
        );
    }

    #[test]
    fn bad_arguments_are_rejected_with_usage() {
        for bad in [
            "NoSuchTarget",
            "format=xml",
            "allow=SA999",
            "frobnicate=1",
            "model=lockstep",
        ] {
            let err = AnalyzeConfig::parse([bad]).unwrap_err();
            assert!(
                err.to_string().contains("usage: session-cli analyze"),
                "`{bad}` should fail with usage, got: {err}"
            );
        }
        assert!(AnalyzeConfig::parse(Vec::<String>::new()).is_err());
        // model= is only meaningful with trace=.
        assert!(AnalyzeConfig::parse(["SyncSm", "model=sporadic"]).is_err());
    }

    #[test]
    fn list_prints_the_registry_without_exploring() {
        let (out, code) = run(&["--list"]);
        assert!(out.contains("NaiveSporadicMp"));
        assert_eq!(code, 0);
    }

    /// Sync test for the `--list` lint section: the match is exhaustive,
    /// so registering a new lint code fails compilation here until the
    /// listing (and this test) know about it.
    #[test]
    fn list_describes_every_lint_code() {
        let (out, _) = run(&["--list"]);
        for code in ALL_CODES {
            match code {
                LintCode::SessionDeficit
                | LintCode::BBoundViolation
                | LintCode::StaleEvidence
                | LintCode::InadmissibleStep
                | LintCode::NonTermination
                | LintCode::InfeasibleTiming
                | LintCode::SessionRace
                | LintCode::UnorderedSessionClose
                | LintCode::ModelMismatch
                | LintCode::DeadTimingBranch
                | LintCode::SymbolicBoundExceeded
                | LintCode::SymbolicDivergence => {}
            }
            assert!(out.contains(code.code()), "missing {}: {out}", code.code());
            assert!(
                out.contains(code.describe()),
                "missing description of {}: {out}",
                code.code()
            );
        }
    }

    #[test]
    fn analyzing_a_witness_denies_and_allow_suppresses() {
        let (out, code) = run(&["NaivePeriodicSm"]);
        assert_eq!(code, 1, "the witness must fail the run");
        assert!(out.contains("SA001"), "{out}");
        let (out, code) = run(&["NaivePeriodicSm", "allow=SA001,SA005"]);
        assert_eq!(code, 0, "allow must clear the exit status");
        assert!(out.contains("No findings."), "{out}");
    }

    #[test]
    fn clean_target_renders_markdown_summary() {
        for reduce in ["reduce=none", "reduce=all"] {
            let (out, code) = run(&["SyncSm", reduce]);
            assert_eq!(code, 0);
            assert!(
                out.contains(
                    "| target | states explored | pruned | memo hits | findings | notes |"
                ),
                "{out}"
            );
            assert!(out.contains("| SyncSm |"), "{out}");
        }
    }

    #[test]
    fn missing_trace_file_is_a_usage_error() {
        let config = AnalyzeConfig::parse(["trace=/no/such/file.jsonl"]).unwrap();
        assert!(config.execute().is_err());
    }
}
