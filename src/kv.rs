//! Shared `key=value` argument machinery for `session-cli` and its
//! subcommands.
//!
//! Every subcommand speaks the same grammar — a bag of `key=value`
//! options, each key at most once, every error carrying the command's
//! usage text. [`KvArgs`] packages that contract so `cli`, `run-real`,
//! `serve`, `analyze`, `stats` and `trace` parse identically instead of
//! each re-implementing the splitting, duplicate detection, and
//! typed-value error messages.

use std::collections::BTreeSet;
use std::str::FromStr;

use session_types::{Error, Result, TimingModel};

/// Duplicate-key detection for `key=value` parsers: each key may appear
/// at most once, and a repeat is reported by name instead of silently
/// letting the last occurrence win.
#[derive(Debug, Default)]
pub struct SeenKeys(BTreeSet<String>);

impl SeenKeys {
    /// Records `key`; returns the error message if it was already seen.
    pub fn duplicate(&mut self, key: &str) -> Option<String> {
        if self.0.insert(key.to_string()) {
            None
        } else {
            Some(format!(
                "duplicate option `{key}` (each key may be given once)"
            ))
        }
    }
}

/// A `key=value` argument scanner bound to one subcommand's usage text.
///
/// [`KvArgs::pair`] splits and duplicate-checks one argument;
/// [`KvArgs::value`] parses a typed value; [`KvArgs::error`] renders any
/// other parse failure. All errors append the usage text.
#[derive(Debug)]
pub struct KvArgs<'u> {
    usage: &'u str,
    seen: SeenKeys,
}

impl<'u> KvArgs<'u> {
    /// A scanner whose errors carry `usage`.
    pub fn new(usage: &'u str) -> KvArgs<'u> {
        KvArgs {
            usage,
            seen: SeenKeys::default(),
        }
    }

    /// An [`Error::InvalidParams`] carrying `msg` plus the usage text.
    pub fn error(&self, msg: impl std::fmt::Display) -> Error {
        Error::invalid_params(format!("{msg}\n{}", self.usage))
    }

    /// Splits one `key=value` argument, rejecting positional arguments
    /// and duplicate keys.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] (with usage) when `arg` has no
    /// `=` or its key was already seen.
    pub fn pair<'a>(&mut self, arg: &'a str) -> Result<(&'a str, &'a str)> {
        let (key, value) = arg
            .split_once('=')
            .ok_or_else(|| self.error(format_args!("expected key=value, got `{arg}`")))?;
        if let Some(msg) = self.seen.duplicate(key) {
            return Err(self.error(msg));
        }
        Ok((key, value))
    }

    /// Parses `value` for `key`, reporting failures as
    /// ``"{key} must be {expected}"`` plus the usage text.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] when the value does not parse.
    pub fn value<T: FromStr>(&self, key: &str, value: &str, expected: &str) -> Result<T> {
        value
            .parse()
            .map_err(|_| self.error(format_args!("{key} must be {expected}")))
    }

    /// Parses a count for `key` that must be at least 1, reporting
    /// failures as ``"{key}= wants {what}, got `{value}`"`` and zero as
    /// meaningless, each plus the usage text.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] when the value does not parse or
    /// is zero.
    pub fn positive<T: FromStr + Default + PartialEq>(
        &self,
        key: &str,
        value: &str,
        what: &str,
    ) -> Result<T> {
        let parsed: T = value
            .parse()
            .map_err(|_| self.error(format_args!("{key}= wants {what}, got `{value}`")))?;
        if parsed == T::default() {
            return Err(self.error(format_args!("{key}=0 is meaningless; pass {key}=1 or more")));
        }
        Ok(parsed)
    }

    /// Parses an `on`/`off` switch for `key`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParams`] (with usage) for any other value.
    pub fn on_off(&self, key: &str, value: &str) -> Result<bool> {
        match value {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(self.error(format_args!("{key}= wants on or off, got `{other}`"))),
        }
    }
}

/// Parses the shared `model=` vocabulary used by every subcommand.
pub fn parse_timing_model(value: &str) -> Option<TimingModel> {
    match value {
        "sync" | "synchronous" => Some(TimingModel::Synchronous),
        "periodic" => Some(TimingModel::Periodic),
        "semisync" | "semi-synchronous" => Some(TimingModel::SemiSynchronous),
        "sporadic" => Some(TimingModel::Sporadic),
        "async" | "asynchronous" => Some(TimingModel::Asynchronous),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_splits_and_rejects_duplicates_and_positionals() {
        let mut kv = KvArgs::new("usage: test");
        assert_eq!(kv.pair("s=3").unwrap(), ("s", "3"));
        assert_eq!(
            kv.pair("listen=127.0.0.1:0").unwrap(),
            ("listen", "127.0.0.1:0")
        );
        let err = kv.pair("s=5").unwrap_err().to_string();
        assert!(err.contains("duplicate option `s`"), "{err}");
        assert!(err.contains("usage: test"), "{err}");
        let err = kv.pair("positional").unwrap_err().to_string();
        assert!(err.contains("expected key=value"), "{err}");
    }

    #[test]
    fn value_errors_name_the_key_and_expected_shape() {
        let kv = KvArgs::new("usage: test");
        assert_eq!(kv.value::<u64>("s", "3", "an integer").unwrap(), 3);
        let err = kv
            .value::<u64>("shards", "many", "an integer")
            .unwrap_err()
            .to_string();
        assert!(err.contains("shards must be an integer"), "{err}");
        assert!(err.contains("usage: test"), "{err}");
    }

    #[test]
    fn positive_counts_and_switches_name_the_key() {
        let kv = KvArgs::new("usage: test");
        assert_eq!(kv.positive::<usize>("threads", "4", "a count").unwrap(), 4);
        let err = kv
            .positive::<usize>("threads", "two", "a count")
            .unwrap_err()
            .to_string();
        assert!(err.contains("threads= wants a count, got `two`"), "{err}");
        assert!(err.contains("usage: test"), "{err}");
        let err = kv
            .positive::<u64>("s", "0", "a count")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("s=0 is meaningless; pass s=1 or more"),
            "{err}"
        );
        assert!(kv.on_off("progress", "on").unwrap());
        assert!(!kv.on_off("symbolic", "off").unwrap());
        let err = kv.on_off("symbolic", "maybe").unwrap_err().to_string();
        assert!(
            err.contains("symbolic= wants on or off, got `maybe`"),
            "{err}"
        );
        assert!(err.contains("usage: test"), "{err}");
    }

    #[test]
    fn timing_model_vocabulary() {
        assert_eq!(parse_timing_model("sync"), Some(TimingModel::Synchronous));
        assert_eq!(
            parse_timing_model("semi-synchronous"),
            Some(TimingModel::SemiSynchronous)
        );
        assert_eq!(parse_timing_model("async"), Some(TimingModel::Asynchronous));
        assert_eq!(parse_timing_model("quantum"), None);
    }

    #[test]
    fn timing_model_full_vocabulary_and_error_arms() {
        // Every accepted spelling, long and short.
        assert_eq!(
            parse_timing_model("synchronous"),
            Some(TimingModel::Synchronous)
        );
        assert_eq!(parse_timing_model("periodic"), Some(TimingModel::Periodic));
        assert_eq!(
            parse_timing_model("semisync"),
            Some(TimingModel::SemiSynchronous)
        );
        assert_eq!(parse_timing_model("sporadic"), Some(TimingModel::Sporadic));
        assert_eq!(
            parse_timing_model("asynchronous"),
            Some(TimingModel::Asynchronous)
        );
        // Near-misses must not parse: the vocabulary is exact.
        assert_eq!(parse_timing_model(""), None);
        assert_eq!(parse_timing_model("Sync"), None);
        assert_eq!(parse_timing_model("semi_synchronous"), None);
        assert_eq!(parse_timing_model(" periodic"), None);
    }

    #[test]
    fn empty_values_split_cleanly() {
        // `key=` is a well-formed pair with an empty value — rejecting
        // it (or not) is the typed parser's decision, not the splitter's.
        let mut kv = KvArgs::new("usage: test");
        assert_eq!(kv.pair("token=").unwrap(), ("token", ""));
        // And an empty value still fails typed parsing with the
        // key-naming message.
        let err = kv
            .value::<u64>("token", "", "an integer")
            .unwrap_err()
            .to_string();
        assert!(err.contains("token must be an integer"), "{err}");
    }

    #[test]
    fn duplicate_detection_is_by_key_name() {
        let mut seen = SeenKeys::default();
        assert_eq!(seen.duplicate("s"), None);
        assert_eq!(seen.duplicate("n"), None);
        let msg = seen.duplicate("s").expect("repeat reported");
        assert!(msg.contains('s'), "{msg}");
        // Distinct keys never collide, same key always does — even with
        // an empty name.
        assert_eq!(seen.duplicate(""), None);
        assert!(seen.duplicate("").is_some());
    }

    #[test]
    fn error_renders_message_then_usage() {
        let kv = KvArgs::new("usage: session-cli serve [key=value ...]");
        let err = kv.error("listen must be a socket address").to_string();
        let msg_at = err
            .find("listen must be a socket address")
            .expect("message present");
        let usage_at = err
            .find("usage: session-cli serve")
            .expect("usage appended");
        assert!(msg_at < usage_at, "usage follows the message: {err}");
    }
}
