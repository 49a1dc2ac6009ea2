//! Machine-readable (`--json`) output shared by every benchmark binary.
//!
//! Two layers:
//!
//! * [`JsonReport`] — the generic shape: the same section/header/row data a
//!   binary prints as markdown, collected and serialized as JSON, so every
//!   sweep binary gets `--json [PATH]` for free.
//! * [`table1_json`] — the rich Table 1 schema (`BENCH_table1.json`): per
//!   row, the numeric measured value and paper bound, their ratio, host
//!   wall-clock, and the engine counters recorded during the run. The
//!   schema is documented in `DESIGN.md` §10.
//!
//! Serialization uses `session_obs::json` — no external dependencies.

use std::path::PathBuf;

use session_obs::json::JsonWriter;

use crate::format::Row;
use crate::measure::RowMeasurement;

/// The version tag written into every report.
pub const SCHEMA_TABLE1: &str = "session-bench/table1/v1";
/// The version tag for the generic section-table reports.
pub const SCHEMA_SECTIONS: &str = "session-bench/sections/v1";

/// Parses a `--json [PATH]` flag out of a binary's argument list.
///
/// Returns `None` when the flag is absent; `Some(default_path)` for a bare
/// `--json`; `Some(path)` when a path follows the flag. All other
/// arguments are ignored (`sweeps` reads its subcommand name first).
pub fn json_flag<I, S>(args: I, default_path: &str) -> Option<PathBuf>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg.as_ref() == "--json" {
            let path = match args.next() {
                Some(next) if !next.as_ref().starts_with('-') => next.as_ref().to_owned(),
                _ => default_path.to_owned(),
            };
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// A collected report: the same sections a binary prints as markdown.
#[derive(Clone, Debug)]
pub struct JsonReport {
    title: String,
    sections: Vec<(String, Vec<String>, Vec<Row>)>,
}

impl JsonReport {
    /// Starts an empty report.
    pub fn new(title: &str) -> JsonReport {
        JsonReport {
            title: title.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Adds one section: a title, column headers, and the table rows.
    pub fn section(&mut self, title: &str, headers: &[&str], rows: &[Row]) {
        self.sections.push((
            title.to_owned(),
            headers.iter().map(|&h| h.to_owned()).collect(),
            rows.to_vec(),
        ));
    }

    /// Serializes the report: each row becomes an object keyed by the
    /// section's column headers.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", SCHEMA_SECTIONS);
        w.field_str("title", &self.title);
        w.key("sections");
        w.begin_array();
        for (title, headers, rows) in &self.sections {
            w.begin_object();
            w.field_str("title", title);
            w.key("rows");
            w.begin_array();
            for row in rows {
                w.begin_object();
                for (header, cell) in headers.iter().zip(&row.cells) {
                    w.field_str(header, cell);
                }
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Serializes measured Table 1 rows as `BENCH_table1.json`.
///
/// Per row: the markdown cells verbatim (`params`, `paper_bound`,
/// `measured`, `ok`) plus the numeric telemetry — `bound_value` /
/// `measured_value` in `unit`, their `ratio` (measured ÷ bound, null when
/// either side is non-numeric), `wall_clock_secs`, and the engine
/// `counters` recorded during the run.
pub fn table1_json(rows: &[RowMeasurement]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SCHEMA_TABLE1);
    w.key("rows");
    w.begin_array();
    for row in rows {
        w.begin_object();
        w.field_str("model", row.model);
        w.field_str("comm", row.comm);
        w.field_str("kind", row.kind.label());
        w.field_str("params", &row.params);
        w.field_str("paper_bound", &row.paper_bound);
        w.field_str("measured", &row.measured);
        w.field_bool("ok", row.ok);
        w.field_str("unit", row.unit);
        w.key("bound_value");
        match row.bound_value {
            Some(v) => w.value_f64(v),
            None => w.value_null(),
        }
        w.key("measured_value");
        match row.measured_value {
            Some(v) => w.value_f64(v),
            None => w.value_null(),
        }
        w.key("ratio");
        match ratio(row) {
            Some(v) => w.value_f64(v),
            None => w.value_null(),
        }
        w.field_f64("wall_clock_secs", row.wall_clock_secs);
        w.key("counters");
        w.begin_object();
        for &(name, value) in &row.counters {
            w.field_u64(name, value);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Measured ÷ bound, when both sides are numeric and the bound is nonzero.
pub fn ratio(row: &RowMeasurement) -> Option<f64> {
    match (row.measured_value, row.bound_value) {
        (Some(m), Some(b)) if b != 0.0 => Some(m / b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use session_obs::json;

    #[test]
    fn json_flag_variants() {
        assert_eq!(json_flag(Vec::<String>::new(), "d.json"), None);
        assert_eq!(
            json_flag(["--json"], "d.json"),
            Some(PathBuf::from("d.json"))
        );
        assert_eq!(
            json_flag(["--json", "out.json"], "d.json"),
            Some(PathBuf::from("out.json"))
        );
        assert_eq!(
            json_flag(["other", "--json"], "d.json"),
            Some(PathBuf::from("d.json"))
        );
    }

    #[test]
    fn sections_report_round_trips_headers() {
        let mut report = JsonReport::new("FIG-T");
        report.section(
            "n = 8",
            &["x", "y"],
            &[Row::new(["1", "2"]), Row::new(["3", "4"])],
        );
        let out = report.to_json();
        json::validate(&out).expect("valid JSON");
        assert!(out.contains("\"schema\":\"session-bench/sections/v1\""));
        assert!(out.contains("\"x\":\"1\""), "{out}");
        assert!(out.contains("\"y\":\"4\""), "{out}");
    }

    #[test]
    fn table1_json_matches_the_markdown_rows() {
        // One cheap real row rather than the full table: the full-table
        // consistency test already lives in `measure`.
        let rows = vec![crate::measure::sync_sm(2, 4, session_types::Dur::from_int(3)).unwrap()];
        let out = table1_json(&rows);
        json::validate(&out).expect("valid JSON");
        assert!(out.contains("\"schema\":\"session-bench/table1/v1\""));
        // s·c2 = 6, measured exactly at the bound: ratio 1.
        assert!(out.contains("\"bound_value\":6"), "{out}");
        assert!(out.contains("\"measured_value\":6"), "{out}");
        assert!(out.contains("\"ratio\":1"), "{out}");
        assert!(out.contains("\"sm.steps\""), "{out}");
        let md = crate::measure::table1_markdown_of(&rows);
        assert!(md.contains("s·c2 = 6"), "{md}");
        assert!(md.contains("6 (2 sessions)"), "{md}");
    }
}
