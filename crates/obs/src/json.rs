//! A minimal dependency-free JSON writer.
//!
//! The workspace builds without network access, so there is no serde;
//! this writer is the single JSON emitter shared by the trace exporters,
//! the JSONL recorder and the bench telemetry (`BENCH_*.json`). Output is
//! deterministic: field order is the call order, floats use Rust's
//! shortest-roundtrip formatting, and non-finite floats serialize as
//! `null` (JSON has no NaN/Infinity).
//!
//! # Examples
//!
//! ```
//! use session_obs::json::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_object();
//! w.field_str("name", "p0");
//! w.field_u64("steps", 3);
//! w.key("delays");
//! w.begin_array();
//! w.value_f64(1.5);
//! w.value_f64(2.0);
//! w.end_array();
//! w.end_object();
//! assert_eq!(w.finish(), r#"{"name":"p0","steps":3,"delays":[1.5,2]}"#);
//! ```

/// Escapes `s` for use inside a JSON string literal (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON value (`null` when not finite).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// An incremental JSON writer over a growing string.
///
/// Commas are inserted automatically; the caller is responsible for
/// balancing `begin_*`/`end_*` and for writing exactly one top-level
/// value.
#[derive(Clone, Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Whether the next value/key at each nesting level needs a comma.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn before_value(&mut self) {
        if let Some(needs) = self.needs_comma.last_mut() {
            if *needs {
                self.buf.push(',');
            }
            *needs = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.before_value();
        self.buf.push('{');
        self.needs_comma.push(false);
    }

    /// Closes an object (`}`).
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.buf.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.before_value();
        self.buf.push('[');
        self.needs_comma.push(false);
    }

    /// Closes an array (`]`).
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.buf.push(']');
    }

    /// Writes an object key; the next write is its value.
    pub fn key(&mut self, name: &str) {
        self.before_value();
        self.buf.push('"');
        self.buf.push_str(&escape(name));
        self.buf.push_str("\":");
        // The value that follows must not be comma-separated from its key.
        if let Some(needs) = self.needs_comma.last_mut() {
            *needs = false;
        }
    }

    /// Writes a string value.
    pub fn value_str(&mut self, value: &str) {
        self.before_value();
        self.buf.push('"');
        self.buf.push_str(&escape(value));
        self.buf.push('"');
    }

    /// Writes an unsigned integer value.
    pub fn value_u64(&mut self, value: u64) {
        self.before_value();
        self.buf.push_str(&value.to_string());
    }

    /// Writes a float value (`null` when not finite).
    pub fn value_f64(&mut self, value: f64) {
        self.before_value();
        self.buf.push_str(&number(value));
    }

    /// Writes a boolean value.
    pub fn value_bool(&mut self, value: bool) {
        self.before_value();
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Writes a `null`.
    pub fn value_null(&mut self) {
        self.before_value();
        self.buf.push_str("null");
    }

    /// `key` + [`JsonWriter::value_str`].
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.key(name);
        self.value_str(value);
    }

    /// `key` + [`JsonWriter::value_u64`].
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.key(name);
        self.value_u64(value);
    }

    /// `key` + [`JsonWriter::value_f64`].
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.key(name);
        self.value_f64(value);
    }

    /// `key` + [`JsonWriter::value_bool`].
    pub fn field_bool(&mut self, name: &str, value: bool) {
        self.key(name);
        self.value_bool(value);
    }

    /// Returns the accumulated JSON text.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Checks that `input` is exactly one well-formed JSON value: [`parse`]
/// with the value dropped.
///
/// The exporter tests and the golden tests use it to assert that
/// generated output parses (the workspace has no JSON parsing
/// dependency).
///
/// # Errors
///
/// Returns a description with a byte offset for the first syntax error.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(drop)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", want as char, *pos))
    }
}

fn skim_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {}", *pos))
    }
}

/// Skips one number: RFC 8259's `-? int frac? exp?`, where `int` is `0`
/// or a digit string without a leading zero.
fn skim_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |bytes: &[u8], pos: &mut usize| -> bool {
        let before = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > before
    };
    let int_start = *pos;
    if !digits(bytes, pos) || (bytes[int_start] == b'0' && *pos - int_start > 1) {
        return Err(format!("bad number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(bytes, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(bytes, pos) {
            return Err(format!("bad number at byte {start}"));
        }
    }
    Ok(())
}

/// A parsed JSON value tree.
///
/// The counterpart of [`JsonWriter`] for the few places that *read* JSON
/// back (the happens-before trace analyzer ingesting JSONL streams).
/// Numbers are kept as `f64` — every number this workspace writes fits
/// (sequence numbers, small indices, millisecond floats); exact rational
/// times travel as strings and are re-parsed by their own types.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (keys are not deduplicated).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object (first occurrence); `None` for other
    /// value kinds.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if this is a
    /// non-negative whole number.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x <= 9e15).then_some(x as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses exactly one well-formed JSON value.
///
/// # Errors
///
/// Returns a description with a byte offset for the first syntax error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => skim_literal(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => skim_literal(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => skim_literal(bytes, pos, "null").map(|()| JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => {
            let start = *pos;
            skim_number(bytes, pos)?;
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number"); // wslint: allow(ws004): skim_number only accepts ascii digit bytes
            text.parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
        Some(&b) => Err(format!("unexpected {:?} at byte {}", b as char, *pos)),
        None => Err(format!("unexpected end of input at byte {}", *pos)),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    let mut fields = Vec::new();
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    let mut items = Vec::new();
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => match bytes.get(*pos + 1) {
                Some(b'"') => {
                    out.push('"');
                    *pos += 2;
                }
                Some(b'\\') => {
                    out.push('\\');
                    *pos += 2;
                }
                Some(b'/') => {
                    out.push('/');
                    *pos += 2;
                }
                Some(b'b') => {
                    out.push('\u{8}');
                    *pos += 2;
                }
                Some(b'f') => {
                    out.push('\u{c}');
                    *pos += 2;
                }
                Some(b'n') => {
                    out.push('\n');
                    *pos += 2;
                }
                Some(b'r') => {
                    out.push('\r');
                    *pos += 2;
                }
                Some(b't') => {
                    out.push('\t');
                    *pos += 2;
                }
                Some(b'u') => {
                    // Exactly four hex digits: `from_str_radix` alone
                    // would also take a leading `+`.
                    let hex = bytes
                        .get(*pos + 2..*pos + 6)
                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                    // Surrogate pairs are not produced by this workspace's
                    // writer; map lone surrogates to the replacement char.
                    out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {}", *pos)),
            },
            Some(0x00..=0x1f) => return Err(format!("raw control character at byte {}", *pos)),
            Some(_) => {
                // Copy the full UTF-8 scalar starting here.
                let start = *pos;
                *pos += 1;
                while bytes.get(*pos).is_some_and(|&b| b & 0xc0 == 0x80) {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                );
            }
            None => return Err("unterminated string".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\t"), "x\\ny\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("π"), "π");
    }

    #[test]
    fn numbers_are_json_safe() {
        assert_eq!(number(2.0), "2");
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn nested_structures_get_commas_right() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("a", "1");
        w.key("b");
        w.begin_array();
        w.begin_object();
        w.field_u64("x", 1);
        w.end_object();
        w.begin_object();
        w.field_bool("y", false);
        w.end_object();
        w.end_array();
        w.key("c");
        w.value_null();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":"1","b":[{"x":1},{"y":false}],"c":null}"#
        );
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("empty");
        w.begin_array();
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), r#"{"empty":[]}"#);
    }

    #[test]
    fn validate_accepts_well_formed_values() {
        for ok in [
            r#"{}"#,
            r#"[]"#,
            r#"{"a":[1,-2.5,3e4,"x\n",true,false,null],"b":{"c":"é"}}"#,
            " { \"k\" : [ 1 , 2 ] } ",
            "42",
            "0",
            "-0.5e-3",
            "[0,10,-0,100.0]",
            r#""\u0041\u00e9""#,
            r#""lone string""#,
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_malformed_values() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{'a':1}"#,
            "01x",
            "1 2",
            r#""unterminated"#,
            r#""bad \q escape""#,
            "nul",
            "{\"a\":\"\u{1}\"}",
            r#""\u+041""#,
            r#""\u12""#,
            "01",
            "-01",
            "[00]",
            "-",
            "1.",
            "1e",
        ] {
            assert!(validate(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let v = parse(r#"{"a":[1,-2.5,"x\n",true,null],"b":{"c":"é"},"n":3}"#).unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_str),
            Some("é")
        );
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[1].as_u64(), None, "negative numbers are not u64");
        assert_eq!(a[2].as_str(), Some("x\n"));
        assert_eq!(a[3].as_bool(), Some(true));
        assert_eq!(a[4], JsonValue::Null);
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for bad in ["", "{", "[1,]", r#"{"a":}"#, "1 2", r#""bad \q""#] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("s", "a\"b\\c\nd π");
        w.field_f64("x", 3.5);
        w.key("arr");
        w.begin_array();
        w.value_u64(7);
        w.value_null();
        w.end_array();
        w.end_object();
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\"b\\c\nd π"));
        assert_eq!(v.get("x").and_then(JsonValue::as_f64), Some(3.5));
        assert_eq!(
            v.get("arr").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn writer_output_always_validates() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("s", "a\"b\\c\nd");
        w.field_f64("nan", f64::NAN);
        w.key("arr");
        w.begin_array();
        w.value_u64(0);
        w.end_array();
        w.end_object();
        validate(&w.finish()).unwrap();
    }
}
