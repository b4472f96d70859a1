//! Minimal hand-rolled JSON: a value tree, a writer, and a parser.
//!
//! The query API ([`crate::query`]) renders [`AnalysisReport`](crate::query::AnalysisReport)s
//! to JSON so sweeps can be dumped for external tooling (plots, dashboards, diffing
//! across runs). The workspace builds offline against vendored crates only, so this
//! module implements the small slice of JSON the reports need by hand instead of
//! pulling in serde:
//!
//! * **Numbers round-trip.** Finite `f64`s are written with Rust's shortest-
//!   representation formatting (`{}`), which is guaranteed to parse back to the
//!   identical bits — probabilities in a report survive a JSON round trip exactly.
//! * **Non-finite policy.** JSON has no `NaN`/`Infinity` literal; [`JsonValue::number`]
//!   maps them to `null`, and the writer refuses to invent non-standard tokens.
//! * **Parser for wire input.** [`JsonValue::parse`] is a strict recursive-descent
//!   parser (objects, arrays, strings with escapes, numbers, literals). Numbers
//!   follow the RFC 8259 grammar: no leading zeros, at least one digit after `.`
//!   and in an exponent. It reads every `repro serve` request line, so it is
//!   hardened against hostile input: a number that overflows `f64` and nesting
//!   deeper than [`MAX_NESTING_DEPTH`] are [`JsonError`]s, never an infinity or a
//!   stack overflow. It is not a streaming parser; the server bounds line length.

use std::collections::BTreeMap;
use std::fmt;

/// The deepest array/object nesting [`JsonValue::parse`] accepts. Recursion
/// depth tracks nesting, so the cap bounds the parser's stack use on any input.
pub const MAX_NESTING_DEPTH: usize = 128;

/// A JSON value. Object keys keep insertion order (reports render columns in a
/// stable order); [`JsonValue::get`] is a linear scan, fine at report sizes.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` — also the encoding of every non-finite number.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Constructors must uphold finiteness; use
    /// [`JsonValue::number`] rather than building the variant directly.
    Number(f64),
    /// A string (escaped on write, unescaped on parse).
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object as an ordered key/value list.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Wraps a number, mapping non-finite values to `null` (the serialization
    /// policy for `NaN`/`±inf` — JSON has no token for them).
    pub fn number(value: f64) -> JsonValue {
        if value.is_finite() {
            JsonValue::Number(value)
        } else {
            JsonValue::Null
        }
    }

    /// Wraps an optional number (`None` and non-finite both become `null`).
    pub fn optional(value: Option<f64>) -> JsonValue {
        value.map_or(JsonValue::Null, JsonValue::number)
    }

    /// Wraps a string.
    pub fn string(value: impl Into<String>) -> JsonValue {
        JsonValue::String(value.into())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
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

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Parses a JSON document. Strict: exactly one value, nothing but whitespace
    /// around it, no trailing commas, no comments, and at most
    /// [`MAX_NESTING_DEPTH`] levels of arrays and objects.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// The value as a single-line compact document (no whitespace) — the NDJSON
    /// writer path: a streamed record is one `to_compact_string` plus `'\n'`, so
    /// a server never buffers more than one record. Numbers keep the same
    /// shortest-round-trip formatting as the pretty writer; only whitespace
    /// differs, so `parse` reads both forms back to the identical tree.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(v) => {
                debug_assert!(v.is_finite(), "JsonValue::Number holds finite values");
                out.push_str(&format!("{v}"));
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_indented(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(v) => {
                debug_assert!(v.is_finite(), "JsonValue::Number holds finite values");
                // Rust's Display for f64 is the shortest representation that parses
                // back to the same bits — exactly the round-trip contract.
                out.push_str(&format!("{v}"));
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_indented(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_indented(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    /// Pretty-prints with two-space indentation (the style of the committed
    /// `BENCH_analysis.json`); the output is valid JSON either way.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_indented(&mut out, 0);
        f.write_str(&out)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a JSON document failed to parse: a message plus the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_NESTING_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_NESTING_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        let mut seen = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(self.error(&format!("duplicate object key \"{key}\"")));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            members.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Advance over the plain (unescaped, ASCII-or-multibyte) run in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let c = self.unicode_escape()?;
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The scalar value of a `\\u` escape whose `\\u` is already consumed. A
    /// non-BMP character arrives as an escaped UTF-16 pair, high surrogate first
    /// (`\\ud83d\\ude00` is U+1F600, as Python's `json.dumps` writes it); a lone,
    /// reversed or truncated surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.error("unpaired surrogate in \\u escape"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("unpaired surrogate in \\u escape"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        // A lone low surrogate is the one code left that is not a scalar value.
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate in \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.error("non-hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Skips a run of ASCII digits, erroring with `what` if there is none.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error(what));
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` (RFC 8259 §6); a
    /// value that overflows `f64` is an error rather than an infinity.
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits("expected a digit")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected a digit after '.'")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected a digit in the exponent")?;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok(JsonValue::Number(value)),
            _ => Err(JsonError {
                message: "number out of range for a 64-bit float".to_string(),
                offset: start,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_writer_round_trips_bit_exactly() {
        // Awkward doubles: subnormals, extremes, negative zero, long fractions.
        let values = [
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::MAX,
            -0.0,
            1.0 / 3.0,
            2.225_073_858_507_201e-308,
            9.869604401089358,
        ];
        let doc = JsonValue::Object(vec![
            (
                "values".to_string(),
                JsonValue::Array(values.iter().map(|&v| JsonValue::number(v)).collect()),
            ),
            ("label".to_string(), JsonValue::string("a \"quoted\"\nline")),
        ]);
        let compact = doc.to_compact_string();
        assert!(
            !compact.contains('\n') && !compact.contains(": "),
            "compact output must be one whitespace-free line: {compact}"
        );
        let reparsed = JsonValue::parse(&compact).expect("compact output parses");
        let bits: Vec<u64> = reparsed.get("values").unwrap().as_array().unwrap()[..]
            .iter()
            .map(|v| v.as_f64().unwrap().to_bits())
            .collect();
        let expected: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected, "every f64 must round-trip bit-exactly");
        // Compact and pretty forms parse to the identical tree.
        assert_eq!(reparsed, JsonValue::parse(&doc.to_string()).unwrap());
    }

    #[test]
    fn compact_writer_maps_non_finite_to_null() {
        let doc = JsonValue::Array(vec![
            JsonValue::number(f64::NAN),
            JsonValue::number(f64::INFINITY),
            JsonValue::number(f64::NEG_INFINITY),
            JsonValue::number(1.0),
        ]);
        assert_eq!(doc.to_compact_string(), "[null,null,null,1]");
    }

    #[test]
    fn compact_empty_containers() {
        assert_eq!(JsonValue::Array(vec![]).to_compact_string(), "[]");
        assert_eq!(JsonValue::Object(vec![]).to_compact_string(), "{}");
    }

    #[test]
    fn scalars_render_and_parse() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::Bool(true).to_string(), "true");
        assert_eq!(JsonValue::number(0.25).to_string(), "0.25");
        assert_eq!(JsonValue::string("hi").to_string(), "\"hi\"");
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-1.5e-3").unwrap().as_f64(), Some(-1.5e-3));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert!(JsonValue::number(f64::NAN).is_null());
        assert!(JsonValue::number(f64::INFINITY).is_null());
        assert!(JsonValue::number(f64::NEG_INFINITY).is_null());
        assert!(JsonValue::optional(None).is_null());
        assert_eq!(JsonValue::optional(Some(1.0)), JsonValue::Number(1.0));
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [
            0.1,
            1.0 / 3.0,
            0.05f64.powi(10),
            1e-300,
            -2.2250738585072014e-308,
            f64::MAX,
            0.30000000000000004,
            0.999,
            1.0 - 1e-12,
        ] {
            let rendered = JsonValue::number(v).to_string();
            let back = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {rendered} -> {back}");
        }
    }

    #[test]
    fn strings_round_trip_with_escapes() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnewline\n",
            "unicode é ✓",
            "back\\slash",
        ] {
            let rendered = JsonValue::string(s).to_string();
            assert_eq!(
                JsonValue::parse(&rendered).unwrap().as_str(),
                Some(s),
                "via {rendered}"
            );
        }
        assert_eq!(
            JsonValue::parse("\"\\u0041\\u00e9\"").unwrap().as_str(),
            Some("Aé")
        );
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_scalar() {
        for (escaped, decoded) in [
            ("\"\\ud83d\\ude00\"", "😀"),
            ("\"\\uD83D\\uDE00!\"", "😀!"),
            ("\"\\ud800\\udc00\"", "\u{10000}"),
            ("\"\\udbff\\udfff\"", "\u{10FFFF}"),
            ("\"a\\ud834\\udd1eb\"", "a𝄞b"),
        ] {
            assert_eq!(
                JsonValue::parse(escaped).unwrap().as_str(),
                Some(decoded),
                "{escaped}"
            );
        }
        // The writer emits non-BMP characters raw; both spellings parse alike.
        assert_eq!(
            JsonValue::parse("\"😀\"").unwrap(),
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap()
        );
    }

    #[test]
    fn lone_reversed_and_truncated_surrogates_are_rejected() {
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\n\"",
            "\"\\ude00\"",
            "\"\\ude00\\ud83d\"",
            "\"\\ud83d\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\\ude0\"",
            "\"\\ud83d\\u",
            "\"\\ud83d\\",
            "\"\\ud83d",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let doc = JsonValue::Object(vec![
            ("name".into(), JsonValue::string("sweep")),
            (
                "cells".into(),
                JsonValue::Array(vec![
                    JsonValue::Object(vec![
                        ("n".into(), JsonValue::number(5.0)),
                        ("p".into(), JsonValue::number(0.01)),
                        ("ess".into(), JsonValue::Null),
                    ]),
                    JsonValue::Object(vec![]),
                ]),
            ),
            ("empty".into(), JsonValue::Array(vec![])),
        ]);
        let rendered = doc.to_string();
        let parsed = JsonValue::parse(&rendered).unwrap();
        assert_eq!(parsed, doc);
        let first = &parsed.get("cells").unwrap().as_array().unwrap()[0];
        assert_eq!(first.get("p").and_then(JsonValue::as_f64), Some(0.01));
        assert!(first.get("ess").unwrap().is_null());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": 1,}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\": 1, \"a\": 2}",
            "[01x]",
            "\"\\q\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in [
            "01", "-01", "00", "1.", "-.02", ".5", "-", "+1", "1e", "1e+", "1E-", "1.e3", "0x10",
            "1e999", "-1e999", "1e309",
        ] {
            let err = JsonValue::parse(bad).expect_err(bad);
            assert!(err.offset <= bad.len(), "{bad}: {err}");
        }
        assert!(JsonValue::parse("1e999")
            .unwrap_err()
            .message
            .contains("out of range"));
        let too_long = format!("1{}", "0".repeat(400));
        assert!(JsonValue::parse(&too_long).is_err());
        for (good, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("-0.02", -0.02),
            ("10", 10.0),
            ("1E3", 1e3),
            ("1e+3", 1e3),
            ("2.5e-3", 2.5e-3),
            ("0e0", 0.0),
            ("1e-999", 0.0),
        ] {
            assert_eq!(
                JsonValue::parse(good).unwrap().as_f64(),
                Some(value),
                "{good}"
            );
        }
    }

    /// `depth` levels of alternating arrays and objects around a number.
    fn nested_document(depth: usize) -> String {
        let mut doc = "0".to_string();
        for level in 0..depth {
            doc = if level % 2 == 0 {
                format!("[{doc}]")
            } else {
                format!("{{\"k\":{doc}}}")
            };
        }
        doc
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let deepest = nested_document(MAX_NESTING_DEPTH);
        assert_eq!(
            JsonValue::parse(&deepest).unwrap().to_compact_string(),
            deepest
        );
        let err = JsonValue::parse(&nested_document(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // The error points at the opener one level too deep: past 64 `[` and 64 `{"k":`.
        assert_eq!(err.offset, MAX_NESTING_DEPTH * 3, "{err}");
        let brackets = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&brackets(MAX_NESTING_DEPTH)).is_ok());
        assert!(JsonValue::parse(&brackets(MAX_NESTING_DEPTH + 1)).is_err());
        // Far past the cap — deep enough to overflow any thread's stack without
        // it — is an error too, wherever the nesting stops.
        assert!(JsonValue::parse(&"[".repeat(1_000_000)).is_err());
        assert!(JsonValue::parse(&"{\"k\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn valid_compact_documents_round_trip_byte_identically() {
        for doc in [
            r#"{"id":"q1","op":"query","query":{"protocols":["raft",{"raft_flexible":{"q_per":4,"q_vc":3}}],"nodes":[4,7],"fault_probs":[0.01,0.05],"samples":20000}}"#.to_string(),
            r#"{"a":[],"b":{},"c":[null,true,false,-0,0.0015,0.30000000000000004],"d":"esc \" \\ \n \t \u0001 é"}"#.to_string(),
            nested_document(32),
        ] {
            assert_eq!(JsonValue::parse(&doc).unwrap().to_compact_string(), doc);
        }
    }

    /// Bytes that steer a random document into the parser's interesting states.
    const JSON_ALPHABET: &[u8] = b"{}[]\",:0123456789-+.eE \\/ubfnrtalsx\x01\xc3\xa9";

    /// Fragments spliced into valid documents: bad escapes, surrogates,
    /// malformed and overflowing numbers, stray structure.
    const MUTATIONS: &[&str] = &[
        "\\q",
        "\\u",
        "\\ud800",
        "\\udc00",
        "\\ud83d\\ude00",
        "\\ud800\\u0041",
        "1e999",
        "-1e999",
        "1e-999",
        "01",
        "1.",
        "-.02",
        "-",
        "\"",
        "]",
        "}",
        "[",
        "{",
        ",",
        ":",
        "\u{1}",
        "null",
        "\u{e9}",
    ];

    /// A seeded random JSON tree: every kind of value, nested a few levels, with
    /// awkward strings and arbitrary finite numbers.
    fn random_value(rng: &mut rand::rngs::StdRng, depth: usize) -> JsonValue {
        use rand::Rng;
        let kind = rng.gen_range(0..if depth == 0 { 4usize } else { 6 });
        match kind {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(rng.gen()),
            2 => JsonValue::number(f64::from_bits(rng.gen())),
            3 => {
                let len = rng.gen_range(0..6usize);
                JsonValue::String(
                    (0..len)
                        .map(|_| {
                            ['a', '"', '\\', '\n', '\u{1}', 'é', '😀', '/']
                                [rng.gen_range(0..8usize)]
                        })
                        .collect(),
                )
            }
            4 => JsonValue::Array(
                (0..rng.gen_range(0..4usize))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => JsonValue::Object(
                (0..rng.gen_range(0..4usize))
                    .map(|i| (format!("k{i}"), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Parses `doc`; whatever it accepts must re-render to a fixed point.
    fn parse_never_panics(doc: &str) {
        if let Ok(value) = JsonValue::parse(doc) {
            let compact = value.to_compact_string();
            assert_eq!(JsonValue::parse(&compact).unwrap(), value, "{doc:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
            parse_never_panics(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn json_shaped_bytes_never_panic(
            picks in proptest::collection::vec(0usize..JSON_ALPHABET.len(), 0..48),
        ) {
            let bytes: Vec<u8> = picks.iter().map(|&i| JSON_ALPHABET[i]).collect();
            parse_never_panics(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn mutated_documents_never_panic(
            seed in 0u64..u64::MAX,
            at in 0.0f64..1.0,
            pick in 0usize..MUTATIONS.len(),
            cut in 0usize..3,
        ) {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            let mut doc = random_value(&mut rng, 3).to_compact_string();
            let mut pos = (at * doc.len() as f64) as usize;
            while !doc.is_char_boundary(pos) {
                pos -= 1;
            }
            // Optionally drop a few bytes at the splice point before inserting.
            let mut end = (pos + cut).min(doc.len());
            while !doc.is_char_boundary(end) {
                end += 1;
            }
            doc.replace_range(pos..end, MUTATIONS[pick]);
            parse_never_panics(&doc);
        }

        #[test]
        fn random_compact_documents_round_trip(seed in 0u64..u64::MAX) {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            let doc = random_value(&mut rng, 4).to_compact_string();
            let parsed = JsonValue::parse(&doc);
            proptest::prop_assert!(parsed.is_ok(), "rejected {doc:?}: {parsed:?}");
            proptest::prop_assert_eq!(parsed.unwrap().to_compact_string(), doc);
        }

        #[test]
        fn nesting_parses_exactly_up_to_the_cap(depth in 0usize..400) {
            let doc = nested_document(depth);
            match JsonValue::parse(&doc) {
                Ok(value) => {
                    proptest::prop_assert!(depth <= MAX_NESTING_DEPTH);
                    proptest::prop_assert_eq!(value.to_compact_string(), doc);
                }
                Err(_) => proptest::prop_assert!(depth > MAX_NESTING_DEPTH),
            }
        }

        #[test]
        fn arbitrary_finite_numbers_round_trip(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                let rendered = JsonValue::number(v).to_string();
                let back = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
                // -0.0 and 0.0 compare equal but have distinct bits; Display writes
                // "-0" for -0.0, which parses back to -0.0, so bits are preserved.
                proptest::prop_assert_eq!(v.to_bits(), back.to_bits());
            }
        }
    }
}
