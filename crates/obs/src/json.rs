//! A minimal JSON value model, emitter, and parser.
//!
//! The observability crate keeps the workspace rule that `nashdb-core` and
//! its neighbours take no external dependencies, so snapshot serialization
//! is hand-rolled here. The emitter is deliberately deterministic:
//!
//! - object keys are emitted in the order they were inserted (callers build
//!   objects from `BTreeMap` iteration, so the order is sorted and stable),
//! - `u64` metrics are emitted as plain integers, never floats,
//! - `f64` values use Rust's shortest round-trip formatting (`{:?}`), which
//!   always includes a `.` or an exponent and parses back to the identical
//!   bit pattern — two snapshots of the same run diff byte-for-byte clean.

use std::fmt::Write as _;

/// A parsed or to-be-emitted JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits in `u64` (the common case for
    /// counters, bucket counts, and nanosecond totals).
    UInt(u64),
    /// Any other finite number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered key/value list (emission preserves order).
    Object(Vec<(String, JsonValue)>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::UInt(v) => Some(v as f64),
            JsonValue::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => {
                // `fmt::Write` for `String` never fails.
                #[allow(clippy::let_underscore_must_use)]
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => write_f64(out, *v),
            JsonValue::Str(s) => write_json_string(out, s),
            JsonValue::Array(items) => write_seq(out, indent, "[]", items, |out, item| {
                item.write_pretty(out, indent + 1);
            }),
            JsonValue::Object(fields) => {
                write_seq(out, indent, "{}", fields, |out, (key, value)| {
                    write_json_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                });
            }
        }
    }
}

/// Writes `items` between the two `brackets`, one per line at `indent + 1`
/// (or the bare brackets when empty).
fn write_seq<T>(
    out: &mut String,
    indent: usize,
    brackets: &str,
    items: &[T],
    write_item: impl Fn(&mut String, &T),
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        push_indent(out, indent + 1);
        write_item(out, item);
    }
    if !items.is_empty() {
        out.push('\n');
        push_indent(out, indent);
    }
    out.push_str(close);
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Writes a float in shortest round-trip form, normalised so it is always a
/// valid JSON number (`NaN`/infinite inputs become `null`, which the
/// snapshot layer filters out before emission).
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` on f64 is the shortest string that parses back exactly and
        // always carries a '.' or exponent, so it cannot collide with the
        // integer formatting used for UInt. Writing to a `String` never
        // fails.
        #[allow(clippy::let_underscore_must_use)]
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` to `out` as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // `fmt::Write` for `String` never fails.
                #[allow(clippy::let_underscore_must_use)]
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Recursion guard: snapshots nest a handful of levels; anything deeper is
/// a malformed input, not a legitimate document.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') | Some(b'f') => {
                if self.eat_literal("true") {
                    Ok(JsonValue::Bool(true))
                } else if self.eat_literal("false") {
                    Ok(JsonValue::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(JsonValue::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 and we only stopped on ASCII
                // delimiters, so this slice lies on char boundaries.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.parse_hex4()?;
                            // Surrogate pairs: decode \uD8xx\uDCxx sequences.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !self.eat_literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            // nashdb-lint: allow(unchecked-arith-expr) -- exactly four hex digits: at most 0xFFFF
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Consumes a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// RFC 8259's `[-] int [frac] [exp]`: the integer part is `0` or has no
    /// leading zero, and `.` and an exponent each need a digit after them.
    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            is_float = true;
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            is_float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        // This slice is all ASCII so the conversion cannot fail.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::Float(v)),
            _ => Err(JsonError {
                offset: start,
                message: format!("invalid number '{text}'"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_then_parse_round_trips() {
        let value = JsonValue::Object(vec![
            ("name".to_owned(), JsonValue::Str("smoke".to_owned())),
            ("count".to_owned(), JsonValue::UInt(42)),
            ("big".to_owned(), JsonValue::UInt(u64::MAX)),
            ("ratio".to_owned(), JsonValue::Float(0.1 + 0.2)),
            ("tiny".to_owned(), JsonValue::Float(1e-12)),
            ("neg".to_owned(), JsonValue::Float(-3.5)),
            ("flag".to_owned(), JsonValue::Bool(true)),
            ("nothing".to_owned(), JsonValue::Null),
            (
                "items".to_owned(),
                JsonValue::Array(vec![
                    JsonValue::UInt(1),
                    JsonValue::Str("a\n\"b\"".to_owned()),
                ]),
            ),
            ("empty_obj".to_owned(), JsonValue::Object(vec![])),
            ("empty_arr".to_owned(), JsonValue::Array(vec![])),
        ]);
        let text = value.to_pretty_string();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, value);
    }

    #[test]
    fn emission_is_deterministic() {
        let value = JsonValue::Object(vec![
            ("x".to_owned(), JsonValue::Float(1.0 / 3.0)),
            ("y".to_owned(), JsonValue::UInt(7)),
        ]);
        assert_eq!(value.to_pretty_string(), value.to_pretty_string());
    }

    #[test]
    fn floats_never_collide_with_ints() {
        // A float that happens to be integral still prints with a dot, so
        // parsing recovers the same variant that was emitted.
        let mut out = String::new();
        write_f64(&mut out, 5.0);
        assert_eq!(out, "5.0");
        assert_eq!(parse("5.0").unwrap(), JsonValue::Float(5.0));
        assert_eq!(parse("5").unwrap(), JsonValue::UInt(5));
    }

    #[test]
    fn u64_max_survives_round_trip() {
        let text = JsonValue::UInt(u64::MAX).to_pretty_string();
        assert_eq!(parse(&text).unwrap(), JsonValue::UInt(u64::MAX));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let parsed = parse(r#""a\tbé😀""#).unwrap();
        assert_eq!(parsed, JsonValue::Str("a\tb\u{e9}\u{1F600}".to_owned()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "\"abc", "{\"a\":}", "01x", "1 2", "nul", "01", "00", "-01", "1.",
            "1.e5", "[01]", "-", "1e", "1e+",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_runaway_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn get_and_accessors() {
        let v = parse(r#"{"a": 1, "b": "s", "c": [2.5]}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("s"));
        let arr = v.get("c").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(2.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("a"), None);
    }
}
