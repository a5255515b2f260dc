//! Minimal JSON value, parser, and writer: the workspace's one JSON
//! stack, with no dependency of its own.
//!
//! The provisioning service's wire protocol and journal, experiment
//! files, and every `--json` report go through it. It covers exactly
//! what they need: objects, arrays, strings, IEEE-754 numbers, booleans,
//! null, a recursion-depth guard, and deterministic output (object keys
//! keep insertion order; floats print with Rust's shortest-roundtrip
//! formatting).
//!
//! Encoding is streaming: [`write_u64`], [`write_f64`], [`write_str`]
//! and [`write_seq`] append to a caller-supplied `String`, and every
//! type that has a JSON form writes itself through them — no [`Value`]
//! tree is built to produce a line. Output is compact; [`pretty`]
//! re-indents finished text for the files people read.

#![warn(missing_docs)]

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered, duplicate keys keep the last value
    /// on lookup.
    Obj(Vec<(String, Value)>),
}

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the failure.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth beyond which parsing aborts (stack-overflow guard for
/// untrusted input).
const MAX_DEPTH: usize = 64;

/// 2⁵³. Every integer below it is exactly one `f64` and one decimal
/// text, so the writer prints such numbers digit by digit and
/// [`Value::as_u64`] accepts them; at 2⁵³ and beyond distinct integer
/// texts collapse onto one `f64` (`9007199254740993` parses to 2⁵³).
const EXACT_INT_LIMIT: u64 = 1 << 53;

/// The text `write` appends to an empty buffer: what every `to_json` is
/// to its `write_json`.
pub fn encoded(write: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    write(&mut out);
    out
}

/// Appends `n` exactly as the number `n as f64` prints — which below
/// 2⁵³ is its own decimal digits, written without a float conversion.
pub fn write_u64(out: &mut String, n: u64) {
    if n >= EXACT_INT_LIMIT {
        return write_f64(out, n as f64);
    }
    let mut digits = [0u8; 16];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

/// Appends `n` as `f64::to_string` prints it (shortest text that parses
/// back to the same bits); non-finite numbers become `null` (JSON has no
/// NaN/∞). Integers of magnitude below 2⁵³ take the digit path.
pub fn write_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0
        && n.abs() < EXACT_INT_LIMIT as f64
        && (n != 0.0 || !n.is_sign_negative())
    {
        if n < 0.0 {
            out.push('-');
        }
        write_u64(out, n.abs() as u64);
    } else {
        write!(out, "{n}").expect("writing to a String cannot fail");
    }
}

/// Appends `s` as a JSON string literal.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Everything that needs an escape is ASCII, so `clean` always
    // starts and ends on a character boundary.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        out.push_str(escape);
        if escape.len() > 2 {
            write!(out, "{b:02x}").expect("writing to a String cannot fail");
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Appends `true` or `false`.
pub fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends `[a,b,...]`, each item written by `write`.
pub fn write_seq<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// `compact` — JSON text with no whitespace between tokens, as every
/// writer here produces — re-indented two spaces per level.
pub fn pretty(compact: &str) -> String {
    fn newline(out: &mut String, depth: usize) {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    }
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let (mut in_string, mut escaped) = (false, false);
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            (in_string, escaped) = (escaped || c != '"', !escaped && c == '\\');
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                // An empty container stays on one line.
                if let Some(close) = chars.next_if(|&next| next == '}' || next == ']') {
                    out.push(close);
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out
}

impl Value {
    /// Object field lookup (last write wins on duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer (rejects fractions and
    /// anything from 2⁵³ on, where one `f64` stands for several integer
    /// texts and the value read is no longer the value sent).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_INT_LIMIT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// `as_u64` narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Serializes to compact JSON. Non-finite numbers become `null`
    /// (JSON has no NaN/∞); object key order is preserved.
    pub fn to_json(&self) -> String {
        encoded(|out| self.write(out))
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => write_bool(out, *b),
            Value::Num(n) => write_f64(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => write_seq(out, items, |out, v| v.write(out)),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), at: self.pos }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':', "expected ':'")?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| ParseError { message: format!("invalid number '{text}'"), at: start })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uDC00–\uDFFF next.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(hi).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Advance one full UTF-8 scalar. Decode only this
                    // scalar's bytes (width from the lead byte) —
                    // validating the whole remaining input per character
                    // made string parsing O(n²), which turned multi-MB
                    // response lines into minutes of CPU.
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid utf-8")),
                    };
                    let end = (self.pos + width).min(self.bytes.len());
                    let c = std::str::from_utf8(&self.bytes[self.pos..end])
                        .ok()
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape digits"))?;
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_simple_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-1.5",
            "1e3",
            "\"hi\"",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = Value::parse(text).unwrap();
            let again = Value::parse(&v.to_json()).unwrap();
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn parses_nested_request_shape() {
        let v = Value::parse(
            r#"{"type":"score","id":7,"members":[{"sim_cores":16,"analyses":[8,8]}],"max_nodes":3}"#,
        )
        .unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("score"));
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        let members = v.get("members").unwrap().as_arr().unwrap();
        assert_eq!(members[0].get("sim_cores").unwrap().as_u64(), Some(16));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Value::Str("line\nquote\"tab\tback\\slash \u{1F600}".into());
        let parsed = Value::parse(&original.to_json()).unwrap();
        assert_eq!(parsed, original);
        // Escaped input forms too.
        let v = Value::parse(r#""aA\né""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\né"));
        let v = Value::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in
            ["", "{", "[1,", "{\"a\"}", "nul", "1.2.3", "\"open", "{\"a\":1}x", "[}", "\u{7}"]
        {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_deep_nesting_without_overflowing() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Num(3.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Str("3".into()).as_u64(), None);
    }

    #[test]
    fn u64_accessor_stops_where_integer_texts_start_to_collide() {
        let parsed = |text: &str| Value::parse(text).unwrap().as_u64();
        assert_eq!(parsed("9007199254740991"), Some((1 << 53) - 1));
        // 2⁵³ is also what 2⁵³ + 1 parses to: accepting it would answer
        // a request under an id its sender never used.
        assert_eq!(Value::parse("9007199254740993").unwrap(), Value::Num(9_007_199_254_740_992.0));
        for colliding in ["9007199254740992", "9007199254740993", "18446744073709551615", "1e300"] {
            assert_eq!(parsed(colliding), None, "{colliding}");
        }
    }

    fn written(n: f64) -> String {
        encoded(|out| write_f64(out, n))
    }

    /// What the `Value` tree printed before the digit path existed.
    fn to_string_or_null(n: f64) -> String {
        if n.is_finite() {
            n.to_string()
        } else {
            "null".to_string()
        }
    }

    #[test]
    fn the_digit_path_prints_what_f64_to_string_prints_around_two_to_the_53() {
        let limit = EXACT_INT_LIMIT;
        for n in [0, 1, 9, 10, 99, 4038, limit - 1, limit, limit + 1, limit + 2, u64::MAX] {
            assert_eq!(encoded(|out| write_u64(out, n)), (n as f64).to_string(), "{n} as u64");
            for signed in [n as f64, -(n as f64)] {
                assert_eq!(written(signed), signed.to_string(), "{signed:e}");
            }
        }
        assert_eq!(written(-0.0), "-0");
        assert_eq!(written(1e21), "1000000000000000000000");
        assert_eq!(written(5e-324), 5e-324f64.to_string());
        assert_eq!(written(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn numbers_print_as_f64_to_string() {
        testkit::check(256, |g| {
            // Every bit pattern (NaNs, infinities and subnormals among
            // them), and integers of every magnitude on both paths.
            let (bits, shift) = (g.u64(), g.range(0u32..64));
            let float = f64::from_bits(bits);
            assert_eq!(written(float), to_string_or_null(float));
            let int = bits >> shift;
            assert_eq!(encoded(|out| write_u64(out, int)), (int as f64).to_string());
            assert_eq!(written(-(int as f64)), (-(int as f64)).to_string());
            assert_eq!(written(int as f64 + 0.5), (int as f64 + 0.5).to_string());
        });
    }

    #[test]
    fn every_control_character_is_escaped_and_parses_back() {
        let all: String =
            (0u8..0x20).map(char::from).chain("\"\\/é\u{7f}\u{1F600}".chars()).collect();
        let out = encoded(|out| write_str(out, &all));
        assert!(out.bytes().all(|b| b >= 0x20), "a raw control byte in {out:?}");
        assert!(out.starts_with("\"\\u0000\\u0001"), "{out}");
        assert!(out.contains("\\u0008\\t\\n\\u000b\\u000c\\r\\u000e"), "{out}");
        assert_eq!(Value::parse(&out).unwrap(), Value::Str(all));
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = Value::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn parsing_large_string_heavy_documents_is_not_quadratic() {
        // Regression: the string parser used to re-validate the entire
        // remaining input for every character it consumed, so a multi-MB
        // line (a streamed score result, say) took minutes. This 2 MB
        // document parses in well under a second when parsing is linear
        // and would hang the suite if the quadratic path came back.
        let mut doc = String::from("[");
        for i in 0..40_000 {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str("{\"key_with_some_length\":\"a value string with é and text\"}");
        }
        doc.push(']');
        assert!(doc.len() > 2_000_000);
        let v = Value::parse(&doc).expect("parse");
        let items = v.as_arr().expect("array");
        assert_eq!(items.len(), 40_000);
        assert_eq!(
            items[39_999].get("key_with_some_length").and_then(Value::as_str),
            Some("a value string with é and text")
        );
    }

    #[test]
    fn pretty_reindents_and_parses_back_to_the_same_value() {
        let compact = r#"{"a":[1,{"b":"x,y:{\"z\\"}],"empty":[],"none":{},"n":null}"#;
        let text = pretty(compact);
        assert_eq!(Value::parse(&text).unwrap(), Value::parse(compact).unwrap());
        assert_eq!(
            text,
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": \"x,y:{\\\"z\\\\\"\n    }\n  ],\n  \"empty\": [],\n  \"none\": {},\n  \"n\": null\n}"
        );
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }
}
