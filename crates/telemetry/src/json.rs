//! JSON: the exporters' literal writers and a minimal validating
//! parser.
//!
//! The writers append to a `String`: [`write_json_number`] (shortest
//! round-trip digits, `null` for non-finite values) and
//! [`write_json_string`], over the `core::fmt`-free number writers
//! [`write_f64`] and [`write_u64`], which the CSV exporters share.
//!
//! The parser exists so the test suite (and CI helpers written in Rust)
//! can check the crate's own exporters without an external JSON
//! dependency. It accepts exactly RFC 8259 JSON — no comments, no
//! trailing commas — and parses all numbers as `f64`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::str::Chars;

mod number;

pub use number::{write_f64, write_u64};

/// A JSON string literal (quotes and escapes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

/// Appends [`json_string`]'s literal to `out`.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON number literal; non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    let mut out = String::new();
    write_json_number(&mut out, v);
    out
}

/// Appends [`json_number`]'s literal to `out`.
pub fn write_json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        write_f64(out, v);
    } else {
        out.push_str("null");
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (keys sorted; duplicate keys keep the last value).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Parses one complete JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        chars: text.chars(),
        peeked: None,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    match p.next() {
        None => Ok(value),
        Some(c) => Err(format!("trailing content starting at {c:?}")),
    }
}

struct Parser<'a> {
    chars: Chars<'a>,
    peeked: Option<char>,
}

impl Parser<'_> {
    fn next(&mut self) -> Option<char> {
        self.peeked.take().or_else(|| self.chars.next())
    }

    fn peek(&mut self) -> Option<char> {
        if self.peeked.is_none() {
            self.peeked = self.chars.next();
        }
        self.peeked
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            other => Err(format!("expected {want:?}, found {other:?}")),
        }
    }

    fn literal(&mut self, rest: &str, value: Value) -> Result<Value, String> {
        for want in rest.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('n') => {
                self.next();
                self.literal("ull", Value::Null)
            }
            Some('t') => {
                self.next();
                self.literal("rue", Value::Bool(true))
            }
            Some('f') => {
                self.next();
                self.literal("alse", Value::Bool(false))
            }
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("expected a value, found {other:?}")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.next();
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.next() {
                Some(',') => continue,
                Some('}') => return Ok(Value::Obj(map)),
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.next();
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.next() {
                Some(',') => continue,
                Some(']') => return Ok(Value::Arr(items)),
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_owned()),
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{0008}'),
                    Some('f') => out.push('\u{000C}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let first = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: a \uXXXX low surrogate
                            // must follow.
                            self.expect('\\')?;
                            self.expect('u')?;
                            let second = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&second) {
                                return Err(format!("bad low surrogate {second:04x}"));
                            }
                            let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                            char::from_u32(code)
                        } else {
                            char::from_u32(first)
                        };
                        out.push(c.ok_or_else(|| format!("bad escape \\u{first:04x}"))?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return Err(format!("raw control character {c:?} in string"))
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self.next().ok_or("truncated \\u escape")?;
            code = code * 16 + c.to_digit(16).ok_or_else(|| format!("bad hex {c:?}"))?;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let mut text = String::new();
        if self.peek() == Some('-') {
            text.push(self.next().expect("peeked"));
        }
        let digits = |p: &mut Self, text: &mut String| -> Result<(), String> {
            if !p.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(format!("expected a digit, found {:?}", p.peek()));
            }
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                text.push(p.next().expect("peeked"));
            }
            Ok(())
        };
        // Integer part: a lone 0, or a nonzero digit run (no leading
        // zeros per RFC 8259).
        match self.peek() {
            Some('0') => {
                text.push(self.next().expect("peeked"));
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    return Err("leading zero in number".to_owned());
                }
            }
            _ => digits(self, &mut text)?,
        }
        if self.peek() == Some('.') {
            text.push(self.next().expect("peeked"));
            digits(self, &mut text)?;
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            text.push(self.next().expect("peeked"));
            if matches!(self.peek(), Some('+' | '-')) {
                text.push(self.next().expect("peeked"));
            }
            digits(self, &mut text)?;
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": ""}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert!(arr[1].as_object().unwrap()["b"].is_null());
        assert_eq!(obj["c"].as_str(), Some(""));
    }

    #[test]
    fn decodes_escapes_and_surrogate_pairs() {
        let v = parse(r#""a\n\t\"\\ \u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\ é 😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "\"\\x\"",
            "tru",
            "\"unterminated",
            "{\"a\":1,}",
            "1 2",
            r#""\ud800x""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_string("minimum"), "\"minimum\"");
        assert_eq!(json_string("é/😀"), "\"é/😀\"");
        assert_eq!(
            json_string("a\"b\\c\nd\u{1}e\u{1f}"),
            "\"a\\\"b\\\\c\\nd\\u0001e\\u001f\""
        );
        assert_eq!(
            parse(&json_string("x\"\\\t\u{7}")).unwrap().as_str(),
            Some("x\"\\\t\u{7}")
        );
    }

    #[test]
    fn numbers_are_null_when_not_finite() {
        for (v, text) in [(1.5, "1.5"), (-0.0, "-0"), (1e21, "1000000000000000000000")] {
            assert_eq!(json_number(v), text);
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_number(v), "null");
        }
    }

    #[test]
    fn round_trips_registry_number_formatting() {
        // The exporters print f64 via Display; the parser must read
        // every such form back exactly.
        for x in [0.0, 1.5, 1e-9, 123456.789, f64::MIN_POSITIVE] {
            let v = parse(&format!("{x}")).unwrap();
            assert_eq!(v.as_f64(), Some(x));
        }
    }
}
