//! Offline shim for the `serde_json` crate: renders the `serde` shim's
//! [`Value`] tree as JSON text ([`to_string`] / [`to_string_pretty`])
//! and parses JSON text back ([`from_str`]) through the same value
//! model, so the workspace's JSON artifacts round-trip offline.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub use serde::Value;
use std::fmt::Write as _;

/// Serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn at(message: impl Into<String>, offset: usize) -> Self {
        Self(format!("{} at byte {offset}", message.into()))
    }
}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Self(e.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as a compact JSON string.
///
/// # Errors
/// Never fails in this shim; the `Result` mirrors serde_json's API.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serializes `value` as pretty-printed JSON with two-space indentation.
///
/// # Errors
/// Never fails in this shim; the `Result` mirrors serde_json's API.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parses JSON text into any [`serde::Deserialize`] type (including
/// [`Value`] itself).
///
/// # Errors
/// Returns an [`Error`] on malformed JSON or when the parsed value's
/// shape does not match `T`.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::at("trailing characters", parser.pos));
    }
    Ok(T::from_value(&value)?)
}

/// A recursive-descent JSON parser over the input bytes. Numbers keep
/// their source text (matching the [`Value::Number`] model), so parsing
/// and re-rendering is byte-identical for well-formed documents.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(
                format!("expected {:?}", char::from(byte)),
                self.pos,
            ))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            None => Err(Error::at("unexpected end of input", self.pos)),
            Some(b'n') if self.consume_literal("null") => Ok(Value::Null),
            Some(b't') if self.consume_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.consume_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error::at(
                format!("unexpected character {:?}", char::from(other)),
                self.pos,
            )),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy unescaped runs in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::at("invalid UTF-8", start))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.parse_escape()?);
                }
                _ => return Err(Error::at("unterminated string", self.pos)),
            }
        }
    }

    fn parse_escape(&mut self) -> Result<char, Error> {
        let escape = self
            .peek()
            .ok_or_else(|| Error::at("unterminated escape", self.pos))?;
        self.pos += 1;
        Ok(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if !(self.consume_literal("\\u")) {
                        return Err(Error::at("unpaired surrogate", self.pos));
                    }
                    let low = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(Error::at("invalid low surrogate", self.pos));
                    }
                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(code).ok_or_else(|| Error::at("invalid code point", self.pos))?
                } else {
                    char::from_u32(unit).ok_or_else(|| Error::at("invalid code point", self.pos))?
                }
            }
            other => {
                return Err(Error::at(
                    format!("invalid escape {:?}", char::from(other)),
                    self.pos - 1,
                ))
            }
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::at("truncated \\u escape", self.pos))?;
        // Exactly four hex digits; from_str_radix alone would also accept
        // a leading sign, which JSON forbids.
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(Error::at("invalid \\u escape", self.pos));
        }
        #[expect(clippy::expect_used, reason = "the bytes are checked hex digits")]
        let unit = u32::from_str_radix(std::str::from_utf8(hex).expect("hex is ASCII"), 16)
            .map_err(|_| Error::at("invalid \\u escape", self.pos))?;
        self.pos = end;
        Ok(unit)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.consume_digits();
        if int_digits == 0 {
            return Err(Error::at("expected digits", self.pos));
        }
        if int_digits > 1 && self.bytes[int_start] == b'0' {
            return Err(Error::at("leading zeros are not allowed", int_start));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.consume_digits() == 0 {
                return Err(Error::at("expected fraction digits", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.consume_digits() == 0 {
                return Err(Error::at("expected exponent digits", self.pos));
            }
        }
        #[expect(clippy::expect_used, reason = "the scanned number bytes are ASCII")]
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII")
            .to_owned();
        Ok(Value::Number(text))
    }

    fn consume_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

fn render(value: &Value, indent: Option<usize>, level: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(n),
        Value::String(s) => escape_into(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                render(item, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                escape_into(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, level: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
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

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Demo {
        name: String,
        values: Vec<(u32, f64)>,
        flag: bool,
    }

    #[derive(Serialize)]
    enum Tag {
        Unit,
        One(u32),
        Two(u32, u32),
    }

    #[derive(Serialize)]
    struct Wrap(u32);

    #[test]
    fn compact_and_pretty() {
        let d = Demo {
            name: "a\"b".into(),
            values: vec![(1, 0.5)],
            flag: true,
        };
        assert_eq!(
            to_string(&d).unwrap(),
            r#"{"name":"a\"b","values":[[1,0.5]],"flag":true}"#
        );
        let pretty = to_string_pretty(&d).unwrap();
        assert!(pretty.contains("\n  \"name\": \"a\\\"b\""), "{pretty}");
    }

    #[test]
    fn enums_and_newtypes() {
        assert_eq!(to_string(&Tag::Unit).unwrap(), r#""Unit""#);
        assert_eq!(to_string(&Tag::One(3)).unwrap(), r#"{"One":3}"#);
        assert_eq!(to_string(&Tag::Two(3, 4)).unwrap(), r#"{"Two":[3,4]}"#);
        assert_eq!(to_string(&Wrap(9)).unwrap(), "9");
    }

    #[test]
    fn empty_containers() {
        let v: Vec<u32> = vec![];
        assert_eq!(to_string_pretty(&v).unwrap(), "[]");
    }

    #[derive(Serialize, serde::Deserialize, Debug, PartialEq)]
    struct Typed {
        name: String,
        values: Vec<(u32, f64)>,
        flag: bool,
        tag: Tag2,
        wrapped: Wrap2,
        maybe: Option<u64>,
    }

    #[derive(Serialize, serde::Deserialize, Debug, PartialEq)]
    enum Tag2 {
        Unit,
        One(u32),
        Two(u32, u32),
    }

    #[derive(Serialize, serde::Deserialize, Debug, PartialEq)]
    struct Wrap2(u32);

    #[test]
    fn parse_scalars_and_containers() {
        assert_eq!(from_str::<Value>("null").unwrap(), Value::Null);
        assert!(from_str::<bool>(" true ").unwrap());
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("-1.5e3").unwrap(), -1500.0);
        assert_eq!(from_str::<String>(r#""a\nb""#).unwrap(), "a\nb");
        assert_eq!(from_str::<Vec<u32>>("[1, 2,3]").unwrap(), vec![1, 2, 3]);
        assert_eq!(
            from_str::<Value>(r#"{"a": [1], "b": {}}"#).unwrap(),
            Value::Object(vec![
                ("a".into(), Value::Array(vec![Value::Number("1".into())])),
                ("b".into(), Value::Object(vec![])),
            ])
        );
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(from_str::<String>(r#""é""#).unwrap(), "é");
        // Surrogate pair: U+1F600.
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
        assert!(from_str::<String>(r#""\ud83d""#).is_err());
    }

    #[test]
    fn malformed_json_is_rejected_with_position() {
        for bad in [
            "",
            "{",
            "[1,",
            "truex",
            "1 2",
            r#"{"a" 1}"#,
            "01x",
            "nul",
            "01",
            "-012",
            r#""\u+041""#,
            r#""\u00g1""#,
        ] {
            let err = from_str::<Value>(bad).unwrap_err();
            assert!(err.to_string().contains("at byte"), "{bad:?}: {err}");
        }
        // Bare zero and 0-prefixed fractions stay legal.
        assert_eq!(from_str::<u32>("0").unwrap(), 0);
        assert_eq!(from_str::<f64>("0.5").unwrap(), 0.5);
        assert_eq!(from_str::<f64>("-0.5").unwrap(), -0.5);
    }

    #[test]
    fn typed_round_trip_through_text() {
        let original = Typed {
            name: "demo \"quoted\"".into(),
            values: vec![(1, 0.5), (2, 2.0)],
            flag: true,
            tag: Tag2::Two(3, 4),
            wrapped: Wrap2(9),
            maybe: None,
        };
        let text = to_string_pretty(&original).unwrap();
        let back: Typed = from_str(&text).unwrap();
        assert_eq!(back, original);
        // And the enum's other shapes.
        let unit: Tag2 = from_str(&to_string(&Tag2::Unit).unwrap()).unwrap();
        assert_eq!(unit, Tag2::Unit);
        let one: Tag2 = from_str(&to_string(&Tag2::One(7)).unwrap()).unwrap();
        assert_eq!(one, Tag2::One(7));
    }

    #[test]
    fn value_round_trip_is_text_identical() {
        let text = r#"{"a":[1,2.5,null,true,"x\n"],"b":{"c":-3e2}}"#;
        let value: Value = from_str(text).unwrap();
        assert_eq!(to_string(&value).unwrap(), text);
    }

    #[test]
    fn shape_mismatch_surfaces_deserialize_error() {
        let err = from_str::<Vec<u32>>(r#"{"not": "an array"}"#).unwrap_err();
        assert!(err.to_string().contains("expected array"), "{err}");
    }
}
