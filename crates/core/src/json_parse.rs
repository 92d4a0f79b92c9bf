//! A JSON parser completing the round trip with [`crate::report::Json`].
//!
//! Reports written by the workspace (and configuration snippets fed to
//! it) can be read back without external dependencies. The parser is a
//! straightforward recursive-descent implementation over the JSON
//! grammar: objects, arrays, strings (with escapes and `\uXXXX`),
//! numbers, booleans, null.
//!
//! Arrays and objects may nest at most [`MAX_NESTING`] levels deep. The
//! recursion would otherwise let one hostile document (a few hundred KB
//! of `[`) overflow the stack and abort the process, which no caller can
//! catch; past the limit the parser returns a [`ParseError`] instead.

use crate::report::Json;

/// Deepest array/object nesting [`parse_json`] accepts. Everything the
/// workspace writes nests a handful of levels (persisted trees are flat
/// node lists), so this sits far above any document of its own.
pub const MAX_NESTING: usize = 128;

/// A parse error with byte position and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, ParseError> {
        Err(ParseError { position: self.pos, message: message.to_string() })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => self.err(&format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to pass
    /// [`MAX_NESTING`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_NESTING {
            return self.err(&format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(&format!("expected literal '{lit}'"))
        }
    }

    fn parse_number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError { position: start, message: "invalid utf8 in number".into() })?;
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => self.err(&format!("invalid number '{text}'")),
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return self.err("truncated \\u escape");
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| ParseError {
                                position: self.pos,
                                message: "invalid utf8 in \\u escape".into(),
                            })?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| ParseError {
                                position: self.pos,
                                message: format!("invalid \\u escape '{hex}'"),
                            })?;
                        self.pos += 4;
                        // Surrogate pairs (rare in our reports) fall back to
                        // the replacement character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return self.err("invalid escape"),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return self.err("invalid utf8 byte"),
                    };
                    let start = self.pos - 1;
                    if start + len > self.bytes.len() {
                        return self.err("truncated utf8 sequence");
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| ParseError {
                            position: start,
                            message: "invalid utf8 sequence".into(),
                        })?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a JSON document.
pub fn parse_json(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after document");
    }
    Ok(value)
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-12", "3.25", "1e3", "-2.5e-2"] {
            let v = parse_json(text).unwrap();
            let re = parse_json(&v.to_json()).unwrap();
            assert_eq!(v, re, "{text}");
        }
    }

    #[test]
    fn strings_with_escapes() {
        let v = parse_json(r#""line\nbreak \"quoted\" tab\t uA""#).unwrap();
        assert_eq!(v, Json::Str("line\nbreak \"quoted\" tab\t uA".into()));
        let unicode = parse_json("\"héllo ✓\"").unwrap();
        assert_eq!(unicode, Json::Str("héllo ✓".into()));
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a": [1, 2, {"b": null}], "c": {"d": true}, "e": "x"}"#;
        let v = parse_json(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
        // Round trip.
        assert_eq!(parse_json(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn reports_roundtrip() {
        use crate::explanation::FeatureAttribution;
        use crate::report::ToReport;
        let fa = FeatureAttribution::new(
            vec!["age".into(), "income".into()],
            vec![0.5, -0.25],
            0.1,
            0.35,
        );
        let text = fa.to_report().to_json();
        let parsed = parse_json(&text).unwrap();
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("feature_attribution"));
        let values = parsed.get("values").unwrap().as_arr().unwrap();
        assert_eq!(values[0].as_num(), Some(0.5));
        assert_eq!(values[1].as_num(), Some(-0.25));
    }

    #[test]
    fn errors_carry_positions() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("truex").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
        let e = parse_json("[1, 2, oops]").unwrap_err();
        assert!(e.position >= 7, "position {}", e.position);
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn nesting_is_bounded() {
        // Deep enough to overflow the stack of an unbounded parser, even
        // in a release build: the limit must refuse it with an error.
        let n = 100_000;
        let deep = format!("{}{}", "[".repeat(n), "]".repeat(n));
        let e = parse_json(&deep).unwrap_err();
        assert_eq!(e.position, MAX_NESTING);
        assert!(e.message.contains("nesting"), "{e}");
        let deep_objects = "{\"a\":".repeat(n);
        assert!(parse_json(&deep_objects).is_err());

        // Exactly at the limit still parses.
        let at_limit = format!("{}{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(parse_json(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(parse_json(&over).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse_json("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }
}
