//! Minimal JSON tree, writer, and parser for the tuning cache.
//!
//! Hand-rolled for the same reason the harness database hand-rolls its CSV:
//! the schema is flat, fully owned here, and the container builds offline —
//! a serde dependency buys nothing.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64()
            .filter(|v| *v >= 0.0 && v.fract() == 0.0)
            .map(|v| v as usize)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact serialization. Non-finite numbers render as `null` (JSON has
    /// no representation for them; the cache never stores any).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest round-tripping form.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Json::parse_bytes(text.as_bytes())
    }

    /// Parse a file's bytes as read. UTF-8 is checked where it matters,
    /// inside strings, as each is copied out; a stray byte anywhere else
    /// is not JSON in the first place.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Json, JsonError> {
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content"));
        }
        Ok(v)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied in one
            // piece. Both delimiters are ASCII, so a run never splits a
            // multi-byte sequence.
            let start = self.pos;
            let rest = &self.bytes[start..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            match std::str::from_utf8(&rest[..self.pos - start]) {
                Ok(run) => out.push_str(run),
                Err(e) => {
                    self.pos = start + e.valid_up_to();
                    return Err(self.err("invalid UTF-8"));
                }
            }
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // A backslash: the run loop stops at nothing else.
                Some(_) => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_nested() {
        let v = Json::Obj(vec![
            ("name".into(), Json::str("K-Means")),
            ("speedup".into(), Json::num(1.4375)),
            ("cache".into(), Json::Bool(true)),
            ("missing".into(), Json::Null),
            (
                "points".into(),
                Json::Arr(vec![Json::num(1.0), Json::num(2.5)]),
            ),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::str("quote \" slash \\ newline \n tab \t control \u{1}");
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn unicode_passes_through() {
        let v = Json::str("grüße 💡 λ");
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    /// Characters a string run can hold or break on: the escapes the writer
    /// emits, control characters it spells `\u00XX`, the characters an
    /// escape is made of, and UTF-8 sequences of two, three and four bytes.
    const PALETTE: &str = "\"\\/\n\t\r\u{0}\u{1}\u{1f}\u{7f}aun 0éλ€漢\u{ffff}💡\u{10ffff}";

    proptest! {
        /// Any mix of them survives render → parse, as a value and as an
        /// object key, from text and from bytes.
        #[test]
        fn strings_roundtrip(picks in prop::collection::vec(0usize..1024, 0..48)) {
            let palette: Vec<char> = PALETTE.chars().collect();
            let s: String = picks.iter().map(|&i| palette[i % palette.len()]).collect();
            let v = Json::Obj(vec![(s.clone(), Json::Arr(vec![Json::str(s), Json::str("")]))]);
            let text = v.render();
            prop_assert_eq!(&Json::parse(&text).unwrap(), &v);
            prop_assert_eq!(&Json::parse_bytes(text.as_bytes()).unwrap(), &v);
            prop_assert_eq!(Json::parse(&text).unwrap().render(), text);
        }
    }

    #[test]
    fn escapes_the_writer_never_emits_still_parse() {
        let v = Json::parse(r#""a\/b\u00e9\u20acz""#).unwrap();
        assert_eq!(v, Json::str("a/bé€z"));
    }

    #[test]
    fn broken_strings_are_errors_not_panics() {
        for (bytes, message) in [
            (&b"\"abc"[..], "unterminated string"),
            (b"\"ab\xc3\xa9", "unterminated string"),
            (b"\"abc\\", "unknown escape"),
            (b"\"abc\\\"", "unterminated string"),
            (b"\"abc\\x\"", "unknown escape"),
            (b"\"abc\\u12", "malformed \\u escape"),
            (b"\"abc\\u12\"", "malformed \\u escape"),
            (b"\"abc\\u", "malformed \\u escape"),
            (b"\"\\u00zz\"", "malformed \\u escape"),
            (b"\"ab\xff\"", "invalid UTF-8"),
            (b"\"\xe2\x82\"", "invalid UTF-8"),
            (b"\"\xe2\x82", "invalid UTF-8"),
            (b"\"ok\\n\x80\"", "invalid UTF-8"),
            (b"{\"k\xc0\":1}", "invalid UTF-8"),
            (b"\xff", "expected a JSON value"),
            (b"[1,\xe9]", "expected a JSON value"),
        ] {
            let err = Json::parse_bytes(bytes).expect_err("must not parse");
            assert_eq!(err.message, message, "{bytes:?}");
            assert!(err.offset <= bytes.len());
        }
        // The offset of an encoding error is the first byte that is wrong.
        assert_eq!(Json::parse_bytes(b"\"ab\xff\"").unwrap_err().offset, 3);
    }

    #[test]
    fn f64_roundtrips_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 6.02e23, -0.0, 57288.0] {
            let text = Json::num(x).render();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(Json::num(f64::INFINITY).render(), "null");
        assert_eq!(Json::num(f64::NAN).render(), "null");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"n\":3,\"s\":\"x\",\"b\":false}").unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("nope"), None);
        assert_eq!(Json::num(1.5).as_usize(), None);
        assert_eq!(Json::num(-1.0).as_usize(), None);
    }
}
