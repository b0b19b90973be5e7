//! The workspace's one JSON reader: a total, linear-time, depth-capped
//! value parser.
//!
//! Every path that turns JSON bytes back into values goes through
//! [`parse`]: the serve daemon's request frames (hostile, up to 1 MiB),
//! the event journal and the audit journal (line by line), the metrics
//! gate's baselines, and the tests that read exported schedules and
//! traces. It handles the full value grammar (objects, arrays, strings
//! with escapes, numbers, booleans, null) and returns `Err` — never
//! panics — on malformed input, with a byte offset for the error message.
//! Nesting is capped so deeply nested garbage cannot blow the stack, and
//! every byte is visited a bounded number of times, so a frame costs time
//! proportional to its length whatever it holds.
//!
//! Writing stays with the emitters (format strings sharing
//! [`crate::escape_json`] and [`crate::json_num`]).

use std::collections::BTreeMap;

/// Maximum number of nested containers (arrays, objects) accepted by
/// [`parse`].
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (`BTreeMap`); duplicate keys keep the
    /// last occurrence, like every mainstream parser.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string payload, if this is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[inline]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[inline]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The key–value map, if this is an object.
    #[inline]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on an object; `None` for absent keys and non-objects.
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// Parses one JSON document from `bytes` (UTF-8), requiring the document
/// to span the whole input (trailing whitespace allowed).
///
/// # Errors
///
/// [`JsonError`] on invalid UTF-8, malformed syntax, excessive nesting, or
/// trailing garbage. Never panics.
pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
        message: format!("invalid utf-8: {e}"),
        offset: e.valid_up_to(),
    })?;
    let mut p = Parser { text, i: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != text.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The input, validated as UTF-8 once up front.
    text: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.i,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.i).copied()
    }

    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.i..]
    }

    fn eat(&mut self, c: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.rest().starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// `depth` is the number of containers enclosing this value.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, backslash
            // or control byte as one slice. Both ends sit next to an ASCII
            // byte (or the end of input), so they are char boundaries of
            // the already-validated text.
            let start = self.i;
            while self
                .peek()
                .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
            {
                self.i += 1;
            }
            out.push_str(&self.text[start..self.i]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decodes one escape sequence; the cursor is just past the backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.i += 1;
                let cp = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by an
                // escaped low surrogate.
                let cp = if (0xd800..0xdc00).contains(&cp) {
                    if !self.rest().starts_with(b"\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.i += 2;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    cp
                };
                // hex4 already advanced past the digits.
                return char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.i += 1;
        Ok(c)
    }

    /// Exactly four hex digits (no sign, no whitespace).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .rest()
            .get(..4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &d in digits {
            let d = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            v = v * 16 + d;
        }
        self.i += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        let err = |message: &str| JsonError {
            message: message.to_string(),
            offset: start,
        };
        let v: f64 = self.text[start..self.i]
            .parse()
            .map_err(|_| err("invalid number"))?;
        if !v.is_finite() {
            return Err(err("number out of range"));
        }
        Ok(Json::Num(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(br#"{"op":"admit","n":3,"a":[1,2.5,-4e2],"o":{"x":null,"y":true}}"#)
            .expect("parses");
        assert_eq!(v.get("op").and_then(Json::as_str), Some("admit"));
        assert_eq!(v.get("n").and_then(Json::as_num), Some(3.0));
        let a = v.get("a").and_then(Json::as_arr).expect("array");
        assert_eq!(a[2], Json::Num(-400.0));
        assert_eq!(v.get("o").and_then(|o| o.get("y")), Some(&Json::Bool(true)));
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(br#""a\n\"b\"\u0041\ud83d\ude00""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\n\"b\"A😀"));
    }

    #[test]
    fn rejects_malformed_without_panicking() {
        for bad in [
            &b"{"[..],
            b"[1,",
            b"{\"a\" 1}",
            b"nul",
            b"\"unterminated",
            b"1 2",
            b"{\"a\":}",
            b"\xff\xfe",
            b"",
            b"[1e999]",
            b"\"\\u12\"",
            b"\"\\ud800x\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        // Hex digits only — `u32::from_str_radix` would take a sign, and
        // "\u+041" is not "A".
        for bad in [
            &br#""\u+041""#[..],
            br#""\u 041""#,
            br#""\u-001""#,
            br#""\u00g1""#,
            br#""\ud83d\u+e00""#,
        ] {
            let e = parse(bad).expect_err("accepted a malformed \\u escape");
            assert_eq!(e.message, "invalid \\u escape", "{bad:?}");
        }
        assert_eq!(parse(br#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
    }

    /// Nesting counts containers: 32 deep parses, 33 does not — whether or
    /// not the innermost one is empty.
    #[test]
    fn rejects_excessive_nesting() {
        let nested = |n: usize, open: &str, inner: &str, close: &str| {
            format!("{}{inner}{}", open.repeat(n), close.repeat(n))
        };
        for (open, inner, close) in [("[", "", "]"), ("[", "1", "]"), ("{\"k\":", "null", "}")] {
            assert!(parse(nested(32, open, inner, close).as_bytes()).is_ok());
            let e = parse(nested(33, open, inner, close).as_bytes()).expect_err("33 deep");
            assert_eq!(e.message, "nesting too deep");
        }
        let mut doc = vec![b'['; 1 << 16];
        doc.extend(std::iter::repeat_n(b']', 1 << 16));
        assert!(parse(&doc).is_err());
    }

    /// The string scan is linear in the input. A scan that re-validates
    /// the remaining input per character is quadratic: a frame-cap-sized
    /// string would not finish in minutes in this (debug) build, where
    /// linear is milliseconds — the bound only has to tell the two apart.
    #[test]
    fn long_and_many_strings_parse_in_linear_time() {
        let len = (1 << 20) - 64;
        let mut doc = String::with_capacity(len + 2);
        doc.push('"');
        for i in 0..len / 4 {
            doc.push_str(["abcd", "é&", "\\n!?", "wxyz"][i % 4]);
        }
        doc.push('"');
        let t0 = std::time::Instant::now();
        let v = parse(doc.as_bytes()).expect("long string parses");
        let elapsed = t0.elapsed();
        let s = v.as_str().expect("string");
        assert!(s.starts_with("abcdé&\n!?wxyz") && s.len() > len / 2);
        assert!(elapsed.as_secs_f64() < 2.0, "took {elapsed:?}");

        let many = format!("[{}\"end\"]", "\"ab\\tc\",".repeat(100_000));
        let v = parse(many.as_bytes()).expect("many strings parse");
        let items = v.as_arr().expect("array");
        assert_eq!(items.len(), 100_001);
        assert_eq!(items[99_999].as_str(), Some("ab\tc"));
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = parse(br#"{"a":1,"a":2}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_num), Some(2.0));
    }
}
