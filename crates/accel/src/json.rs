//! The workspace's one JSON reader and writer helpers.
//!
//! The workspace builds without registry dependencies, so the format is
//! hand-rolled: a small recursive-descent parser that tracks the line of
//! every token, keeps number tokens verbatim (so `u64` seeds and
//! `{:?}`-printed `f64`s both round-trip losslessly), and hands decoding
//! errors enough context to name the offending line. Every reader in
//! the workspace goes through it: scenario files and `simd` request
//! lines (the `scenario` crate re-exports this module), what-if
//! recordings, sweep checkpoints, and exported traces.
//!
//! Decoding goes through [`Fields`], which records which keys a caller
//! consumed; [`Fields::finish`] turns every leftover key into a typed
//! unknown-field error naming the field and its line. An unknown field
//! is a hard error, never silently ignored, and the parser rejects a
//! duplicated key outright.
//!
//! [`esc`] and [`num`] are the matching writer halves: every string the
//! workspace embeds in JSON goes through [`esc`], every `f64` through
//! [`num`], so what the writers emit this module reads back bit for bit.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value. Numbers keep their raw token so integer and
/// float interpretation is decided by the consumer, losslessly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// The raw number token (e.g. `0.001`, `5000000000.0`, `53`).
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    /// Key → (value, line of the key), in document order.
    Obj(Vec<(String, Value, usize)>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// What reading a JSON document can fail with. Every variant carries the
/// 1-based line it was found on.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Malformed JSON, or a value of the wrong type. `key` names the
    /// innermost object key whose value failed to parse, if any.
    Syntax {
        line: usize,
        msg: String,
        key: Option<String>,
    },
    /// A required key is absent from the object opened at `line`.
    MissingField { field: String, line: usize },
    /// A key no decoder consumed.
    UnknownField { field: String, line: usize },
}

impl Error {
    /// The 1-based line the error was found on.
    pub fn line(&self) -> usize {
        match self {
            Error::Syntax { line, .. }
            | Error::MissingField { line, .. }
            | Error::UnknownField { line, .. } => *line,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { msg, key: None, .. } => write!(f, "{msg}"),
            Error::Syntax {
                msg, key: Some(k), ..
            } => write!(f, "{msg} in the value of field '{k}'"),
            Error::MissingField { field, .. } => write!(f, "missing required field '{field}'"),
            Error::UnknownField { field, .. } => write!(f, "unknown field '{field}'"),
        }
    }
}

impl std::error::Error for Error {}

fn err(line: usize, msg: impl Into<String>) -> Error {
    Error::Syntax {
        line,
        msg: msg.into(),
        key: None,
    }
}

/// Deepest array/object nesting the parser follows; deeper input is a
/// typed error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| err(self.line, "unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.peek()?;
        if got != b {
            return Err(err(
                self.line,
                format!("expected '{}', found '{}'", b as char, got as char),
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'{' | b'[' if self.depth == MAX_DEPTH => Err(err(
                self.line,
                format!("nesting deeper than {MAX_DEPTH} levels"),
            )),
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(err(
                self.line,
                format!("unexpected character '{}'", other as char),
            )),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(err(self.line, format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Validate now so consumers can parse the token infallibly later.
        raw.parse::<f64>()
            .map_err(|_| err(self.line, format!("malformed number '{raw}'")))?;
        Ok(Value::Num(raw.to_string()))
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .and_then(|d| u32::from_str_radix(std::str::from_utf8(d).ok()?, 16).ok())
            .ok_or_else(|| err(self.line, "invalid '\\u' escape (expected four hex digits)"))?;
        self.pos += 4;
        Ok(digits)
    }

    /// The character of a `\u` escape whose `\u` is already consumed,
    /// joining a UTF-16 surrogate pair into one character.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        if !(0xD800..0xDC00).contains(&hi) || !self.bytes[self.pos..].starts_with(b"\\u") {
            // Only a lone surrogate is not a char.
            return char::from_u32(hi)
                .ok_or_else(|| err(self.line, format!("lone surrogate '\\u{hi:04x}'")));
        }
        self.pos += 2;
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(err(
                self.line,
                format!("invalid surrogate pair '\\u{hi:04x}\\u{lo:04x}'"),
            ));
        }
        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        Ok(char::from_u32(code).expect("a surrogate pair encodes a char"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(err(self.line, "unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(err(self.line, "unterminated escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(err(
                                self.line,
                                format!("unsupported escape '\\{}'", other as char),
                            ))
                        }
                    }
                }
                b'\n' => return Err(err(self.line, "unterminated string")),
                _ => {
                    // Copy the run of plain bytes up to the next quote,
                    // escape or newline whole: the input is a `&str`, and
                    // those three are ASCII, so the run is valid UTF-8.
                    let start = self.pos - 1;
                    while let Some(&c) = self.bytes.get(self.pos) {
                        if matches!(c, b'"' | b'\\' | b'\n') {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("str input"),
                    );
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(err(
                        self.line,
                        format!("expected ',' or ']', found '{}'", other as char),
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key_line = self.line;
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value().map_err(|mut e| {
                if let Error::Syntax { key: k @ None, .. } = &mut e {
                    *k = Some(key.clone());
                }
                e
            })?;
            if fields.iter().any(|(k, _, _)| *k == key) {
                return Err(err(key_line, format!("duplicate field '{key}'")));
            }
            fields.push((key, value, key_line));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => {
                    return Err(err(
                        self.line,
                        format!("expected ',' or '}}', found '{}'", other as char),
                    ))
                }
            }
        }
    }
}

/// Parse one JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    parse_line(text, 1)
}

/// Parse one JSON document that starts on 1-based line `line` of a
/// larger file (a JSONL record), so every error names the file's line.
pub fn parse_line(text: &str, line: usize) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        line,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err(p.line, "trailing characters after document"));
    }
    Ok(v)
}

/// An object being decoded: consumed keys are removed, and
/// [`Fields::finish`] reports whatever is left as unknown fields.
pub struct Fields {
    /// The keys not consumed yet, in document order.
    entries: Vec<(String, Value, usize)>,
    /// Line of the opening object, for missing-field context.
    pub line: usize,
}

impl Fields {
    /// Wrap a value that must be an object.
    pub fn of(value: Value, what: &str, line: usize) -> Result<Self, Error> {
        match value {
            Value::Obj(entries) => Ok(Self { entries, line }),
            other => Err(err(
                line,
                format!("{what} must be an object, found {}", other.type_name()),
            )),
        }
    }

    /// Consume a key, if present. Returns the value and the line it
    /// appeared on.
    pub fn take(&mut self, key: &str) -> Option<(Value, usize)> {
        let i = self.entries.iter().position(|(k, _, _)| k == key)?;
        let (_, v, line) = self.entries.remove(i);
        Some((v, line))
    }

    /// Consume a key that must be present.
    pub fn require(&mut self, key: &str) -> Result<(Value, usize), Error> {
        self.take(key).ok_or_else(|| Error::MissingField {
            field: key.to_string(),
            line: self.line,
        })
    }

    /// Consume a required string field.
    pub fn str(&mut self, key: &str) -> Result<String, Error> {
        as_str(self.require(key)?, key)
    }

    /// Consume a required boolean field.
    pub fn bool(&mut self, key: &str) -> Result<bool, Error> {
        as_bool(self.require(key)?, key)
    }

    /// Consume a required number field as an `f64`.
    pub fn f64(&mut self, key: &str) -> Result<f64, Error> {
        as_f64(self.require(key)?, key)
    }

    /// Consume a required number field as an integer.
    pub fn int<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, Error> {
        as_int(self.require(key)?, key)
    }

    /// Error on any key no caller consumed, naming the first offender and
    /// the line it appears on.
    pub fn finish(self) -> Result<(), Error> {
        match self.entries.into_iter().next() {
            Some((field, _, line)) => Err(Error::UnknownField { field, line }),
            None => Ok(()),
        }
    }
}

fn type_err(line: usize, field: &str, want: &str, got: &Value) -> Error {
    err(
        line,
        format!("field '{field}' must be {want}, found {}", got.type_name()),
    )
}

/// Decode helpers: each names the field in its error.
pub fn as_str((v, line): (Value, usize), field: &str) -> Result<String, Error> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(type_err(line, field, "a string", &other)),
    }
}

pub fn as_bool((v, line): (Value, usize), field: &str) -> Result<bool, Error> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(type_err(line, field, "a boolean", &other)),
    }
}

pub fn as_f64((v, line): (Value, usize), field: &str) -> Result<f64, Error> {
    match v {
        Value::Num(raw) => raw
            .parse()
            .map_err(|_| err(line, format!("field '{field}' holds a malformed number"))),
        other => Err(type_err(line, field, "a number", &other)),
    }
}

/// An `f64` field that may be `null`.
pub fn as_opt_f64((v, line): (Value, usize), field: &str) -> Result<Option<f64>, Error> {
    match v {
        Value::Null => Ok(None),
        v => as_f64((v, line), field).map(Some),
    }
}

pub fn as_int<T: std::str::FromStr>((v, line): (Value, usize), field: &str) -> Result<T, Error> {
    match v {
        Value::Num(raw) => raw.parse().map_err(|_| {
            err(
                line,
                format!("field '{field}' must be a non-negative integer, got '{raw}'"),
            )
        }),
        other => Err(type_err(line, field, "a number", &other)),
    }
}

/// Escape a string for embedding in JSON output: quotes, backslashes and
/// every control character, so any string round-trips through [`parse`].
pub fn esc(s: &str) -> String {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out
}

/// `{:?}` on f64 is the shortest representation that parses back to the
/// identical bits — the property every lossless round trip relies on.
pub fn num(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents_with_line_tracking() {
        let text = "{\n  \"a\": 1,\n  \"b\": {\n    \"c\": [true, null, \"x\"]\n  }\n}";
        let v = parse(text).unwrap();
        let Value::Obj(fields) = v else {
            panic!("object")
        };
        assert_eq!(fields[0].0, "a");
        assert_eq!(fields[0].2, 2);
        assert_eq!(fields[1].2, 3);
        let Value::Obj(inner) = &fields[1].1 else {
            panic!("inner object")
        };
        assert_eq!(inner[0].2, 4);
    }

    #[test]
    fn numbers_keep_their_raw_tokens() {
        let v = parse("{\"x\": 0.30000000000000004, \"y\": 18446744073709551615}").unwrap();
        let Value::Obj(fields) = v else {
            panic!("object")
        };
        assert_eq!(fields[0].1, Value::Num("0.30000000000000004".into()));
        // u64::MAX survives verbatim (f64 would round it).
        let Value::Num(raw) = &fields[1].1 else {
            panic!("number")
        };
        assert_eq!(raw.parse::<u64>().unwrap(), u64::MAX);
    }

    #[test]
    fn malformed_documents_name_their_line() {
        for (text, line) in [
            ("{\"a\": }", 1),
            ("{\n\"a\": 1\n\"b\": 2}", 3),
            ("{\"a\": 1} x", 1),
            ("{\n  \"a\": tru\n}", 2),
            // Lone or invalid surrogates and short `\u` escapes.
            ("{\n\"s\": \"\\ud83d\"}", 2),
            ("{\n\"s\": \"\\ude00\"}", 2),
            ("{\n\"s\": \"\\ud83d\\u0041\"}", 2),
            ("{\n\"s\": \"\\u12\"}", 2),
            ("{\n\"s\": \"\\uzzzz\"}", 2),
            // Nesting deeper than the limit.
            ("[".repeat(100_000).as_str(), 1),
        ] {
            match parse(text) {
                Err(e @ Error::Syntax { .. }) => assert_eq!(e.line(), line, "{text}"),
                other => panic!("{text}: expected a syntax error, got {other:?}"),
            }
        }
        // A JSONL record reports the file's line, not the record's.
        assert_eq!(parse_line("{\"a\": }", 7).unwrap_err().line(), 7);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert!(e.to_string().contains("duplicate field 'a'"), "{e}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse("{\"s\": \"a\\\"b\\\\c\\nd\"}").unwrap();
        let Value::Obj(fields) = v else {
            panic!("object")
        };
        assert_eq!(fields[0].1, Value::Str("a\"b\\c\nd".into()));
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        // `\u` escapes, surrogate pairs included.
        let v = parse(r#""caf\u00e9 \ud83d\ude00 \b\f""#).unwrap();
        assert_eq!(v, Value::Str("café 😀 \u{8}\u{c}".into()));
        // Every control character escapes and reads back.
        let all: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\é😀".chars())
            .collect();
        assert_eq!(
            parse(&format!("\"{}\"", esc(&all))).unwrap(),
            Value::Str(all)
        );
        // Non-ASCII text is written raw, not escaped.
        assert_eq!(esc("café 😀"), "café 😀");
    }

    #[test]
    fn unknown_fields_surface_with_line_numbers() {
        let v = parse("{\n  \"known\": 1,\n  \"mystery\": 2\n}").unwrap();
        let mut f = Fields::of(v, "test", 1).unwrap();
        f.take("known").unwrap();
        // A consumed key cannot be taken twice.
        assert!(f.take("known").is_none());
        assert_eq!(
            f.finish(),
            Err(Error::UnknownField {
                field: "mystery".into(),
                line: 3
            })
        );
    }
}
