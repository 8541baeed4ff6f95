//! Offline stand-in for the `serde_json` crate, paired with the in-tree
//! `serde` shim: [`to_string`] and [`to_string_pretty`] render any type
//! implementing the shim's `Serialize` trait, and [`from_str`] parses
//! JSON text into a dynamic [`Value`] tree (the shim has no derive, so
//! deserialization is by-hand from `Value`, mirroring
//! `serde_json::Value` usage).
//!
//! This is the workspace's one JSON reader. Beyond `serde_json`'s API it
//! offers what the workspace's formats need from the same tokenizer:
//! [`raw_field`] (a top-level field's verbatim text), [`string_literal`]
//! (one JSON string literal at the head of a longer text) and the
//! required-field readers on [`Value`] (`req_str`, `req_u32`, ...) with
//! their one error type, [`FieldError`].
//!
//! The tokenizer is linear in the input: a string is copied run by run
//! (each run up to the next `"` or `\` validated as UTF-8 once), never
//! re-scanned.

use serde::Serialize;

/// Serialization error. The shim's direct-to-string model cannot fail;
/// the type exists for API compatibility with `serde_json::to_string`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("json serialization error")
    }
}

impl std::error::Error for Error {}

/// Compact JSON for `value`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize_json(&mut out);
    Ok(out)
}

/// Indented JSON for `value` (two-space indent, like serde_json).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(prettify(&to_string(value)?))
}

/// Re-indents compact JSON. Operates on the token stream, so it never
/// mangles string contents (escapes are honoured).
fn prettify(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for c in compact.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                newline(&mut out, depth);
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
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value.
///
/// Numbers keep their raw source text so integer payloads (e.g. `u64`
/// bit patterns) round-trip exactly — a lossy `f64` intermediate would
/// corrupt them.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw JSON text.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, fields in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value of an object field, if this is an object and has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
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

    /// The number as `u32`, if this is an integral number in range.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The object field `name`, which must be present.
    pub fn req(&self, name: &str) -> Result<&Value, FieldError> {
        self.req_as(name, "a value", Some)
    }

    /// The string field `name`.
    pub fn req_str(&self, name: &str) -> Result<&str, FieldError> {
        self.req_as(name, "a string", Value::as_str)
    }

    /// The boolean field `name`.
    pub fn req_bool(&self, name: &str) -> Result<bool, FieldError> {
        self.req_as(name, "a boolean", Value::as_bool)
    }

    /// The array field `name`.
    pub fn req_array(&self, name: &str) -> Result<&[Value], FieldError> {
        self.req_as(name, "an array", Value::as_array)
    }

    /// The unsigned-integer field `name`.
    pub fn req_u64(&self, name: &str) -> Result<u64, FieldError> {
        self.req_as(name, "an unsigned integer", Value::as_u64)
    }

    /// The integer field `name`, range-checked to `u32` (an id that
    /// would truncate is an error, not a different id).
    pub fn req_u32(&self, name: &str) -> Result<u32, FieldError> {
        self.req_as(name, "an integer in u32 range", Value::as_u32)
    }

    /// The numeric field `name`, which must be finite.
    pub fn req_f64(&self, name: &str) -> Result<f64, FieldError> {
        self.req_as(name, "a finite number", |v| {
            v.as_f64().filter(|x| x.is_finite())
        })
    }

    /// The `f64` stored in field `name` as its `to_bits()` integer (the
    /// exact encoding the workspace's cache formats use; NaN included).
    pub fn req_f64_bits(&self, name: &str) -> Result<f64, FieldError> {
        self.req_as(name, "an f64 bit pattern", |v| {
            v.as_u64().map(f64::from_bits)
        })
    }

    fn req_as<'a, T>(
        &'a self,
        name: &str,
        expected: &'static str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, FieldError> {
        self.get(name).and_then(read).ok_or_else(|| FieldError {
            field: name.to_owned(),
            expected,
        })
    }
}

/// A required object field that is absent or not of the type asked for:
/// the one error of [`Value::req`] and its typed siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The field's name.
    pub field: String,
    /// What the field had to hold, e.g. `"a string"`.
    pub expected: &'static str,
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "missing or invalid field {:?} (expected {})",
            self.field, self.expected
        )
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.to_string()
    }
}

/// Parses one JSON document into a [`Value`].
pub fn from_str(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError::at(pos, "trailing characters"));
    }
    Ok(value)
}

/// The text of the top-level field `name` of the JSON object `text`,
/// exactly as it appears there: no re-serialization, so a value spliced
/// into a larger document comes back byte for byte. The first
/// occurrence wins. `None` if the field is absent, `text` is not an
/// object, or the object is malformed before the field's value ends.
pub fn raw_field<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    expect(bytes, &mut pos, b'{', "expected '{'").ok()?;
    loop {
        skip_ws(bytes, &mut pos);
        let key = parse_string(bytes, &mut pos).ok()?;
        skip_ws(bytes, &mut pos);
        expect(bytes, &mut pos, b':', "expected ':'").ok()?;
        skip_ws(bytes, &mut pos);
        let start = pos;
        parse_value(bytes, &mut pos, MAX_DEPTH - 1).ok()?;
        if key == name {
            return Some(&text[start..pos]);
        }
        skip_ws(bytes, &mut pos);
        expect(bytes, &mut pos, b',', "expected ','").ok()?;
    }
}

/// Decodes the JSON string literal at the head of `text` (which must
/// start with its opening quote). Returns the decoded string and the
/// byte length of the literal, quotes included, so a caller scanning a
/// longer line resumes right after it.
pub fn string_literal(text: &str) -> Result<(String, usize), ParseError> {
    let mut pos = 0usize;
    let s = parse_string(text.as_bytes(), &mut pos)?;
    Ok((s, pos))
}

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl ParseError {
    fn at(offset: usize, message: &'static str) -> ParseError {
        ParseError { offset, message }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, msg: &'static str) -> Result<(), ParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError::at(*pos, msg))
    }
}

/// Containers a document may nest. The parser recurses per level, so
/// without a cap a frame of `[`s would overflow the reading thread's
/// stack and abort the process; real documents nest a handful deep.
const MAX_DEPTH: usize = 128;

/// Parses one value; `depth` is how many more containers may open.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    if depth == 0 && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(ParseError::at(*pos, "nesting too deep"));
    }
    match bytes.get(*pos) {
        None => Err(ParseError::at(*pos, "unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, b"null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, b"false", Value::Bool(false)),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(ParseError::at(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':', "expected ':'")?;
                let value = parse_value(bytes, pos, depth - 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(ParseError::at(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &[u8],
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(ParseError::at(*pos, "invalid literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| ParseError::at(start, "utf8"))?;
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(ParseError::at(start, "invalid number"));
    }
    Ok(Value::Number(raw.to_owned()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(bytes, pos, b'"', "expected string")?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash whole. Both
        // are ASCII, so the run ends on a UTF-8 boundary, and each byte
        // is validated once: the scan stays linear in the input.
        let start = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        let run = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|e| ParseError::at(start + e.valid_up_to(), "utf8"))?;
        out.push_str(run);
        match bytes.get(*pos) {
            None => return Err(ParseError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // Exactly four hex digits: no sign, no short form.
                        let code = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|hex| {
                                hex.iter().try_fold(0u32, |code, &b| {
                                    Some(code * 16 + char::from(b).to_digit(16)?)
                                })
                            })
                            .ok_or_else(|| ParseError::at(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not produced by the paired
                        // serializer (it emits raw UTF-8); lone
                        // surrogates decode to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(ParseError::at(*pos, "bad escape")),
                }
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair;

    impl Serialize for Pair {
        fn serialize_json(&self, out: &mut String) {
            let mut w = serde::JsonWriter::object(out);
            w.field("a", &1u64);
            w.field("b", &"x{y");
            w.end();
        }
    }

    #[test]
    fn compact_round_trip() {
        assert_eq!(to_string(&Pair).unwrap(), "{\"a\":1,\"b\":\"x{y\"}");
    }

    #[test]
    fn pretty_indents_without_mangling_strings() {
        let p = to_string_pretty(&Pair).unwrap();
        assert!(p.contains("\"a\": 1"));
        assert!(p.contains("\"x{y\""), "brace inside string untouched: {p}");
        assert!(p.contains('\n'));
    }

    #[test]
    fn parses_scalars_and_containers() {
        let v = from_str(r#"{"a": [1, -2.5e3, true, null], "s": "x\n\"y\""}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[3], Value::Null);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("missing"), None);

        // The required-field readers: typed, range-checked, one error.
        let v = from_str(
            r#"{"id": 4294967295, "big": 4294967296, "neg": -1, "w": 2.5e-6,
                "inf": 1e999, "bits": 9221120237041090560, "ok": true, "s": "x", "a": [1]}"#,
        )
        .unwrap();
        assert_eq!(v.req_u32("id"), Ok(u32::MAX));
        assert_eq!(v.req_u64("big"), Ok(1 << 32));
        assert_eq!(v.req_f64("w"), Ok(2.5e-6));
        assert!(v.req_f64_bits("bits").unwrap().is_nan());
        assert_eq!(v.req_bool("ok"), Ok(true));
        assert_eq!(v.req_str("s"), Ok("x"));
        assert_eq!(v.req_array("a").map(<[Value]>::len), Ok(1));
        let err = v.req_u32("big").unwrap_err();
        assert_eq!(
            (err.field.as_str(), err.expected),
            ("big", "an integer in u32 range")
        );
        assert!(v.req_u64("neg").is_err(), "a negative id is not an id");
        assert!(v.req_f64("inf").is_err(), "1e999 parses to infinity");
        assert!(v.req("missing").is_err());
        assert!(v.req_str("id").is_err(), "wrong type");
        assert_eq!(
            String::from(v.req_bool("missing").unwrap_err()),
            "missing or invalid field \"missing\" (expected a boolean)"
        );
    }

    #[test]
    fn raw_fields_are_verbatim_slices() {
        let text = "{\"ok\":true,\"id\":7,\"signoff\":{\"categories\":[{\"x\":\"}{\"}],\"power\":1.5e-3},\"tail\":null}";
        assert_eq!(raw_field(text, "ok"), Some("true"));
        assert_eq!(raw_field(text, "id"), Some("7"));
        assert_eq!(
            raw_field(text, "signoff"),
            Some("{\"categories\":[{\"x\":\"}{\"}],\"power\":1.5e-3}"),
            "brace inside a string must not unbalance the scan"
        );
        assert_eq!(raw_field(text, "tail"), Some("null"));
        assert_eq!(raw_field(text, "missing"), None);
        assert_eq!(raw_field("[1,2]", "x"), None, "not an object");
        assert_eq!(raw_field("{\"a\":", "a"), None, "truncated");
        assert_eq!(
            raw_field(" { \"a\" : [ 1 ] , \"a\" : 2 } ", "a"),
            Some("[ 1 ]")
        );
        assert_eq!(
            raw_field("{\"k\\\"\":1}", "k\""),
            Some("1"),
            "keys are decoded"
        );
        // A literal at the head of a longer line, for line-oriented formats.
        assert_eq!(
            string_literal("\"a\\\"b\" signal"),
            Ok(("a\"b".to_owned(), 6))
        );
        assert!(string_literal("\"open").is_err());
    }

    #[test]
    fn u64_bit_patterns_round_trip_exactly() {
        // f64 cannot hold this; the raw-text Number must.
        let big = u64::MAX - 1;
        let v = from_str(&format!("{{\"bits\":{big}}}")).unwrap();
        assert_eq!(v.get("bits").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn serializer_output_parses_back() {
        let v = from_str(&to_string(&Pair).unwrap()).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x{y"));

        // An 8 MB string literal, the shape of a SPICE upload at the
        // wire's frame cap, round-trips exactly (escapes, control
        // characters and multi-byte UTF-8 included). A per-character
        // rescan of the rest of the document made this take minutes.
        let line = "MP \"out\" in\\vdd vdd PMOS W=2u \u{3bc}m\t\u{1}\n";
        let deck = line.repeat(8 * 1024 * 1024 / line.len());
        let text = to_string(&deck).unwrap();
        assert!(text.len() > 8 * 1024 * 1024);
        assert_eq!(from_str(&text).unwrap().as_str(), Some(deck.as_str()));
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = from_str(&to_string_pretty(&Pair).unwrap()).unwrap();
        assert_eq!(v.get("b").unwrap().as_str(), Some("x{y"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("nul").is_err());
        assert!(from_str("1 2").is_err());
        assert!(from_str("\"open").is_err());
        assert!(
            from_str("\"\\u+041\"").is_err(),
            "\\u takes four hex digits, no sign"
        );
        assert!(from_str("\"\\u12\"").is_err());
        assert!(from_str("\"\\q\"").is_err());
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str(&nested(MAX_DEPTH + 1)).is_err());
        assert!(
            from_str(&"[".repeat(100_000)).is_err(),
            "a deep frame is an error, not a stack overflow"
        );
    }
}
