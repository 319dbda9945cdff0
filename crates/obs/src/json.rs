//! Dependency-free JSON value type with a pretty serializer and a small
//! recursive-descent parser.
//!
//! The build environment has no registry access, so `serde_json` is not
//! available; telemetry reports instead build [`Json`] trees by hand.
//! Integers are kept exact (`Json::Int` holds a `u64`) so that metric
//! values survive a serialize/parse round trip bit-for-bit — important
//! for the report round-trip tests and for downstream tooling diffing
//! telemetry files.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Resource limits for [`Json::parse_with_limits`].
///
/// The parser is recursive-descent, so adversarial input — a megabyte of
/// `[[[[…` from an untrusted socket — could otherwise exhaust the stack
/// or force a huge allocation. Both limits report a typed [`JsonError`]
/// instead of crashing. [`Json::parse`] uses [`ParseLimits::default`],
/// which is generous enough for every artifact this workspace writes;
/// wire-facing callers (the `inl-proto` decoder) pass tighter ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum input length in bytes; longer documents fail upfront with
    /// [`JsonError::TooLong`] before any parsing work.
    pub max_len: usize,
    /// Maximum container nesting depth (arrays + objects); exceeding it
    /// fails with [`JsonError::TooDeep`] instead of deep recursion.
    pub max_depth: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_len: usize::MAX,
            max_depth: 512,
        }
    }
}

/// Typed JSON parse failure; see [`Json::parse_with_limits`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// The document exceeds [`ParseLimits::max_len`] bytes.
    TooLong {
        /// Actual input length.
        len: usize,
        /// The configured limit.
        max: usize,
    },
    /// Container nesting exceeds [`ParseLimits::max_depth`].
    TooDeep {
        /// The configured limit.
        max: usize,
    },
    /// Any other syntax error, with a byte-position message.
    Syntax(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooLong { len, max } => {
                write!(f, "input of {len} bytes exceeds the {max}-byte limit")
            }
            JsonError::TooDeep { max } => {
                write!(f, "nesting exceeds the depth limit of {max}")
            }
            JsonError::Syntax(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for JsonError {}

fn syn(msg: impl Into<String>) -> JsonError {
    JsonError::Syntax(msg.into())
}

/// A JSON value. Object keys are ordered (`BTreeMap`) so serialized
/// output is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integers (all inl-obs metrics are u64 counts/nanos).
    Int(u64),
    /// Floating-point numbers (ratios, speedups).
    Float(f64),
    /// A string.
    Str(String),
    /// An array of values.
    Array(Vec<Json>),
    /// An object; `BTreeMap` keeps serialized key order deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience: an empty object.
    pub fn object() -> Json {
        Json::Object(BTreeMap::new())
    }

    /// Insert into an object; panics if `self` is not an object.
    pub fn insert(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Object(map) => {
                map.insert(key.into(), value);
            }
            _ => panic!("Json::insert on non-object"),
        }
    }

    /// A signed integer: `Int` when non-negative, else a `Float` (the
    /// integer variant holds a `u64`). [`Json::as_i64`] reads it back.
    pub fn signed(v: i64) -> Json {
        if v >= 0 {
            Json::Int(v as u64)
        } else {
            Json::Float(v as f64)
        }
    }

    /// The integer [`Json::signed`] wrote, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(n) => Some(n as i64),
            Json::Float(f) => Some(f as i64),
            _ => None,
        }
    }

    /// Look up a key in an object, `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Integer value, if this is `Json::Int`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is `Json::Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The part of this document that is a deterministic function of the
    /// source: every object field whose key ends in `_ns` (a wall-clock
    /// measurement) and every float (a ratio of measurements) is dropped,
    /// at every depth. This is the workspace's one rule for "which field
    /// may be compared exactly": the gate documents under `baselines/`
    /// are fixed points of it, so two runs of a producer on any host write
    /// the same bytes and the CI gate is plain `diff -u`;
    /// [`crate::capture::deterministic_projection`] builds on it.
    pub fn deterministic(&self) -> Json {
        let measured = |v: &Json| matches!(v, Json::Float(_));
        match self {
            Json::Object(map) => Json::Object(
                map.iter()
                    .filter(|(key, value)| !key.ends_with("_ns") && !measured(value))
                    .map(|(key, value)| (key.clone(), value.deterministic()))
                    .collect(),
            ),
            Json::Array(items) => Json::Array(
                items
                    .iter()
                    .filter(|value| !measured(value))
                    .map(Json::deterministic)
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// Write the pretty serialization to `path`, creating parent
    /// directories.
    pub fn write_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_pretty_string())
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let text = f.to_string();
                    out.push_str(&text);
                    // `{}` omits ".0" for integral floats; keep the
                    // float/int distinction visible so parse() restores
                    // the same variant.
                    if !text.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
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
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Supports the subset this crate emits
    /// (which is all of JSON except exotic number forms beyond f64).
    /// Uses [`ParseLimits::default`]; errors flatten to strings.
    pub fn parse(text: &str) -> Result<Json, String> {
        Json::parse_with_limits(text, &ParseLimits::default()).map_err(|e| e.to_string())
    }

    /// Parse a JSON document under explicit resource limits, reporting a
    /// typed [`JsonError`]. This is the entry point for *untrusted* input
    /// (the wire decoder): over-length documents and over-deep nesting
    /// fail deterministically instead of exhausting memory or stack.
    pub fn parse_with_limits(text: &str, limits: &ParseLimits) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        if bytes.len() > limits.max_len {
            return Err(JsonError::TooLong {
                len: bytes.len(),
                max: limits.max_len,
            });
        }
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0, limits)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(syn(format!("trailing data at byte {pos}")));
        }
        Ok(value)
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(syn(format!("expected '{}' at byte {}", byte as char, *pos)))
    }
}

fn parse_value(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    limits: &ParseLimits,
) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(syn("unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            if depth >= limits.max_depth {
                return Err(JsonError::TooDeep {
                    max: limits.max_depth,
                });
            }
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1, limits)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(syn(format!("expected ',' or ']' at byte {}", *pos))),
                }
            }
        }
        Some(b'{') => {
            if depth >= limits.max_depth {
                return Err(JsonError::TooDeep {
                    max: limits.max_depth,
                });
            }
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1, limits)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(map));
                    }
                    _ => return Err(syn(format!("expected ',' or '}}' at byte {}", *pos))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(syn(format!("invalid literal at byte {}", *pos)))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(syn("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| syn("truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| syn("bad \\u escape"))?,
                            16,
                        )
                        .map_err(|_| syn("bad \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(syn(format!("bad escape at byte {}", *pos))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole run up to the next quote or escape in
                // one slice: validating per-character re-scanned the entire
                // remaining input each time, which made parsing large
                // artifacts (multi-MB explain files) quadratic.
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let run =
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| syn("invalid utf-8"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| syn("invalid number"))?;
    if text.is_empty() {
        return Err(syn(format!("expected value at byte {start}")));
    }
    // JSON forbids a leading '+' even though Rust's number parsers accept it.
    if text.starts_with('+') {
        return Err(syn(format!("invalid number '{text}'")));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| syn(format!("invalid number '{text}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let mut obj = Json::object();
        obj.insert(
            "name",
            Json::Str("quote \" slash \\ newline \n ctrl \u{1}".into()),
        );
        obj.insert("count", Json::Int(u64::MAX));
        obj.insert("ratio", Json::Float(0.125));
        obj.insert("flag", Json::Bool(true));
        obj.insert("missing", Json::Null);
        obj.insert(
            "buckets",
            Json::Array(vec![
                Json::Array(vec![Json::Int(0), Json::Int(1)]),
                Json::Array(vec![Json::Int(127), Json::Int(3)]),
            ]),
        );
        let text = obj.to_pretty_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn parses_whitespace_and_empty_containers() {
        let parsed = Json::parse(" { \"a\" : [ ] , \"b\" : { } } ").unwrap();
        assert_eq!(parsed.get("a"), Some(&Json::Array(vec![])));
        assert_eq!(parsed.get("b"), Some(&Json::object()));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn length_limit_is_a_typed_error() {
        let limits = ParseLimits {
            max_len: 8,
            max_depth: 512,
        };
        let doc = r#"{"key": 123456789}"#;
        assert_eq!(
            Json::parse_with_limits(doc, &limits),
            Err(JsonError::TooLong {
                len: doc.len(),
                max: 8
            })
        );
        // At or under the limit, the same limits parse fine.
        assert_eq!(
            Json::parse_with_limits("12345678", &limits),
            Ok(Json::Int(12345678))
        );
    }

    #[test]
    fn depth_limit_is_a_typed_error_not_a_stack_overflow() {
        let limits = ParseLimits {
            max_len: usize::MAX,
            max_depth: 16,
        };
        // Exactly at the limit: 16 nested arrays parse.
        let ok = format!("{}7{}", "[".repeat(16), "]".repeat(16));
        assert!(Json::parse_with_limits(&ok, &limits).is_ok());
        // One deeper: typed error.
        let deep = format!("{}7{}", "[".repeat(17), "]".repeat(17));
        assert_eq!(
            Json::parse_with_limits(&deep, &limits),
            Err(JsonError::TooDeep { max: 16 })
        );
        // Objects count toward the same depth budget, and a *massively*
        // over-deep document (which would overflow the stack with no
        // limit) still errors cleanly.
        let mixed = format!("{}{}", r#"{"a": "#.repeat(17), "1");
        assert_eq!(
            Json::parse_with_limits(&mixed, &limits),
            Err(JsonError::TooDeep { max: 16 })
        );
        let hostile = "[".repeat(10_000_000);
        assert_eq!(
            Json::parse_with_limits(&hostile, &limits),
            Err(JsonError::TooDeep { max: 16 })
        );
    }

    /// The CI gate is `diff -u` of two producer outputs, i.e. byte
    /// equality of deterministic documents; each row edits a full
    /// document (timings included) and says whether that gate still passes.
    #[test]
    fn deterministic_documents_gate_exactly_what_the_source_determines() {
        const BASE: &str = r#"{"version": 1,
            "counters": {"exec.instances": 385, "exec.par.thread_busy_ns": 9000000},
            "programs": [{"name": "matmul", "nodes_visited": 58, "chosen": "IKJ",
                          "bitwise_identical": true, "search_ns": 1000000, "speedup": 9.0}]}"#;
        let gate = |text: &str| {
            Json::parse(text)
                .unwrap()
                .deterministic()
                .to_pretty_string()
        };
        #[rustfmt::skip]
        let rows = [
            ("changed counter", r#""exec.instances": 385"#, r#""exec.instances": 386"#, false),
            ("changed search statistic", r#""nodes_visited": 58"#, r#""nodes_visited": 57"#, false),
            ("changed chosen label", r#""chosen": "IKJ""#, r#""chosen": "IJK""#, false),
            ("bitwise flip", r#""bitwise_identical": true"#, r#""bitwise_identical": false"#, false),
            ("key only in the new file", r#""version": 1"#, r#""version": 1, "extra": 0"#, false),
            ("key only in the old file", r#""nodes_visited": 58, "#, "", false),
            ("changed *_ns field", r#""search_ns": 1000000"#, r#""search_ns": 7"#, true),
            ("changed *_ns counter", "9000000", "45000000", true),
            ("changed float", r#""speedup": 9.0"#, r#""speedup": 0.5"#, true),
        ];
        for (what, from, to, passes) in rows {
            assert!(BASE.contains(from), "{what}: edit does not apply");
            let edited = BASE.replacen(from, to, 1);
            assert_eq!(gate(BASE) == gate(&edited), passes, "{what}");
        }
        let doc = Json::parse(BASE).unwrap().deterministic();
        assert_eq!(doc.deterministic(), doc, "a gate document is a fixed point");
        let text = doc.to_pretty_string();
        assert!(!text.contains("_ns") && !text.contains("9.0"), "{text}");
    }

    #[test]
    fn json_error_display_is_descriptive() {
        let e = JsonError::TooLong { len: 10, max: 4 };
        assert!(e.to_string().contains("10 bytes"), "{e}");
        let e = JsonError::TooDeep { max: 4 };
        assert!(e.to_string().contains("depth limit of 4"), "{e}");
    }
}
