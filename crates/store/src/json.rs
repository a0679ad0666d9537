//! A small, dependency-free JSON value type with parser and writer.
//!
//! Replaces `serde_json` for the workspace's persistence and
//! machine-readable-output needs (cluster snapshots, the `figures`
//! binary's `--json` mode) so the build stays hermetic. Integers are
//! kept exact: unsigned and signed integers get their own variants
//! instead of being squeezed through `f64`, because file handles,
//! offsets and byte counts must round-trip bit-for-bit.

use std::fmt;

/// A parsed or built JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (exact).
    U64(u64),
    /// A negative integer (exact).
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Error raised by [`Json::parse`] or a [`FromJson`] decoder.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Encode a value as a [`Json`] tree.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

/// Decode a value from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Parse the value, reporting structural mismatches as errors.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array by converting each element.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Object field lookup; `Json::Null` for missing keys or non-objects
    /// so lookups chain: `doc.get("results").get("fig3")`.
    pub fn get(&self, key: &str) -> &Json {
        const NULL: Json = Json::Null;
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Array element lookup; `Json::Null` when out of range.
    pub fn at(&self, i: usize) -> &Json {
        const NULL: Json = Json::Null;
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::U64(n) => i64::try_from(*n).ok(),
            Json::I64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(n) => Some(*n),
            _ => None,
        }
    }

    /// True for `Json::Arr`.
    pub fn is_array(&self) -> bool {
        matches!(self, Json::Arr(_))
    }

    /// True for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Required-field lookup for decoders: errors on a missing key.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        match self.get(key) {
            Json::Null => Err(JsonError(format!("missing field `{key}`"))),
            v => Ok(v),
        }
    }

    /// Decode a required `u64` field.
    pub fn u64_field(&self, key: &str) -> Result<u64, JsonError> {
        self.field(key)?.as_u64().ok_or_else(|| JsonError(format!("field `{key}` is not a u64")))
    }

    /// Serialise with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::F64(n) => {
                if n.is_finite() {
                    // `{}` prints the shortest representation that
                    // round-trips; add `.0` so integers stay numbers
                    // with a fractional part (stable re-parse as F64
                    // is not required — U64 re-parse is fine).
                    out.push_str(&n.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. The whole input must be consumed (trailing
    /// whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError(format!("trailing garbage at byte {pos}")));
        }
        Ok(value)
    }
}

/// Serialises compactly (no whitespace), so `.to_string()` is the
/// compact text and [`Json::to_pretty`] the indented one.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v >= 0 {
            Json::U64(v as u64)
        } else {
            Json::I64(v)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError(format!("expected `{lit}` at byte {pos}", pos = *pos)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err(JsonError("unexpected end of input".into()));
    };
    match c {
        b'n' => expect(b, pos, "null").map(|()| Json::Null),
        b't' => expect(b, pos, "true").map(|()| Json::Bool(true)),
        b'f' => expect(b, pos, "false").map(|()| Json::Bool(false)),
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError(format!("expected `,` or `]` at byte {pos}", pos = *pos))),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(JsonError(format!("expected `,` or `}}` at byte {pos}", pos = *pos))),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        c => Err(JsonError(format!("unexpected byte {c:#x} at {pos}", pos = *pos))),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(JsonError(format!("expected string at byte {pos}", pos = *pos)));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err(JsonError("unterminated string".into()));
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return Err(JsonError("unterminated escape".into()));
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let cp = parse_hex4(b, pos)?;
                        let c = if (0xd800..0xdc00).contains(&cp) {
                            // Surrogate pair: a second \uXXXX must follow.
                            expect(b, pos, "\\u")?;
                            let lo = parse_hex4(b, pos)?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(JsonError("invalid low surrogate".into()));
                            }
                            0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00)
                        } else {
                            cp
                        };
                        out.push(
                            char::from_u32(c)
                                .ok_or_else(|| JsonError(format!("invalid codepoint {c:#x}")))?,
                        );
                    }
                    e => return Err(JsonError(format!("invalid escape `\\{}`", e as char))),
                }
            }
            _ => {
                // Collect the full UTF-8 sequence starting at c.
                let start = *pos - 1;
                let width = utf8_width(c)?;
                *pos = start + width;
                let chunk = b
                    .get(start..start + width)
                    .ok_or_else(|| JsonError("truncated UTF-8 sequence".into()))?;
                out.push_str(
                    std::str::from_utf8(chunk).map_err(|_| JsonError("invalid UTF-8".into()))?,
                );
            }
        }
    }
}

fn utf8_width(first: u8) -> Result<usize, JsonError> {
    match first {
        0x00..=0x7f => Ok(1),
        0xc0..=0xdf => Ok(2),
        0xe0..=0xef => Ok(3),
        0xf0..=0xf7 => Ok(4),
        _ => Err(JsonError("invalid UTF-8 lead byte".into())),
    }
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let chunk = b
        .get(*pos..*pos + 4)
        .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
    let s = std::str::from_utf8(chunk).map_err(|_| JsonError("bad \\u escape".into()))?;
    let v = u32::from_str_radix(s, 16).map_err(|_| JsonError("bad \\u escape".into()))?;
    *pos += 4;
    Ok(v)
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let mut is_float = false;
    if b.get(*pos) == Some(&b'.') {
        is_float = true;
        *pos += 1;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        is_float = true;
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("digits are ASCII");
    if !is_float {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::U64(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::I64(n));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| JsonError(format!("invalid number `{text}`")))
}

/// Hex-encode bytes (store snapshots encode payload data this way).
pub fn hex_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len() * 2);
    for b in data {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decode a hex string produced by [`hex_encode`].
pub fn hex_decode(s: &str) -> Result<Vec<u8>, JsonError> {
    let b = s.as_bytes();
    if !b.len().is_multiple_of(2) {
        return Err(JsonError("odd-length hex string".into()));
    }
    let nib = |c: u8| -> Result<u8, JsonError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(JsonError(format!("invalid hex digit `{}`", c as char))),
        }
    };
    (0..b.len() / 2).map(|i| Ok(nib(b[2 * i])? << 4 | nib(b[2 * i + 1])?)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Json::obj([
            ("name", Json::from("csar")),
            ("size", Json::from(u64::MAX)),
            ("neg", Json::from(-42i64)),
            ("pi", Json::from(3.25)),
            ("flag", Json::from(true)),
            ("items", Json::arr([1u64, 2, 3])),
            ("nothing", Json::Null),
        ]);
        let text = doc.to_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
        assert_eq!(back.u64_field("size").unwrap(), u64::MAX);
        assert_eq!(back.get("neg").as_i64(), Some(-42));
        assert_eq!(back.get("pi").as_f64(), Some(3.25));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let j = Json::parse(r#"{"s": "a\"b\\c\nd é 😀"}"#).unwrap();
        assert_eq!(j.get("s").as_str(), Some("a\"b\\c\nd é 😀"));
        // Control characters must re-escape.
        let back = Json::parse(&j.to_string()).unwrap();
        assert_eq!(j, back);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("'single'").is_err());
    }

    #[test]
    fn chained_lookups_return_null() {
        let j = Json::parse(r#"{"a": {"b": [10]}}"#).unwrap();
        assert_eq!(j.get("a").get("b").at(0).as_u64(), Some(10));
        assert!(j.get("x").get("y").at(9).is_null());
    }

    #[test]
    fn hex_roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("0g").is_err());
        assert!(hex_decode("abc").is_err());
    }
}
