//! Minimal JSON: a value model, a serializer whose output is
//! byte-deterministic (object fields keep insertion order), a strict
//! parser, and the [`impl_json!`](crate::impl_json) /
//! [`impl_to_json!`](crate::impl_to_json) macros that replace
//! `#[derive(Serialize, Deserialize)]` without proc-macros.
//!
//! # Example
//!
//! ```
//! use hmd_util::impl_json;
//! use hmd_util::json::{FromJson, Json, ToJson};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point {
//!     x: f64,
//!     y: f64,
//! }
//! impl_json!(struct Point { x, y });
//!
//! let p = Point { x: 1.5, y: -2.0 };
//! let text = p.to_json().to_string();
//! assert_eq!(text, r#"{"x":1.5,"y":-2.0}"#);
//! let back = Point::from_json(&Json::parse(&text).unwrap()).unwrap();
//! assert_eq!(back, p);
//! ```

use std::fmt;

/// A JSON value.
///
/// Objects are ordered `(key, value)` pairs — not a hash map — so that
/// serialization is deterministic: the same report serializes to the
/// same bytes on every run, which the reproducibility suite asserts.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer (parsed when the literal is integral and fits).
    Int(i64),
    /// An unsigned integer beyond `i64::MAX`.
    UInt(u64),
    /// A floating-point number. Non-finite values serialize as `null`
    /// (JSON has no representation for them).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse or conversion error, with a byte offset for parse errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    offset: Option<usize>,
}

impl JsonError {
    /// An error without positional information (conversion errors).
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into(), offset: None }
    }

    fn at(message: impl Into<String>, offset: usize) -> Self {
        Self { message: message.into(), offset: Some(offset) }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(off) => write!(f, "{} (at byte {off})", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input,
    /// trailing garbage, or arrays and objects nested more than
    /// [`MAX_DEPTH`] deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at("trailing characters after value", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Indexes into an array.
    #[must_use]
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The value as `f64`, accepting any numeric variant.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as `&str` for string variants.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact serialization (no whitespace).
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let mut buf = itoa_buffer();
                out.push_str(write_display(&mut buf, i));
            }
            Json::UInt(u) => {
                let mut buf = itoa_buffer();
                out.push_str(write_display(&mut buf, u));
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let mut buf = itoa_buffer();
                    let text = write_display(&mut buf, f);
                    out.push_str(text);
                    // Whole floats print like integers ("0"); keep the
                    // float-ness explicit so parsing round-trips the
                    // variant (and the byte-determinism tests stay
                    // honest about types).
                    if !text.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Pretty serialization with two-space indentation.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

// A tiny formatting shim: routes Display through one stack buffer so
// number serialization never allocates a temporary String per value.
fn itoa_buffer() -> String {
    String::with_capacity(24)
}

fn write_display<T: fmt::Display>(buf: &mut String, value: T) -> &str {
    use fmt::Write as _;
    buf.clear();
    let _ = write!(buf, "{value}");
    buf.as_str()
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// How deeply arrays and objects may nest in a parsed document. The
/// parser recurses once per level, so the cap keeps hostile input (a
/// file of `[`) from overflowing the stack; every document the
/// repository writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected '{}'", b as char), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at(format!("expected '{word}'"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::at(
                        format!("nesting deeper than {MAX_DEPTH} levels"),
                        self.pos,
                    ));
                }
                self.depth += 1;
                let nested = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => {
                Err(JsonError::at(format!("unexpected character '{}'", other as char), self.pos))
            }
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(JsonError::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::at("invalid UTF-8 in string", start))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => {
                    return Err(JsonError::at("unescaped control character in string", self.pos))
                }
                None => return Err(JsonError::at("unterminated string", self.pos)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else {
            return Err(JsonError::at("unterminated escape", self.pos));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(JsonError::at("invalid low surrogate", self.pos));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(JsonError::at("lone high surrogate", self.pos));
                    }
                } else {
                    hi
                };
                let c = char::from_u32(code)
                    .ok_or_else(|| JsonError::at("invalid unicode escape", self.pos))?;
                out.push(c);
            }
            other => {
                return Err(JsonError::at(
                    format!("invalid escape '\\{}'", other as char),
                    self.pos - 1,
                ))
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(JsonError::at("truncated \\u escape", self.pos));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(JsonError::at("invalid hex digit in \\u escape", self.pos)),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at("invalid number", start))?;
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        // a literal past f64's range would parse to ±inf, which
        // serializes as `null`: reject it so parse ∘ serialize holds
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            Ok(_) => Err(JsonError::at(format!("number out of range '{text}'"), start)),
            Err(_) => Err(JsonError::at(format!("invalid number '{text}'"), start)),
        }
    }
}

// ---------------------------------------------------------------------------
// ToJson / FromJson
// ---------------------------------------------------------------------------

/// Serialization into a [`Json`] value.
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Json;
}

/// Deserialization from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs the value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on shape or range mismatches.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_bool().ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_str().map(str::to_owned).ok_or_else(|| JsonError::new("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_f64().ok_or_else(|| JsonError::new("expected number"))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl FromJson for f32 {
    #[allow(clippy::cast_possible_truncation)]
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_f64().map(|f| f as f32).ok_or_else(|| JsonError::new("expected number"))
    }
}

macro_rules! json_signed {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(i64::from(*self))
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let i = match *value {
                    Json::Int(i) => i,
                    Json::UInt(u) => i64::try_from(u)
                        .map_err(|_| JsonError::new("integer out of range"))?,
                    _ => return Err(JsonError::new("expected integer")),
                };
                <$t>::try_from(i).map_err(|_| JsonError::new(concat!(
                    "integer out of range for ", stringify!($t))))
            }
        }
    )+};
}
json_signed!(i8, i16, i32, i64);

macro_rules! json_unsigned {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = u64::try_from(*self).expect("unsigned fits u64");
                match i64::try_from(v) {
                    Ok(i) => Json::Int(i),
                    Err(_) => Json::UInt(v),
                }
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let u = match *value {
                    Json::Int(i) => u64::try_from(i)
                        .map_err(|_| JsonError::new("negative integer for unsigned field"))?,
                    Json::UInt(u) => u,
                    _ => return Err(JsonError::new("expected integer")),
                };
                <$t>::try_from(u).map_err(|_| JsonError::new(concat!(
                    "integer out of range for ", stringify!($t))))
            }
        }
    )+};
}
json_unsigned!(u8, u16, u32, u64, usize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_arr()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        T::from_json(value).map(Box::new)
    }
}

macro_rules! json_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let items = value.as_arr().ok_or_else(|| JsonError::new("expected array"))?;
                let want = [$( $idx, )+].len();
                if items.len() != want {
                    return Err(JsonError::new(format!(
                        "expected {}-element array, got {}", want, items.len())));
                }
                Ok(($($name::from_json(&items[$idx])?,)+))
            }
        }
    )+};
}
json_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

/// Extracts and converts one named field of a JSON object — the
/// workhorse of [`impl_json!`](crate::impl_json)-generated `FromJson`
/// impls.
///
/// # Errors
///
/// Returns [`JsonError`] if `value` is not an object, the field is
/// missing, or conversion fails.
pub fn field<T: FromJson>(value: &Json, name: &str) -> Result<T, JsonError> {
    let inner = match value {
        Json::Obj(_) => value
            .get(name)
            .ok_or_else(|| JsonError::new(format!("missing field '{name}'")))?,
        _ => return Err(JsonError::new(format!("expected object with field '{name}'"))),
    };
    T::from_json(inner)
        .map_err(|e| JsonError::new(format!("field '{name}': {e}")))
}

/// Implements [`ToJson`](crate::json::ToJson) *and*
/// [`FromJson`](crate::json::FromJson) for a struct with named fields
/// or an enum of unit variants — the replacement for
/// `#[derive(Serialize, Deserialize)]`.
///
/// ```
/// use hmd_util::impl_json;
///
/// #[derive(Debug, PartialEq)]
/// struct Sample { label: String, score: f64 }
/// impl_json!(struct Sample { label, score });
///
/// #[derive(Debug, PartialEq)]
/// enum Kind { Fast, Slow }
/// impl_json!(enum Kind { Fast, Slow });
/// ```
#[macro_export]
macro_rules! impl_json {
    (struct $ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::impl_to_json!(struct $ty { $($field),+ });
        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::Json)
                -> ::std::result::Result<Self, $crate::json::JsonError>
            {
                Ok(Self { $($field: $crate::json::field(value, stringify!($field))?,)+ })
            }
        }
    };
    (enum $ty:ident { $($variant:ident),+ $(,)? }) => {
        $crate::impl_to_json!(enum $ty { $($variant),+ });
        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::Json)
                -> ::std::result::Result<Self, $crate::json::JsonError>
            {
                match value.as_str() {
                    $(Some(stringify!($variant)) => Ok(Self::$variant),)+
                    _ => Err($crate::json::JsonError::new(concat!(
                        "expected one of the ", stringify!($ty), " variant names"))),
                }
            }
        }
    };
}

/// Implements only [`ToJson`](crate::json::ToJson) — for report types
/// that are serialized but never parsed back, or whose fields (e.g.
/// `&'static str`) cannot be deserialized.
#[macro_export]
macro_rules! impl_to_json {
    (struct $ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(::std::vec![
                    $((stringify!($field).to_owned(),
                       $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
    (enum $ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $(Self::$variant => $crate::json::Json::Str(stringify!($variant).to_owned()),)+
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Inner {
        id: u64,
        weight: f64,
    }
    impl_json!(struct Inner { id, weight });

    #[derive(Debug, PartialEq)]
    struct Outer {
        name: String,
        flags: Vec<bool>,
        inner: Inner,
        trace: Vec<(bool, f64)>,
        note: Option<String>,
    }
    impl_json!(struct Outer { name, flags, inner, trace, note });

    #[derive(Debug, PartialEq)]
    enum Label {
        Benign,
        Malware,
    }
    impl_json!(enum Label { Benign, Malware });

    fn sample() -> Outer {
        Outer {
            name: "run \"7\"\n".into(),
            flags: vec![true, false],
            inner: Inner { id: u64::MAX, weight: -0.25 },
            trace: vec![(true, 1.5), (false, 0.0)],
            note: None,
        }
    }

    #[test]
    fn struct_roundtrip_is_exact() {
        let v = sample();
        let text = v.to_json().to_string();
        let back = Outer::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn serialization_is_deterministic_and_ordered() {
        let text = sample().to_json().to_string();
        assert_eq!(text, sample().to_json().to_string());
        // field order = declaration order
        let name_pos = text.find("\"name\"").unwrap();
        let inner_pos = text.find("\"inner\"").unwrap();
        assert!(name_pos < inner_pos);
    }

    #[test]
    fn escapes_serialize_and_parse() {
        let s = "line\nquote\"back\\slash\ttab\u{1}";
        let text = Json::Str(s.into()).to_string();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
        // surrogate pair: U+1F600
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn numbers_parse_into_narrowest_variant() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(Json::parse("1.5e3").unwrap(), Json::Float(1500.0));
    }

    #[test]
    fn numbers_past_f64_range_are_rejected() {
        // they would parse to ±inf and serialize back as `null`
        assert!(Json::parse("1.3e315").is_err());
        assert!(Json::parse("[-2e999]").is_err());
        assert_eq!(Json::parse("1e-400").unwrap(), Json::Float(0.0));
    }

    #[test]
    fn u64_above_i64_roundtrips() {
        let v = u64::MAX - 3;
        let text = v.to_json().to_string();
        assert_eq!(u64::from_json(&Json::parse(&text).unwrap()).unwrap(), v);
    }

    #[test]
    fn enums_serialize_as_variant_names() {
        assert_eq!(Label::Malware.to_json().to_string(), r#""Malware""#);
        assert_eq!(
            Label::from_json(&Json::parse(r#""Benign""#).unwrap()).unwrap(),
            Label::Benign
        );
        assert!(Label::from_json(&Json::parse(r#""Ghost""#).unwrap()).is_err());
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn float_display_roundtrips() {
        for f in [0.1, 1.0 / 3.0, 1e-300, -2.5e17, f64::MAX, 5e-324] {
            let text = Json::Float(f).to_string();
            let Json::Float(back) = Json::parse(&text).unwrap() else {
                // integral-looking floats (like 1e300 printed without '.')
                // come back as ints; accept via as_f64
                assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap(), f);
                continue;
            };
            assert_eq!(back, f, "{text}");
        }
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = Json::parse("[1, 2").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("01x").is_err());
        assert!(Json::parse("[] trailing").is_err());
        // nesting past MAX_DEPTH fails at the first level too deep
        // instead of overflowing the stack
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains(&format!("(at byte {MAX_DEPTH})")), "{err}");
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().at(1).unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn missing_field_names_the_field() {
        let err = Inner::from_json(&Json::parse(r#"{"id": 3}"#).unwrap()).unwrap_err();
        assert!(err.to_string().contains("weight"), "{err}");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = sample().to_json();
        let pretty = v.pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }
}
