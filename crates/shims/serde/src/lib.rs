//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The build container has no reachable crates registry, so instead of the real
//! serde the workspace compiles against this small, dependency-free stand-in.
//! It keeps the *call-site* API identical — `use serde::{Serialize,
//! Deserialize}`, `#[derive(Serialize, Deserialize)]`, `T: Serialize` bounds,
//! `#[serde(default, skip_serializing_if = "Option::is_none")]` — but
//! replaces serde's visitor architecture with two direct data paths and a
//! self-describing [`Value`] tree beside them:
//!
//! * **Encode** is direct: [`Serialize::write_json`] appends a value's compact
//!   JSON to a `String`, and the derive, the primitive / container impls and
//!   `serde_json::to_string` never build a tree.
//! * **Decode** is direct too: [`Deserialize::from_json`] reads a type
//!   straight off a [`Deserializer`], the one JSON parser of the workspace.
//!   The derive, the numbers, `String`, `Vec`, `Option` and tuples match
//!   keys and delimiters in place; no `Value` is built and an object key is
//!   borrowed from the input unless it contains an escape.
//! * **The tree** is what `json!`, `to_value` and version sniffing
//!   (`value.get("version")`) work on.  [`Serialize::serialize`] builds one
//!   and [`Deserialize::deserialize`] reads a type out of one.  Parsing into
//!   a `Value` is just `Value`'s own `from_json`, so there is no second
//!   parser.  The defaults bridge the two paths: `write_json` renders
//!   `serialize`, and `from_json` parses the subtree into a `Value` and calls
//!   `deserialize`, so a hand-written impl that only defines the tree methods
//!   stays correct.  A scalar `Value` owns no heap memory, so the numeric
//!   impls read a number as one and apply their tree rule to it, and `bool`
//!   and `()` keep the default.
//!
//! Both encoders share the scalar writers below, so `x.write_json(out)` and
//! `x.serialize().write_json(out)` produce the same bytes; both decoders
//! share the scalar rules ([`Value::as_u64`] and friends), so
//! `T::from_json` and `T::deserialize` of the parsed tree accept exactly the
//! same documents and return the same values.  Swapping in the real serde
//! later only requires changing the `[workspace.dependencies]` path entries.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

pub use serde_derive::{Deserialize, Serialize};

/// Self-describing value tree produced by [`Serialize`] and consumed by
/// [`Deserialize`].  Keys keep insertion order (important for readable JSON).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (used for negative integers only).
    Int(i64),
    /// Unsigned integer (all non-negative integers serialize here).
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrows the object entries if this value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Borrows the array elements if this value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrows the string if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view as f64 (integers widen losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric view as u64.  An integral float (`3.0`, `1e3`) is accepted
    /// only when it names exactly one integer (see `exact_integer`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::Float(f) if *f >= 0.0 => exact_integer(*f).map(|i| i as u64),
            _ => None,
        }
    }

    /// Numeric view as i64.  An integral float is accepted only when it
    /// names exactly one integer (see `exact_integer`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            Value::Float(f) => exact_integer(*f),
            _ => None,
        }
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Writes compact JSON into `out`.
    ///
    /// # Errors
    ///
    /// Fails on non-finite floats, which JSON cannot represent.
    pub fn write_json(&self, out: &mut String) -> Result<(), Error> {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => write_json_bool(*b, out),
            Value::Int(i) => write_json_display(i, out),
            Value::UInt(u) => write_json_display(u, out),
            Value::Float(f) => write_json_f64(*f, out)?,
            Value::Str(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out)?;
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    val.write_json(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// The integer an integral float stands for, when it stands for exactly
/// one.  Below 2^53 in magnitude every integer is its own `f64`; from 2^53 on
/// neighbouring integers share one (`9007199254740993.0` parses to 2^53), and
/// a cast would silently saturate (`1e20 as u64` is `u64::MAX`), so those are
/// refused rather than decoded as some other number.
fn exact_integer(f: f64) -> Option<i64> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    (f.fract() == 0.0 && f.abs() < EXACT).then_some(f as i64)
}

/// Appends `s` as a JSON string literal.  Runs that need no escaping are
/// copied whole; only `"`, `\\` and control characters break a run.
fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `i` is a character boundary.
        out.push_str(&s[run_start..i]);
        run_start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

fn write_json_bool(b: bool, out: &mut String) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends an integer's decimal digits, formatted in place.
fn write_json_display(n: impl fmt::Display, out: &mut String) {
    write!(out, "{n}").expect("writing to a String cannot fail");
}

/// Appends a float.
///
/// # Errors
///
/// Fails on non-finite floats, which JSON cannot represent.
fn write_json_f64(f: f64, out: &mut String) -> Result<(), Error> {
    if !f.is_finite() {
        return Err(Error::custom("cannot serialize non-finite float to JSON"));
    }
    // `{:?}` prints the shortest representation that round-trips, and always
    // includes a decimal point or exponent.
    write!(out, "{f:?}").expect("writing to a String cannot fail");
    Ok(())
}

/// Appends `[a,b,…]`, each element through its direct writer.
fn write_json_seq<'a, T: Serialize + 'a>(
    items: impl IntoIterator<Item = &'a T>,
    out: &mut String,
) -> Result<(), Error> {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out)?;
    }
    out.push(']');
    Ok(())
}

impl fmt::Display for Value {
    /// Compact JSON; non-finite floats render as `null` because `Display`
    /// cannot report data errors.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Float(v) if !v.is_finite() => f.write_str("null"),
            _ => {
                let mut out = String::new();
                match self.write_json(&mut out) {
                    Ok(()) => f.write_str(&out),
                    // A nested non-finite float: degrade to the debug tree
                    // rather than panicking inside Display.
                    Err(_) => write!(f, "{self:?}"),
                }
            }
        }
    }
}

/// Error produced when a [`Value`] does not match the expected shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves as JSON: directly into a buffer
/// ([`Serialize::write_json`], what `serde_json::to_string` uses) or as a
/// [`Value`] tree ([`Serialize::serialize`], what `json!` / `to_value` use).
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn serialize(&self) -> Value;

    /// Appends `self` as compact JSON to `out`, byte for byte what
    /// `self.serialize().write_json(out)` appends.  The default does exactly
    /// that; the derive and the impls in this crate write without the tree.
    ///
    /// # Errors
    ///
    /// Fails on non-finite floats, which JSON cannot represent; `out` then
    /// holds a partial document.
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        self.serialize().write_json(out)
    }
}

/// Types that can be read from JSON: straight off the parser
/// ([`Deserialize::from_json`], what `serde_json::from_str` uses) or out of a
/// parsed [`Value`] tree ([`Deserialize::deserialize`]).
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`].
    fn deserialize(value: &Value) -> Result<Self, Error>;

    /// Reads `Self` from the next JSON value of `de`, accepting exactly the
    /// documents `Self::deserialize` accepts on their parsed tree and
    /// returning the same value.  The default does exactly that (see
    /// [`from_tree`]); the derive and the container impls in this crate read
    /// without the tree.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, on nesting deeper than [`MAX_DEPTH`], or when
    /// the value does not have `Self`'s shape.
    fn from_json(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        from_tree(de)
    }
}

/// Parses the next value of `de` into a [`Value`] and reads a `T` out of it:
/// the default [`Deserialize::from_json`], and what the typed impls fall back
/// to when the input has the wrong shape, so they fail with the tree's words.
///
/// # Errors
///
/// As [`Deserialize::from_json`].
pub fn from_tree<T: Deserialize>(de: &mut Deserializer<'_>) -> Result<T, Error> {
    T::deserialize(&Value::from_json(de)?)
}

/// Looks up a key in object fields; the first occurrence wins.
pub fn find_field<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Helper used by the derive macro: fetches a required object field.
pub fn get_field<'a>(fields: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    find_field(fields, name).ok_or_else(|| missing_field(name))
}

/// The error for a required field that is absent.
pub fn missing_field(name: &str) -> Error {
    Error::custom(format!("missing field `{name}`"))
}

/// Deepest array/object nesting a [`Deserializer`] accepts (the real
/// `serde_json`'s limit).  The parser is recursive descent and daemons feed
/// it untrusted lines, so unbounded nesting would be a remote stack overflow.
pub const MAX_DEPTH: usize = 128;

/// What [`Deserializer::parse_object`] runs on each entry: the parser and
/// the entry's key.
type FieldReader<'a, 'de> =
    dyn FnMut(&mut Deserializer<'de>, Cow<'de, str>) -> Result<(), Error> + 'a;

/// The JSON parser: recursive descent over a borrowed `&str`, driven by
/// [`Deserialize::from_json`].  Every delimiter JSON cares about is ASCII, so
/// scanning works on bytes while slices of the input taken between
/// delimiters are valid UTF-8 by construction — no byte is validated twice.
///
/// Each reader skips the whitespace in front of its value; containers are
/// read through callbacks ([`Deserializer::parse_object`],
/// [`Deserializer::parse_array`]) that count against [`MAX_DEPTH`].
pub struct Deserializer<'de> {
    input: &'de str,
    pos: usize,
    depth: usize,
}

impl<'de> Deserializer<'de> {
    /// A parser positioned at the start of `input`.
    pub fn new(input: &'de str) -> Self {
        Self {
            input,
            pos: 0,
            depth: 0,
        }
    }

    /// Checks that only whitespace is left.
    ///
    /// # Errors
    ///
    /// Fails when anything else follows the value.
    pub fn end(&mut self) -> Result<(), Error> {
        if self.peek().is_some() {
            return Err(Error::custom("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// The first byte of the next value, after skipping whitespace; `None` at
    /// the end of the input.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
        self.byte()
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    #[inline]
    fn bytes(&self) -> &'de [u8] {
        self.input.as_bytes()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(byte))
        }
    }

    #[cold]
    fn expected(&self, byte: u8) -> Error {
        Error::custom(format!("expected `{}` at byte {}", byte as char, self.pos))
    }

    /// Validates and discards the next value without building anything
    /// (only a string with escapes allocates, to check them).
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or nesting deeper than [`MAX_DEPTH`].
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.parse_str().map(drop),
            Some(b'[') => self.parse_array(Self::skip_value),
            Some(b'{') => self.parse_object(|de, _| de.skip_value()),
            _ => self.parse_scalar().map(drop),
        }
    }

    /// Reads a numeric type: a number goes straight through `T`'s scalar rule
    /// (its `deserialize` of the number's `Value`, which owns no heap
    /// memory); anything else is read as the tree reads it.
    fn parse_numeric<T: Deserialize>(&mut self) -> Result<T, Error> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => T::deserialize(&self.parse_number()?),
            _ => from_tree(self),
        }
    }

    /// Reads `null`, a boolean or a number.
    fn parse_scalar(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::custom(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, keyword: &str, value: Value) -> Result<Value, Error> {
        if self.bytes()[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(Error::custom(format!(
                "invalid keyword at byte {}",
                self.pos
            )))
        }
    }

    /// Reads a number: `UInt` when it fits, else `Int` when it fits, else
    /// `Float`.
    fn parse_number(&mut self) -> Result<Value, Error> {
        let bytes = self.bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let mut end = start + usize::from(negative);
        let mut is_float = false;
        while let Some(&c) = bytes.get(end) {
            match c {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            end += 1;
        }
        self.pos = end;
        let digits = &bytes[start..end];
        if !negative && !is_float && (1..=19).contains(&digits.len()) {
            // At most 19 digits cannot overflow: this is `str::parse::<u64>`
            // without a second pass.
            let u = digits
                .iter()
                .fold(0u64, |u, &d| u * 10 + u64::from(d - b'0'));
            return Ok(Value::UInt(u));
        }
        // Only ASCII was consumed, so both ends are character boundaries.
        let text = &self.input[start..end];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }

    /// Reads a string.  It is borrowed from the input unless it contains an
    /// escape, so matching an object key costs no allocation.
    ///
    /// # Errors
    ///
    /// Fails when the next value is not a well-formed string (bad escapes and
    /// lone surrogates included).
    pub fn parse_str(&mut self) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        let end = self.run_end()?;
        let run = &self.input[start..end];
        self.pos = end + 1;
        if self.bytes()[end] == b'"' {
            Ok(Cow::Borrowed(run))
        } else {
            self.parse_escaped(run).map(Cow::Owned)
        }
    }

    /// Where the run of plain string bytes from here ends: at the next `"`
    /// or `\\`.  Both are ASCII, so they never fall inside a multi-byte
    /// character and the run is a valid `str` slice.
    fn run_end(&self) -> Result<usize, Error> {
        self.bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map(|len| self.pos + len)
            .ok_or_else(|| Error::custom("unterminated string"))
    }

    /// The rest of a string whose first escape was just reached: `run` is
    /// what came before it, and the parser stands after its `\\`.
    fn parse_escaped(&mut self, run: &str) -> Result<String, Error> {
        let mut out = String::from(run);
        loop {
            let Some(esc) = self.byte() else {
                return Err(Error::custom("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => out.push(self.parse_unicode_escape()?),
                other => {
                    return Err(Error::custom(format!(
                        "invalid escape `\\{}`",
                        other as char
                    )))
                }
            }
            let start = self.pos;
            let end = self.run_end()?;
            out.push_str(&self.input[start..end]);
            self.pos = end + 1;
            if self.bytes()[end] == b'"' {
                return Ok(out);
            }
        }
    }

    /// Decodes what follows a `\u`: four hex digits, or — for characters
    /// outside the Basic Multilingual Plane — a UTF-16 surrogate pair spelled
    /// as two consecutive escapes (`\ud83d\ude00`).  A surrogate without its
    /// partner is not a character and is refused.
    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        let first = self.parse_hex4()?;
        let code = match first {
            0xD800..=0xDBFF => {
                if !self.bytes()[self.pos..].starts_with(b"\\u") {
                    return Err(Error::custom("lone surrogate in \\u escape"));
                }
                self.pos += 2;
                let second = self.parse_hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(Error::custom("lone surrogate in \\u escape"));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(Error::custom("lone surrogate in \\u escape")),
            bmp => bmp,
        };
        char::from_u32(code).ok_or_else(|| Error::custom("invalid \\u code point"))
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let Some(digits) = self.bytes().get(self.pos..self.pos + 4) else {
            return Err(Error::custom("truncated \\u escape"));
        };
        let mut code = 0;
        for &d in digits {
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| Error::custom("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Enters an array or object one nesting level down, refusing documents
    /// deeper than [`MAX_DEPTH`].
    fn enter(&mut self, open: u8) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.expect(open)?;
        self.depth += 1;
        Ok(())
    }

    /// Reads an array, calling `on_item` once per element with the parser
    /// positioned at it; `on_item` must consume exactly that element.
    ///
    /// # Errors
    ///
    /// Fails when the next value is not an array, on nesting deeper than
    /// [`MAX_DEPTH`], or with the first error `on_item` returns.
    pub fn parse_array(
        &mut self,
        mut on_item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.array(&mut on_item)
    }

    /// [`Deserializer::parse_array`] behind one dynamic call per element, so
    /// the loop is compiled once rather than once per element type.
    fn array(
        &mut self,
        on_item: &mut dyn FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.enter(b'[')?;
        if self.peek() != Some(b']') {
            loop {
                on_item(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(Error::custom("expected `,` or `]` in array")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Reads an object, calling `on_field` once per entry, in input order and
    /// duplicates included, with its key and the parser positioned at its
    /// value; `on_field` must consume exactly that value.
    ///
    /// # Errors
    ///
    /// Fails when the next value is not an object, on nesting deeper than
    /// [`MAX_DEPTH`], or with the first error `on_field` returns.
    pub fn parse_object(
        &mut self,
        mut on_field: impl FnMut(&mut Self, Cow<'de, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.object(&mut on_field)
    }

    /// [`Deserializer::parse_object`] behind one dynamic call per entry, so
    /// the loop is compiled once rather than once per object type.
    fn object(&mut self, on_field: &mut FieldReader<'_, 'de>) -> Result<(), Error> {
        self.enter(b'{')?;
        if self.peek() != Some(b'}') {
            loop {
                let key = self.parse_str()?;
                self.expect(b':')?;
                on_field(self, key)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(Error::custom("expected `,` or `}` in object")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        Value::write_json(self, out)
    }
}

/// The tree parser: the one place a document becomes a [`Value`].
impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
    fn from_json(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        match de.peek() {
            Some(b'"') => Ok(Value::Str(de.parse_str()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                de.parse_array(|de| {
                    items.push(Value::from_json(de)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                de.parse_object(|de, key| {
                    // Wire structs here mostly carry 5–8 fields; reserving 8
                    // at the first one skips the 4 → 8 regrowth `Vec` would
                    // do for them and ends at the same capacity.
                    if fields.is_empty() {
                        fields.reserve(8);
                    }
                    let value = Value::from_json(de)?;
                    fields.push((key.into_owned(), value));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            _ => de.parse_scalar(),
        }
    }
}

impl Serialize for () {
    fn serialize(&self) -> Value {
        Value::Null
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        out.push_str("null");
        Ok(())
    }
}

impl Deserialize for () {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(()),
            _ => Err(Error::custom("expected null")),
        }
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_json_bool(*self, out);
        Ok(())
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected boolean")),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::UInt(*self as u64)
            }
            fn write_json(&self, out: &mut String) -> Result<(), Error> {
                write_json_display(self, out);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let u = value.as_u64().ok_or_else(|| Error::custom("expected unsigned integer"))?;
                <$t>::try_from(u).map_err(|_| Error::custom("unsigned integer out of range"))
            }
            fn from_json(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                de.parse_numeric()
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::UInt(v as u64) } else { Value::Int(v) }
            }
            fn write_json(&self, out: &mut String) -> Result<(), Error> {
                write_json_display(self, out);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let i = value.as_i64().ok_or_else(|| Error::custom("expected integer"))?;
                <$t>::try_from(i).map_err(|_| Error::custom("integer out of range"))
            }
            fn from_json(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                de.parse_numeric()
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_json_f64(*self, out)
    }
}

impl Deserialize for f64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::custom("expected number"))
    }
    fn from_json(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.parse_numeric()
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Float(f64::from(*self))
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_json_f64(f64::from(*self), out)
    }
}

impl Deserialize for f32 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value
            .as_f64()
            .ok_or_else(|| Error::custom("expected number"))? as f32)
    }
    fn from_json(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        de.parse_numeric()
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_json_string(self, out);
        Ok(())
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom("expected string"))
    }
    fn from_json(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        match de.peek() {
            Some(b'"') => Ok(de.parse_str()?.into_owned()),
            _ => from_tree(de),
        }
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_json_string(self, out);
        Ok(())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        (**self).write_json(out)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_json_seq(self, out)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
    fn from_json(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        if de.peek() != Some(b'[') {
            return from_tree(de);
        }
        let mut items = Vec::new();
        de.parse_array(|de| {
            items.push(T::from_json(de)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_json_seq(self, out)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_json_seq(self, out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        match self {
            Some(v) => v.write_json(out),
            None => {
                out.push_str("null");
                Ok(())
            }
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
    fn from_json(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        match de.peek() {
            Some(b'n') => from_tree::<()>(de).map(|()| None),
            _ => T::from_json(de).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+);)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize()),+])
            }
            fn write_json(&self, out: &mut String) -> Result<(), Error> {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.write_json(out)?;
                )+
                out.push(']');
                Ok(())
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let items = value.as_array().ok_or_else(|| Error::custom("expected tuple array"))?;
                let mut iter = items.iter();
                Ok(($({
                    let _ = $idx;
                    $name::deserialize(iter.next().ok_or_else(|| Error::custom("tuple too short"))?)?
                },)+))
            }
            fn from_json(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                if de.peek() != Some(b'[') {
                    return from_tree(de);
                }
                // Like the tree rule: elements past the tuple's arity are
                // read (and validated) but ignored.
                let mut slots = ($(None::<$name>,)+);
                let mut index = 0;
                de.parse_array(|de| {
                    match index {
                        $($idx => slots.$idx = Some($name::from_json(de)?),)+
                        _ => de.skip_value()?,
                    }
                    index += 1;
                    Ok(())
                })?;
                let too_short = || Error::custom("tuple too short");
                Ok(($(slots.$idx.ok_or_else(too_short)?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0);
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::deserialize(&7u64.serialize()).unwrap(), 7);
        assert_eq!(i64::deserialize(&(-3i64).serialize()).unwrap(), -3);
        assert_eq!(f64::deserialize(&1.5f64.serialize()).unwrap(), 1.5);
        assert_eq!(
            String::deserialize(&"hi".to_string().serialize()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u32>::deserialize(&Value::Null).unwrap(), None);
        let pair: (usize, f64) = Deserialize::deserialize(&(3usize, 0.5f64).serialize()).unwrap();
        assert_eq!(pair, (3, 0.5));
    }

    #[test]
    fn nested_vectors_round_trip() {
        let rows = vec![vec![1.0f64, 2.0], vec![3.0]];
        let back: Vec<Vec<f64>> = Deserialize::deserialize(&rows.serialize()).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn integral_floats_read_as_integers_only_below_two_to_the_53() {
        assert_eq!(Value::Float(3.0).as_u64(), Some(3));
        assert_eq!(Value::Float(-0.0).as_u64(), Some(0));
        assert_eq!(
            Value::Float(9_007_199_254_740_991.0).as_u64(),
            Some(9_007_199_254_740_991)
        );
        assert_eq!(Value::Float(9_007_199_254_740_992.0).as_u64(), None);
        assert_eq!(Value::Float(1e20).as_u64(), None);
        assert_eq!(Value::Float(-1.0).as_u64(), None);
        assert_eq!(
            Value::Float(-9_007_199_254_740_991.0).as_i64(),
            Some(-9_007_199_254_740_991)
        );
        assert_eq!(Value::Float(-1e300).as_i64(), None);
        assert_eq!(Value::Float(0.5).as_i64(), None);
    }

    #[test]
    fn numbers_parse_to_the_narrowest_exact_variant() {
        let parse = |text: &str| {
            let mut de = Deserializer::new(text);
            let value = Value::from_json(&mut de);
            de.end().and(value)
        };
        for (text, value) in [
            ("0", Value::UInt(0)),
            ("0123", Value::UInt(123)),
            (
                "9999999999999999999",
                Value::UInt(9_999_999_999_999_999_999),
            ),
            ("18446744073709551615", Value::UInt(u64::MAX)),
            (
                "18446744073709551616",
                Value::Float(18_446_744_073_709_551_616.0),
            ),
            ("-0", Value::Int(0)),
            ("-9223372036854775808", Value::Int(i64::MIN)),
            (
                "-9223372036854775809",
                Value::Float(-9_223_372_036_854_775_809.0),
            ),
            ("1.5e3", Value::Float(1500.0)),
        ] {
            assert_eq!(parse(text), Ok(value), "{text}");
        }
        for bad in ["-", "1.2.3", "1e", "--1", "1-"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn strings_are_borrowed_unless_they_hold_an_escape() {
        let mut de = Deserializer::new(r#" "plain" "\u0069d" "a\"b" "#);
        assert!(matches!(de.parse_str().unwrap(), Cow::Borrowed("plain")));
        assert!(matches!(de.parse_str().unwrap(), Cow::Owned(s) if s == "id"));
        assert!(matches!(de.parse_str().unwrap(), Cow::Owned(s) if s == "a\"b"));
        de.end().unwrap();
    }

    #[test]
    fn missing_field_reports_name() {
        let err = get_field(&[], "speed").unwrap_err();
        assert!(err.to_string().contains("speed"));
    }
}
