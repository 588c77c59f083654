//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The build container has no reachable crates registry, so instead of the real
//! serde the workspace compiles against this small, dependency-free stand-in.
//! It keeps the *call-site* API identical — `use serde::{Serialize,
//! Deserialize}`, `#[derive(Serialize, Deserialize)]`, `T: Serialize` bounds —
//! but replaces serde's visitor architecture with two data paths:
//!
//! * **Encode** is direct: [`Serialize::write_json`] appends a value's compact
//!   JSON to a `String`, and the derive, the primitive / container impls and
//!   `serde_json::to_string` never build a tree.
//! * **Decode** goes through the self-describing [`Value`] tree:
//!   `serde_json::from_str` parses text into one and [`Deserialize`] reads a
//!   type out of it.  The tree is also what `json!`, `to_value` and version
//!   sniffing (`value.get("version")`) work on, and [`Serialize::serialize`]
//!   still builds one; `write_json` defaults to rendering it, so a
//!   hand-written impl that only defines `serialize` stays correct.
//!
//! Both encoders share the scalar writers below, so
//! `x.write_json(out)` and `x.serialize().write_json(out)` produce the same
//! bytes.  Swapping in the real serde later only requires changing the
//! `[workspace.dependencies]` path entries.

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

    /// Numeric view as u64 (accepts integral floats from JSON round trips).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
            _ => None,
        }
    }

    /// Numeric view as i64.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
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

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`].
    fn deserialize(value: &Value) -> Result<Self, Error>;

    /// Rebuilds `Self` from a tree the caller is done with — what
    /// `serde_json::from_str` does with the document it just parsed.  Only
    /// [`Value`] itself gains from owning it (it is returned, not cloned).
    fn from_value(value: Value) -> Result<Self, Error> {
        Self::deserialize(&value)
    }
}

/// Helper used by the derive macro: fetches a required object field.
pub fn get_field<'a>(fields: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::custom(format!("missing field `{name}`")))
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        Value::write_json(self, out)
    }
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
    fn from_value(value: Value) -> Result<Self, Error> {
        Ok(value)
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
    fn missing_field_reports_name() {
        let err = get_field(&[], "speed").unwrap_err();
        assert!(err.to_string().contains("speed"));
    }
}
