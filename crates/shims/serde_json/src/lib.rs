//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`from_str`], the [`json!`] macro and a displayable
//! [`Value`].  [`to_string`] appends straight into one buffer through
//! `serde::Serialize::write_json`; [`from_str`] parses into the `serde`
//! shim's [`serde::Value`] tree in a single pass over the input and reads the
//! target type out of it.

pub use serde::Error;

/// JSON value — re-uses the serde shim's self-describing tree.
pub type Value = serde::Value;

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Converts any serializable value into a [`Value`] (used by [`json!`]).
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.serialize()
}

/// Serializes a value to a compact JSON string.
///
/// # Errors
///
/// Returns an error if the value contains a non-finite float (JSON cannot
/// represent NaN or infinities).
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out)?;
    Ok(out)
}

/// Deserializes a value from a JSON string.
///
/// # Errors
///
/// Returns an error on malformed JSON, on arrays/objects nested deeper than
/// 128 levels, or when the parsed tree does not match the target type's
/// shape.
pub fn from_str<T: serde::Deserialize>(input: &str) -> Result<T> {
    let mut parser = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != input.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    T::from_value(value)
}

/// Builds a [`Value`] from an object / array / expression literal.
///
/// Supports nested objects with literal string keys, nested arrays, `null`,
/// and arbitrary serializable expressions as values.
#[macro_export]
macro_rules! json {
    // --- internal: object entry muncher, accumulating built pairs -------
    (@object [$($done:expr),*]) => {
        $crate::Value::Object(<[_]>::into_vec(::std::boxed::Box::new([$($done),*])))
    };
    (@object [$($done:expr),*] $key:literal : null , $($rest:tt)*) => {
        $crate::json!(@object [$($done,)* (::std::string::String::from($key), $crate::Value::Null)] $($rest)*)
    };
    (@object [$($done:expr),*] $key:literal : null) => {
        $crate::json!(@object [$($done,)* (::std::string::String::from($key), $crate::Value::Null)])
    };
    (@object [$($done:expr),*] $key:literal : { $($inner:tt)* } , $($rest:tt)*) => {
        $crate::json!(@object [$($done,)* (::std::string::String::from($key), $crate::json!({ $($inner)* }))] $($rest)*)
    };
    (@object [$($done:expr),*] $key:literal : { $($inner:tt)* }) => {
        $crate::json!(@object [$($done,)* (::std::string::String::from($key), $crate::json!({ $($inner)* }))])
    };
    (@object [$($done:expr),*] $key:literal : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $crate::json!(@object [$($done,)* (::std::string::String::from($key), $crate::json!([ $($inner)* ]))] $($rest)*)
    };
    (@object [$($done:expr),*] $key:literal : [ $($inner:tt)* ]) => {
        $crate::json!(@object [$($done,)* (::std::string::String::from($key), $crate::json!([ $($inner)* ]))])
    };
    (@object [$($done:expr),*] $key:literal : $value:expr , $($rest:tt)*) => {
        $crate::json!(@object [$($done,)* (::std::string::String::from($key), $crate::to_value(&$value))] $($rest)*)
    };
    (@object [$($done:expr),*] $key:literal : $value:expr) => {
        $crate::json!(@object [$($done,)* (::std::string::String::from($key), $crate::to_value(&$value))])
    };
    // --- internal: array element muncher --------------------------------
    (@array [$($done:expr),*]) => {
        $crate::Value::Array(<[_]>::into_vec(::std::boxed::Box::new([$($done),*])))
    };
    (@array [$($done:expr),*] null , $($rest:tt)*) => {
        $crate::json!(@array [$($done,)* $crate::Value::Null] $($rest)*)
    };
    (@array [$($done:expr),*] null) => {
        $crate::json!(@array [$($done,)* $crate::Value::Null])
    };
    (@array [$($done:expr),*] { $($inner:tt)* } , $($rest:tt)*) => {
        $crate::json!(@array [$($done,)* $crate::json!({ $($inner)* })] $($rest)*)
    };
    (@array [$($done:expr),*] { $($inner:tt)* }) => {
        $crate::json!(@array [$($done,)* $crate::json!({ $($inner)* })])
    };
    (@array [$($done:expr),*] [ $($inner:tt)* ] , $($rest:tt)*) => {
        $crate::json!(@array [$($done,)* $crate::json!([ $($inner)* ])] $($rest)*)
    };
    (@array [$($done:expr),*] [ $($inner:tt)* ]) => {
        $crate::json!(@array [$($done,)* $crate::json!([ $($inner)* ])])
    };
    (@array [$($done:expr),*] $value:expr , $($rest:tt)*) => {
        $crate::json!(@array [$($done,)* $crate::to_value(&$value)] $($rest)*)
    };
    (@array [$($done:expr),*] $value:expr) => {
        $crate::json!(@array [$($done,)* $crate::to_value(&$value)])
    };
    // --- public entry points --------------------------------------------
    (null) => { $crate::Value::Null };
    ({ $($tt:tt)* }) => { $crate::json!(@object [] $($tt)*) };
    ([ $($tt:tt)* ]) => { $crate::json!(@array [] $($tt)*) };
    ($value:expr) => { $crate::to_value(&$value) };
}

/// Deepest array/object nesting [`from_str`] accepts (the real
/// `serde_json`'s limit).  The parser is recursive descent and daemons feed
/// it untrusted lines, so unbounded nesting would be a remote stack overflow.
const MAX_DEPTH: usize = 128;

/// Recursive-descent parser over a `&str`.  Every delimiter JSON cares about
/// is ASCII, so scanning works on bytes while slices of `input` taken between
/// delimiters are valid UTF-8 by construction — no byte is validated twice.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::custom(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    /// Runs a container parser one nesting level down, refusing documents
    /// deeper than [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, keyword: &str, value: Value) -> Result<Value> {
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

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Only ASCII was consumed, so both ends are character boundaries.
        let text = &self.input[start..self.pos];
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

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one piece.  Both are
            // ASCII, so they never fall inside a multi-byte character and the
            // run is a valid `str` slice.
            let run_start = self.pos;
            let Some(run_len) = self.bytes()[run_start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err(Error::custom("unterminated string"));
            };
            self.pos += run_len;
            out.push_str(&self.input[run_start..self.pos]);
            let delimiter = self.bytes()[self.pos];
            self.pos += 1;
            if delimiter == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
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
        }
    }

    /// Decodes what follows a `\u`: four hex digits, or — for characters
    /// outside the Basic Multilingual Plane — a UTF-16 surrogate pair spelled
    /// as two consecutive escapes (`😀`).  A surrogate without its
    /// partner is not a character and is refused.
    fn parse_unicode_escape(&mut self) -> Result<char> {
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

    fn parse_hex4(&mut self) -> Result<u32> {
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

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(Vec::new()));
        }
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Vec::new()));
        }
        // Wire structs here mostly carry 5–8 fields; starting at 8 skips the
        // 4 → 8 regrowth `Vec` would do for them and ends at the same
        // capacity.
        let mut fields = Vec::with_capacity(8);
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::custom("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v = json!({
            "name": "oef",
            "count": 3usize,
            "ratio": 1.5f64,
            "flags": vec![true, false],
            "missing": Value::Null,
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::Str("line\n\"quoted\"\tend".to_string());
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0, -2.5e-8, 1e20, 0.66] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum WireShape {
        Idle,
        Newtype(u64),
        Pair(u64, f64),
        Join {
            name: String,
            weight: u32,
            speedup: Vec<f64>,
        },
    }

    #[test]
    fn enum_variants_with_fields_round_trip() {
        let cases = vec![
            WireShape::Idle,
            WireShape::Newtype(42),
            WireShape::Pair(7, 2.5),
            WireShape::Join {
                name: "alice".into(),
                weight: 3,
                speedup: vec![1.0, 1.5, 2.0],
            },
        ];
        for case in cases {
            let text = to_string(&case).unwrap();
            let back: WireShape = from_str(&text).unwrap();
            assert_eq!(back, case, "round trip failed for {text}");
        }
    }

    #[test]
    fn enum_external_tagging_matches_serde() {
        assert_eq!(to_string(&WireShape::Idle).unwrap(), "\"Idle\"");
        assert_eq!(
            to_string(&WireShape::Newtype(5)).unwrap(),
            "{\"Newtype\":5}"
        );
        assert_eq!(
            to_string(&WireShape::Pair(1, 0.5)).unwrap(),
            "{\"Pair\":[1,0.5]}"
        );
    }

    #[test]
    fn enum_deserialize_rejects_bad_payloads() {
        assert!(from_str::<WireShape>("\"Newtype\"").is_err());
        assert!(from_str::<WireShape>("{\"Pair\":[1]}").is_err());
        assert!(from_str::<WireShape>("{\"Nope\":3}").is_err());
        assert!(from_str::<WireShape>("{\"Newtype\":1,\"Pair\":[1,2.0]}").is_err());
    }
}
