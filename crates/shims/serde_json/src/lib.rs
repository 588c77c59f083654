//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`from_str`], the [`json!`] macro and a displayable
//! [`Value`].  Both directions are single-pass and direct:
//! [`to_string`] appends straight into one buffer through
//! `serde::Serialize::write_json`, and [`from_str`] reads the target type
//! straight off the `serde` shim's [`serde::Deserializer`] through
//! `serde::Deserialize::from_json` — no [`Value`] tree is built unless the
//! target is one (or a hand-written impl asks for one).

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
/// [`serde::MAX_DEPTH`] (128) levels, on anything but whitespace after the
/// value, or when the value does not match the target type's shape.
pub fn from_str<T: serde::Deserialize>(input: &str) -> Result<T> {
    let mut de = serde::Deserializer::new(input);
    let value = T::from_json(&mut de)?;
    de.end()?;
    Ok(value)
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
