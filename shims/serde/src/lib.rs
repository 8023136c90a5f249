//! Offline shim for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! member provides the subset SPES uses: `#[derive(Serialize)]` /
//! `#[derive(Deserialize)]` plus a JSON value model that the `serde_json`
//! shim renders. Serialization follows serde_json's conventions
//! (externally tagged enums, newtype structs collapse to their inner
//! value, non-finite floats become `null`).
//!
//! `Deserialize` mirrors `Serialize` against the same [`Value`] model:
//! the `serde_json` shim parses JSON text into a `Value` tree and
//! [`Deserialize::from_value`] rebuilds typed data from it, so the
//! figure/benchmark JSON artifacts round-trip offline.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub use serde_derive::{Deserialize, Serialize};

/// A JSON value tree produced by [`Serialize::to_value`].
///
/// Numbers are kept pre-rendered so `u64` survives without `f64`
/// precision loss.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// A number, already rendered in JSON syntax.
    Number(String),
    /// JSON string (unescaped; escaping happens at render time).
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object as insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value of an object field, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Short label of the value's JSON kind, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Types that can be converted into a JSON [`Value`].
pub trait Serialize {
    /// Converts `self` into a JSON value tree.
    fn to_value(&self) -> Value;
}

/// A deserialization error: what was expected and what was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// An error with a custom message.
    #[must_use]
    pub fn custom(message: impl Into<String>) -> Self {
        Self(message.into())
    }

    /// An "expected X while deserializing T, found Y" error.
    #[must_use]
    pub fn expected(what: &str, ty: &str, found: &Value) -> Self {
        Self(format!(
            "expected {what} while deserializing {ty}, found {}",
            found.kind()
        ))
    }

    /// A "missing field" error.
    #[must_use]
    pub fn missing_field(field: &str, ty: &str) -> Self {
        Self(format!("missing field {field:?} while deserializing {ty}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Looks up a required object field (used by generated derive code).
///
/// # Errors
/// Returns a [`DeError`] when `value` is not an object or the field is
/// absent.
pub fn field<'v>(value: &'v Value, name: &str, ty: &str) -> Result<&'v Value, DeError> {
    value.get(name).ok_or_else(|| match value.as_object() {
        Some(_) => DeError::missing_field(name, ty),
        None => DeError::expected("object", ty, value),
    })
}

/// Types that can be rebuilt from a JSON [`Value`] (the shim's
/// deserialization flavour; `serde_json::from_str` parses text into a
/// `Value` and delegates here).
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a JSON value tree.
    ///
    /// # Errors
    /// Returns a [`DeError`] when the value's shape does not match.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", "bool", other)),
        }
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", "String", other)),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", "Vec", other)),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(self.to_string())
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Number(n) => n.parse().map_err(|_| {
                        DeError::custom(format!(
                            "number {n} does not fit {}",
                            stringify!($t)
                        ))
                    }),
                    other => Err(DeError::expected("number", stringify!($t), other)),
                }
            }
        }
    )*};
}
impl_serialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_serialize_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if self.is_finite() {
                    // `{:?}` keeps a trailing `.0` on integral floats,
                    // matching serde_json's distinction from integers.
                    Value::Number(format!("{self:?}"))
                } else {
                    Value::Null
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Number(n) => n.parse().map_err(|_| {
                        DeError::custom(format!(
                            "number {n} is not a valid {}",
                            stringify!($t)
                        ))
                    }),
                    // Non-finite floats serialize as null; accept the
                    // round trip.
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(DeError::expected("number", stringify!($t), other)),
                }
            }
        }
    )*};
}
impl_serialize_float!(f32, f64);

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                const ARITY: usize = 0 $(+ { let _ = $n; 1 })+;
                match value {
                    Value::Array(items) if items.len() == ARITY => {
                        Ok(($($t::from_value(&items[$n])?,)+))
                    }
                    Value::Array(items) => Err(DeError::custom(format!(
                        "expected a {ARITY}-element array for a tuple, found {}",
                        items.len()
                    ))),
                    other => Err(DeError::expected("array", "tuple", other)),
                }
            }
        }
    )*};
}
impl_serialize_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(3u32.to_value(), Value::Number("3".into()));
        assert_eq!(2.5f64.to_value(), Value::Number("2.5".into()));
        assert_eq!(2.0f64.to_value(), Value::Number("2.0".into()));
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::String("x".into()));
    }

    #[test]
    fn composites() {
        assert_eq!(
            vec![(1u32, 2u32)].to_value(),
            Value::Array(vec![Value::Array(vec![
                Value::Number("1".into()),
                Value::Number("2".into())
            ])])
        );
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!(Some(1u32).to_value(), Value::Number("1".into()));
    }

    #[test]
    fn scalars_round_trip_through_from_value() {
        assert_eq!(u32::from_value(&3u32.to_value()), Ok(3));
        assert_eq!(i64::from_value(&(-9i64).to_value()), Ok(-9));
        assert_eq!(f64::from_value(&2.5f64.to_value()), Ok(2.5));
        assert!(f64::from_value(&f64::NAN.to_value()).unwrap().is_nan());
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(String::from_value(&"x".to_value()), Ok("x".to_owned()));
    }

    #[test]
    fn composites_round_trip_through_from_value() {
        let v = vec![(1u32, 0.5f64), (2, 1.5)];
        assert_eq!(Vec::<(u32, f64)>::from_value(&v.to_value()), Ok(v));
        assert_eq!(Option::<u32>::from_value(&Value::Null), Ok(None));
        assert_eq!(
            Option::<u32>::from_value(&Some(7u32).to_value()),
            Ok(Some(7))
        );
    }

    #[test]
    fn shape_mismatches_are_described() {
        let err = u32::from_value(&Value::Bool(true)).unwrap_err();
        assert!(err.to_string().contains("expected number"), "{err}");
        let err = u8::from_value(&Value::Number("300".into())).unwrap_err();
        assert!(err.to_string().contains("does not fit u8"), "{err}");
        let err = field(&Value::Object(vec![]), "missing", "Demo").unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
        let err = field(&Value::Null, "x", "Demo").unwrap_err();
        assert!(err.to_string().contains("expected object"), "{err}");
    }

    #[test]
    fn value_accessors() {
        let obj = Value::Object(vec![("k".into(), Value::Number("1".into()))]);
        assert_eq!(obj.get("k"), Some(&Value::Number("1".into())));
        assert_eq!(obj.get("nope"), None);
        assert_eq!(obj.kind(), "object");
        assert_eq!(Value::Array(vec![]).as_array(), Some(&[][..]));
        assert_eq!(Value::String("s".into()).as_str(), Some("s"));
        assert_eq!(Value::from_value(&obj), Ok(obj));
    }
}
