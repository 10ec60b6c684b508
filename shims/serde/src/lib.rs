//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors a minimal serialization framework under the `serde`
//! name. It intentionally implements only what this codebase uses:
//!
//! - `#[derive(Serialize, Deserialize)]` (re-exported from `serde_derive`)
//!   for named/tuple/unit structs and for enums with unit, newtype, tuple,
//!   and struct variants, including generic types with `where` clauses and
//!   the `#[serde(skip)]` and `#[serde(default)]` field attributes;
//! - impls for the primitives, `String`, `Option`, `Box`, `Vec`, tuples,
//!   `HashMap` and `BTreeMap` (map keys serialized through strings; hash-map
//!   entries are sorted so output is deterministic, tree-map entries are
//!   already in key order).
//!
//! Unlike real serde there is no `Serializer`/`Deserializer` abstraction:
//! values serialize into a self-describing [`Value`] tree which
//! `serde_json` renders to/parses from JSON text. Enum representation
//! matches serde's externally-tagged default (`"Variant"` or
//! `{"Variant": ...}`), and numbers deserialize leniently across
//! integer/float variants, so JSON written by this shim round-trips through
//! the same types exactly.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialized value (the shim's entire data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Seq(Vec<Value>),
    /// JSON object; insertion order is preserved verbatim.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The entries of a map value.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The elements of a sequence value.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric contents widened to `f64` (accepts any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(x) => Some(x as f64),
            Value::I64(x) => Some(x as f64),
            Value::F64(x) => Some(x),
            _ => None,
        }
    }

    /// Looks up a field in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// An error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// A type-mismatch error.
    pub fn expected(what: &str, context: &str) -> Self {
        Error(format!("expected {what} while deserializing {context}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves as a [`Value`].
pub trait Serialize {
    /// Converts `self` into the shim's data model.
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`].
pub trait Deserialize: Sized {
    /// Parses an instance out of the shim's data model.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Deserializes a named field out of a map's entries (derive-macro helper).
///
/// # Errors
///
/// Returns an error if the field is missing or fails to deserialize.
pub fn field<T: Deserialize>(
    entries: &[(String, Value)],
    name: &str,
    context: &str,
) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v),
        None => Err(Error::new(format!("missing field `{name}` in {context}"))),
    }
}

/// Like [`field`], but a missing entry yields `T::default()` instead of an
/// error — the runtime half of the derive shim's `#[serde(default)]`.
///
/// # Errors
///
/// Returns an error if a present field fails to deserialize.
pub fn field_or_default<T: Deserialize + Default>(
    entries: &[(String, Value)],
    name: &str,
) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v),
        None => Ok(T::default()),
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::U64(x) => x,
                    Value::I64(x) if x >= 0 => x as u64,
                    Value::F64(x) if x >= 0.0 && x.fract() == 0.0 => x as u64,
                    _ => return Err(Error::expected("unsigned integer", stringify!($t))),
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::new(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let x = *self as i64;
                if x >= 0 { Value::U64(x as u64) } else { Value::I64(x) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::U64(x) => i64::try_from(x)
                        .map_err(|_| Error::new(format!("{x} out of range for i64")))?,
                    Value::I64(x) => x,
                    Value::F64(x) if x.fract() == 0.0 => x as i64,
                    _ => return Err(Error::expected("integer", stringify!($t))),
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::new(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            // NaN serializes as null (like serde_json with arbitrary
            // precision off); accept it back.
            Value::Null => Ok(f64::NAN),
            _ => v.as_f64().ok_or_else(|| Error::expected("number", "f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        // Widen exactly; narrowing on deserialize recovers the same f32.
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("bool", "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("string", "String"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v
            .as_str()
            .ok_or_else(|| Error::expected("string", "char"))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::expected("single-character string", "char")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_seq()
            .ok_or_else(|| Error::expected("array", "Vec"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let s = v.as_seq().ok_or_else(|| Error::expected("array", "tuple"))?;
                let expected = [$($idx),+].len();
                if s.len() != expected {
                    return Err(Error::new(format!(
                        "tuple length mismatch: expected {expected}, got {}",
                        s.len()
                    )));
                }
                Ok(($($name::from_value(&s[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

fn key_to_string(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::U64(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::Bool(b) => b.to_string(),
        other => panic!("unsupported map key type: {other:?}"),
    }
}

fn key_from_string<K: Deserialize>(s: &str) -> Result<K, Error> {
    // Try the natural string form first, then numeric reinterpretations —
    // integer map keys round-trip through strings, as in serde_json.
    if let Ok(k) = K::from_value(&Value::Str(s.to_string())) {
        return Ok(k);
    }
    if let Ok(n) = s.parse::<u64>() {
        if let Ok(k) = K::from_value(&Value::U64(n)) {
            return Ok(k);
        }
    }
    if let Ok(n) = s.parse::<i64>() {
        if let Ok(k) = K::from_value(&Value::I64(n)) {
            return Ok(k);
        }
    }
    if s == "true" || s == "false" {
        if let Ok(k) = K::from_value(&Value::Bool(s == "true")) {
            return Ok(k);
        }
    }
    Err(Error::new(format!("cannot reconstruct map key from {s:?}")))
}

impl<K: Serialize + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_to_string(&k.to_value()), v.to_value()))
            .collect();
        // Hash maps have no intrinsic order; sort so output is deterministic.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_map()
            .ok_or_else(|| Error::expected("map", "HashMap"))?
            .iter()
            .map(|(k, val)| Ok((key_from_string::<K>(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        // Iteration follows `Ord` on the key; re-sort by the *stringified*
        // key so BTreeMap output matches the HashMap impl byte for byte
        // (e.g. integer keys 2 and 10 order differently as strings).
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_to_string(&k.to_value()), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_map()
            .ok_or_else(|| Error::expected("map", "BTreeMap"))?
            .iter()
            .map(|(k, val)| Ok((key_from_string::<K>(k)?, V::from_value(val)?)))
            .collect()
    }
}
