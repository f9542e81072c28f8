//! `lrc-json` — a small, self-contained JSON layer.
//!
//! The experiment harness emits machine-readable reports and the test
//! suite round-trips configuration/stats structures. The build runs in
//! fully offline environments, so instead of an external JSON dependency
//! this crate provides the minimal surface the workspace needs: an ordered
//! [`Value`] type, a [`json!`] construction macro, compact and pretty
//! printers, a strict parser, [`ToJson`]/[`FromJson`] conversion traits,
//! and the [`json_struct!`]/[`json_enum!`] listings that derive both
//! directions of a format from one field list (with per-field encodings,
//! [`Via`]; machine snapshots are built from them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The `json!` muncher builds containers by init-then-push; expansions in
// this crate are not "external macro" code, so clippy must be allowed here
// (downstream crates are exempt automatically).
#![allow(clippy::vec_init_then_push)]

mod canon;
mod codec;
mod parse;
mod print;

pub use canon::{canonical_dump, canonicalize};
pub use codec::{
    member, Armed, Cx, Dec, Entries, Fixed, Idx, InPlace, Opt, OrDefault, Overlay, Pairs, Plain, Row,
    Rows, Seq, Via,
};
pub use parse::{parse, ParseError};
pub use print::{to_string, to_string_pretty};

use std::ops::Index;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like most JS runtimes).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Value)>),
}

/// Shared `Null` used when indexing misses (lets `v["absent"]` return a
/// reference, mirroring the ergonomics of mainstream JSON crates).
static NULL: Value = Value::Null;

impl Value {
    /// Member lookup; `None` if `self` is not an object or lacks `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup; `None` if not an array or out of range.
    pub fn get_index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(i),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrow as an object (ordered key/value pairs).
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Numeric view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Unsigned-integer view (exact integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Signed-integer view (exact integers only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Is this `null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Is this an array?
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// Is this an object?
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// Insert or replace a member. A non-object silently becomes an object
    /// first, so optional report sections can be appended without matching
    /// on the variant at every call site.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        if !self.is_object() {
            *self = Value::Object(Vec::new());
        }
        let Value::Object(fields) = self else { unreachable!() };
        let value = value.into();
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
    }

    /// Compact rendering (no whitespace).
    pub fn dump(&self) -> String {
        to_string(self)
    }

    /// Pretty rendering (2-space indent).
    pub fn pretty(&self) -> String {
        to_string_pretty(self)
    }
}

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.get_index(i).unwrap_or(&NULL)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::Str(s.clone())
    }
}

macro_rules! from_num {
    ($($t:ty),*) => {
        $(impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n as f64)
            }
        })*
    };
}
from_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(items: [T; N]) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(items: &[T]) -> Value {
        Value::Array(items.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Value {
        o.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

/// Why a struct field failed to reconstruct from JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldReason {
    /// The key is absent from the object.
    Missing,
    /// The key is present but its value has the wrong shape or domain.
    Invalid,
}

/// A struct could not be reconstructed from JSON: names the offending
/// type and field instead of collapsing every failure into `None`.
/// Produced by the `from_json_detailed` constructor that [`json_struct!`]
/// generates alongside the [`FromJson`] impl.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldError {
    /// Name of the struct being reconstructed.
    pub type_name: &'static str,
    /// The field that failed.
    pub field: &'static str,
    /// How it failed.
    pub reason: FieldReason,
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            FieldReason::Missing => {
                write!(f, "{}: missing field `{}`", self.type_name, self.field)
            }
            FieldReason::Invalid => write!(
                f,
                "{}: field `{}` has the wrong shape or an out-of-domain value",
                self.type_name, self.field
            ),
        }
    }
}

impl std::error::Error for FieldError {}

/// Types that render themselves as a JSON [`Value`].
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Value;
}

/// Types reconstructible from a JSON [`Value`]. Returns `None` on shape or
/// domain mismatch.
pub trait FromJson: Sized {
    /// Parse from a JSON value.
    fn from_json(v: &Value) -> Option<Self>;
    /// Parse with a decoding context for nested [`Idx`] fields. Types that
    /// hold none keep this default.
    fn from_json_in(v: &Value, cx: &Cx) -> Option<Self> {
        let _ = cx;
        Self::from_json(v)
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Option<Value> {
        Some(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Option<bool> {
        v.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

macro_rules! json_uint {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Option<$t> {
                v.as_u64().and_then(|n| <$t>::try_from(n).ok())
            }
        })*
    };
}
json_uint!(u8, u16, u32, u64, usize);

macro_rules! json_int {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Option<$t> {
                v.as_i64().and_then(|n| <$t>::try_from(n).ok())
            }
        })*
    };
}
json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Option<f64> {
        v.as_f64()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Option<Vec<T>> {
        Self::from_json_in(v, &Cx::UNBOUNDED)
    }
    fn from_json_in(v: &Value, cx: &Cx) -> Option<Vec<T>> {
        v.as_array()?.iter().map(|e| T::from_json_in(e, cx)).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Option<Option<T>> {
        Self::from_json_in(v, &Cx::UNBOUNDED)
    }
    fn from_json_in(v: &Value, cx: &Cx) -> Option<Option<T>> {
        if v.is_null() {
            Some(None)
        } else {
            T::from_json_in(v, cx).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Box<T> {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(v: &Value) -> Option<Box<T>> {
        T::from_json(v).map(Box::new)
    }
    fn from_json_in(v: &Value, cx: &Cx) -> Option<Box<T>> {
        T::from_json_in(v, cx).map(Box::new)
    }
}

/// Build a [`Value`] with JSON-looking syntax:
///
/// ```
/// use lrc_json::json;
/// let v = json!({ "name": "lrc", "sizes": [1, 2, 3], "ok": true });
/// assert_eq!(v["sizes"][2].as_u64(), Some(3));
/// ```
///
/// Keys must be string literals; values are any expression convertible
/// into a `Value` via `From`, or nested `{...}` / `[...]` forms.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_items!(items $($tt)*);
        $crate::Value::Array(items)
    }};
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut fields: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
            ::std::vec::Vec::new();
        $crate::json_fields!(fields $($tt)*);
        $crate::Value::Object(fields)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

/// Internal muncher for `json!` array bodies. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    ($vec:ident) => {};
    ($vec:ident null $(, $($rest:tt)*)?) => {
        $vec.push($crate::Value::Null);
        $( $crate::json_items!($vec $($rest)*); )?
    };
    ($vec:ident [ $($arr:tt)* ] $(, $($rest:tt)*)?) => {
        $vec.push($crate::json!([ $($arr)* ]));
        $( $crate::json_items!($vec $($rest)*); )?
    };
    ($vec:ident { $($obj:tt)* } $(, $($rest:tt)*)?) => {
        $vec.push($crate::json!({ $($obj)* }));
        $( $crate::json_items!($vec $($rest)*); )?
    };
    ($vec:ident $val:expr $(, $($rest:tt)*)?) => {
        $vec.push($crate::Value::from($val));
        $( $crate::json_items!($vec $($rest)*); )?
    };
}

/// Internal muncher for `json!` object bodies. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_fields {
    ($vec:ident) => {};
    ($vec:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $vec.push(($key.to_string(), $crate::Value::Null));
        $( $crate::json_fields!($vec $($rest)*); )?
    };
    ($vec:ident $key:literal : [ $($arr:tt)* ] $(, $($rest:tt)*)?) => {
        $vec.push(($key.to_string(), $crate::json!([ $($arr)* ])));
        $( $crate::json_fields!($vec $($rest)*); )?
    };
    ($vec:ident $key:literal : { $($obj:tt)* } $(, $($rest:tt)*)?) => {
        $vec.push(($key.to_string(), $crate::json!({ $($obj)* })));
        $( $crate::json_fields!($vec $($rest)*); )?
    };
    ($vec:ident $key:literal : $val:expr $(, $($rest:tt)*)?) => {
        $vec.push(($key.to_string(), $crate::Value::from($val)));
        $( $crate::json_fields!($vec $($rest)*); )?
    };
}

/// Implement [`ToJson`] + [`FromJson`] for a struct by listing its fields:
/// the listing is the format, written once for both directions.
///
/// Each field is `name`, optionally renamed (`name as "key"`) and
/// optionally given an encoding (`name: Dec`; see [`Via`]; the default is
/// [`Plain`], the field type's own `ToJson`/`FromJson`). Members are
/// emitted in listing order, and a missing member decodes as `null`. A
/// trailing `where check` rejects decoded values for which `check(&value)`
/// is false. Also generates an inherent `from_json_detailed` constructor
/// whose error names the first offending field (see [`FieldError`]).
///
/// The `in place` form implements [`Overlay`] instead, for state built
/// from configuration and then overlaid: unlisted fields are neither saved
/// nor loaded, and an entry may also be a bare key `"key": E` whose
/// encoding `E: Via<Self>` reads and writes the whole value.
#[macro_export]
macro_rules! json_struct {
    ($ty:ident in place { $($name:tt $(as $key:literal)? $(: $via:ty)?),* $(,)? }) => {
        impl $crate::Overlay for $ty {
            fn save(&self) -> $crate::Value {
                $crate::Value::Object(vec![$((
                    $crate::json_key!($name $(as $key)?).to_string(),
                    $crate::json_field!(enc self $name $(: $via)?),
                )),*])
            }
            fn load(&mut self, v: &$crate::Value, cx: &$crate::Cx) -> Option<()> {
                $($crate::json_field!(
                    load self $crate::member(v, $crate::json_key!($name $(as $key)?)), cx,
                    $name $(: $via)?
                )?;)*
                Some(())
            }
        }
    };
    ($ty:ty { $($field:ident $(as $key:literal)? $(: $via:ty)?),* $(,)? } $(where $check:path)?) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Object(vec![$((
                    $crate::json_key!($field $(as $key)?).to_string(),
                    $crate::json_field!(enc self $field $(: $via)?),
                )),*])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Option<Self> {
                Self::from_json_in(v, &$crate::Cx::UNBOUNDED)
            }
            fn from_json_in(v: &$crate::Value, cx: &$crate::Cx) -> Option<Self> {
                Self::from_json_fields(v, cx).ok()
            }
        }
        impl $ty {
            /// Reconstruct from JSON; the error names the first field that
            /// is missing or has the wrong shape.
            #[allow(dead_code)]
            pub fn from_json_detailed(v: &$crate::Value) -> Result<Self, $crate::FieldError> {
                Self::from_json_fields(v, &$crate::Cx::UNBOUNDED)
            }
            fn from_json_fields(
                v: &$crate::Value,
                cx: &$crate::Cx,
            ) -> Result<Self, $crate::FieldError> {
                use $crate::FieldReason::{Invalid, Missing};
                let err = |field, reason| $crate::FieldError { type_name: stringify!($ty), field, reason };
                let x = Self {$($field: {
                    let key = $crate::json_key!($field $(as $key)?);
                    let reason = if v.get(key).is_some() { Invalid } else { Missing };
                    <$crate::json_via!($($via)?) as $crate::Via<_>>::dec($crate::member(v, key), cx)
                        .ok_or_else(|| err(stringify!($field), reason))?
                },)*};
                $(if !$check(&x) {
                    return Err(err(stringify!($check), Invalid));
                })?
                Ok(x)
            }
        }
    };
}

/// Implement [`ToJson`] + [`FromJson`] for an enum by listing its variants.
///
/// The default form writes each variant as an object tagged by member
/// `"t"`, followed by its fields: `Name { a, b as "k": Dec } => "tag"`
/// for struct variants, `Name(a: Idx, b) => "tag"` for tuple variants
/// (the binding names are the keys), `Name {} => "tag"` for unit variants.
/// Field syntax is [`json_struct!`]'s. The `as str` form writes a
/// fieldless enum as a bare string: `json_enum!(E as str { A => "a" })`.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident as str { $($var:ident => $tag:literal),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Str(match self { $($ty::$var => $tag),* }.to_string())
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Option<Self> {
                match v.as_str()? {
                    $($tag => Some($ty::$var),)*
                    _ => None,
                }
            }
        }
    };
    ($ty:ident { $($var:ident $body:tt => $tag:literal),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                match self {
                    $($crate::json_variant!(pat $ty $var $body) => {
                        $crate::json_variant!(enc $tag $body)
                    })*
                }
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Option<Self> {
                Self::from_json_in(v, &$crate::Cx::UNBOUNDED)
            }
            fn from_json_in(v: &$crate::Value, cx: &$crate::Cx) -> Option<Self> {
                match v.get("t")?.as_str()? {
                    $($tag => $crate::json_variant!(dec $ty $var $body v cx),)*
                    _ => None,
                }
            }
        }
    };
}

/// Internal: one `json_enum!` variant. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_variant {
    (pat $ty:ident $var:ident { $($f:ident $(as $k:literal)? $(: $via:ty)?),* }) => {
        $ty::$var { $($f),* }
    };
    (pat $ty:ident $var:ident ( $($f:ident $(: $via:ty)?),* )) => {
        $ty::$var ( $($f),* )
    };
    (enc $tag:literal { $($f:ident $(as $k:literal)? $(: $via:ty)?),* }) => {
        $crate::Value::Object(vec![
            ("t".to_string(), $crate::Value::Str($tag.to_string())),
            $(($crate::json_key!($f $(as $k)?).to_string(),
               <$crate::json_via!($($via)?) as $crate::Via<_>>::enc($f)),)*
        ])
    };
    (enc $tag:literal ( $($f:ident $(: $via:ty)?),* )) => {
        $crate::json_variant!(enc $tag { $($f $(: $via)?),* })
    };
    (dec $ty:ident $var:ident { $($f:ident $(as $k:literal)? $(: $via:ty)?),* } $v:ident $cx:ident) => {
        Some($ty::$var {$(
            $f: <$crate::json_via!($($via)?) as $crate::Via<_>>::dec(
                $crate::member($v, $crate::json_key!($f $(as $k)?)),
                $cx,
            )?,
        )*})
    };
    (dec $ty:ident $var:ident ( $($f:ident $(: $via:ty)?),* ) $v:ident $cx:ident) => {
        Some($ty::$var ($(
            <$crate::json_via!($($via)?) as $crate::Via<_>>::dec(
                $crate::member($v, stringify!($f)),
                $cx,
            )?,
        )*))
    };
}

/// Internal: the member key of a listed entry. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_key {
    ($f:ident) => {
        stringify!($f)
    };
    ($f:ident as $key:literal) => {
        $key
    };
    ($key:literal) => {
        $key
    };
}

/// Internal: an entry's encoding, [`Plain`] when none is given. Not part
/// of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_via {
    () => {
        $crate::Plain
    };
    ($via:ty) => {
        $via
    };
}

/// Internal: save or load one `in place` entry (a field, or a bare key
/// whose encoding covers the whole value). Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_field {
    (enc $s:ident $key:literal : $via:ty) => {
        <$via as $crate::Via<Self>>::enc($s)
    };
    (enc $s:ident $f:ident $(: $via:ty)?) => {
        <$crate::json_via!($($via)?) as $crate::Via<_>>::enc(&$s.$f)
    };
    (load $s:ident $v:expr, $cx:ident, $key:literal : $via:ty) => {
        <$via as $crate::Via<Self>>::dec_into($v, $cx, $s)
    };
    (load $s:ident $v:expr, $cx:ident, $f:ident $(: $via:ty)?) => {
        <$crate::json_via!($($via)?) as $crate::Via<_>>::dec_into($v, $cx, &mut $s.$f)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_builds_nested_values() {
        let rows = vec![json!({ "a": 1 }), json!({ "a": 2 })];
        let v = json!({ "rows": rows, "tag": "x", "n": 3u64, "flag": false, "nested": { "k": [1, "two", null] } });
        assert_eq!(v["rows"].as_array().unwrap().len(), 2);
        assert_eq!(v["rows"][1]["a"].as_u64(), Some(2));
        assert_eq!(v["tag"].as_str(), Some("x"));
        assert_eq!(v["n"].as_u64(), Some(3));
        assert_eq!(v["flag"].as_bool(), Some(false));
        assert!(v["nested"]["k"][2].is_null());
        assert!(v["missing"].is_null());
    }

    #[test]
    fn integer_views_reject_fractions() {
        assert_eq!(Value::Num(2.5).as_u64(), None);
        assert_eq!(Value::Num(-3.0).as_u64(), None);
        assert_eq!(Value::Num(-3.0).as_i64(), Some(-3));
    }

    #[test]
    fn struct_macro_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct P {
            x: u64,
            y: String,
            zs: Vec<u32>,
        }
        json_struct!(P { x, y, zs });
        let p = P { x: 7, y: "hi".into(), zs: vec![1, 2] };
        let v = p.to_json();
        assert_eq!(P::from_json(&v), Some(p));
        assert_eq!(P::from_json(&json!({ "x": 7 })), None);
    }

    #[test]
    fn set_inserts_replaces_and_upgrades() {
        let mut v = json!({ "a": 1 });
        v.set("b", "two");
        v.set("a", 3u64);
        assert_eq!(v["a"].as_u64(), Some(3));
        assert_eq!(v["b"].as_str(), Some("two"));
        let mut n = Value::Null;
        n.set("k", vec![1u64, 2]);
        assert_eq!(n["k"].get_index(1).and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn detailed_errors_name_the_offending_field() {
        #[derive(Debug, PartialEq)]
        struct Q {
            a: u64,
            b: String,
        }
        json_struct!(Q { a, b });
        let ok = Q::from_json_detailed(&json!({ "a": 1, "b": "x" }));
        assert_eq!(ok, Ok(Q { a: 1, b: "x".into() }));
        let missing = Q::from_json_detailed(&json!({ "a": 1 })).unwrap_err();
        assert_eq!((missing.type_name, missing.field, missing.reason), ("Q", "b", FieldReason::Missing));
        assert_eq!(missing.to_string(), "Q: missing field `b`");
        let invalid = Q::from_json_detailed(&json!({ "a": -2, "b": "x" })).unwrap_err();
        assert_eq!((invalid.field, invalid.reason), ("a", FieldReason::Invalid));
        assert!(invalid.to_string().contains("field `a`"));
    }
}
