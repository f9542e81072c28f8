//! Field encodings for [`json_struct!`](crate::json_struct) and
//! [`json_enum!`](crate::json_enum).
//!
//! A field's *encoding* is a type implementing [`Via<T>`] for the field's
//! type `T`: it renders the field and reads it back. Writing the encoding
//! once, next to the key, in a struct's listing is what keeps both
//! directions of a format in step. Encodings compose:
//! `Seq<(Dec, Idx)>` is an array of `[decimal-string u64, bounded index]`
//! pairs, `Opt<Dec>` a nullable decimal string.
//!
//! Decoding threads a [`Cx`] through every nested value so that index
//! fields ([`Idx`]) can be range-checked against a bound only the caller
//! knows (a snapshot's processor count).

use crate::{FromJson, ToJson, Value};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;

/// Decoding context: the exclusive upper bound [`Idx`] fields must respect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cx {
    /// Every [`Idx`] value must be below this.
    pub bound: usize,
}

impl Cx {
    /// No index bound.
    pub const UNBOUNDED: Cx = Cx { bound: usize::MAX };
}

/// How a value of type `T` travels as JSON.
pub trait Via<T> {
    /// Render `x`.
    fn enc(x: &T) -> Value;
    /// Read a fresh value back; `None` on a shape or domain mismatch.
    /// Encodings that only overlay an existing value ([`InPlace`],
    /// [`Fixed`], [`Armed`]) keep this default, which reads nothing.
    fn dec(v: &Value, cx: &Cx) -> Option<T> {
        let _ = (v, cx);
        None
    }
    /// Read into an existing value. The default replaces it with
    /// [`Via::dec`]; state built from configuration (see [`InPlace`])
    /// overlays the document onto what is already there instead.
    fn dec_into(v: &Value, cx: &Cx, into: &mut T) -> Option<()> {
        *into = Self::dec(v, cx)?;
        Some(())
    }
}

/// The type's own [`ToJson`]/[`FromJson`] form (the default encoding).
pub enum Plain {}

impl<T: ToJson + FromJson> Via<T> for Plain {
    fn enc(x: &T) -> Value {
        x.to_json()
    }
    fn dec(v: &Value, cx: &Cx) -> Option<T> {
        T::from_json_in(v, cx)
    }
}

/// A `u64` as a decimal string: exact at any magnitude, where a JSON
/// number (an `f64`) is exact only to 2^53.
pub enum Dec {}

impl Via<u64> for Dec {
    fn enc(x: &u64) -> Value {
        Value::Str(x.to_string())
    }
    fn dec(v: &Value, _: &Cx) -> Option<u64> {
        v.as_str()?.parse().ok()
    }
}

/// A `usize` index, numeric, checked below [`Cx::bound`] on decode.
pub enum Idx {}

impl Via<usize> for Idx {
    fn enc(x: &usize) -> Value {
        Value::Num(*x as f64)
    }
    fn dec(v: &Value, cx: &Cx) -> Option<usize> {
        let n = usize::try_from(v.as_u64()?).ok()?;
        (n < cx.bound).then_some(n)
    }
}

/// A sequence as an array of `E`-encoded items. Hash sets are written in
/// ascending order so equal sets serialize identically.
pub struct Seq<E>(PhantomData<E>);

impl<T, E: Via<T>> Via<Vec<T>> for Seq<E> {
    fn enc(x: &Vec<T>) -> Value {
        Value::Array(x.iter().map(E::enc).collect())
    }
    fn dec(v: &Value, cx: &Cx) -> Option<Vec<T>> {
        v.as_array()?.iter().map(|e| E::dec(e, cx)).collect()
    }
}

impl<T, E: Via<T>> Via<VecDeque<T>> for Seq<E> {
    fn enc(x: &VecDeque<T>) -> Value {
        Value::Array(x.iter().map(E::enc).collect())
    }
    fn dec(v: &Value, cx: &Cx) -> Option<VecDeque<T>> {
        v.as_array()?.iter().map(|e| E::dec(e, cx)).collect()
    }
}

impl<T, E: Via<T>, const N: usize> Via<[T; N]> for Seq<E> {
    fn enc(x: &[T; N]) -> Value {
        Value::Array(x.iter().map(E::enc).collect())
    }
    fn dec(v: &Value, cx: &Cx) -> Option<[T; N]> {
        <Seq<E> as Via<Vec<T>>>::dec(v, cx)?.try_into().ok()
    }
}

impl<T: Ord + Hash, S: BuildHasher + Default, E: Via<T>> Via<HashSet<T, S>> for Seq<E> {
    fn enc(x: &HashSet<T, S>) -> Value {
        let mut items: Vec<&T> = x.iter().collect();
        items.sort_unstable();
        Value::Array(items.into_iter().map(E::enc).collect())
    }
    fn dec(v: &Value, cx: &Cx) -> Option<HashSet<T, S>> {
        v.as_array()?.iter().map(|e| E::dec(e, cx)).collect()
    }
}

/// A sequence whose length the target already has (one entry per node,
/// say): decodes item by item into the existing items, and only when the
/// lengths agree.
pub struct Fixed<E>(PhantomData<E>);

impl<T, E: Via<T>> Via<Vec<T>> for Fixed<E> {
    fn enc(x: &Vec<T>) -> Value {
        <Seq<E> as Via<Vec<T>>>::enc(x)
    }
    fn dec_into(v: &Value, cx: &Cx, into: &mut Vec<T>) -> Option<()> {
        let items = v.as_array()?;
        if items.len() != into.len() {
            return None;
        }
        items.iter().zip(into.iter_mut()).try_for_each(|(e, x)| E::dec_into(e, cx, x))
    }
}

/// An `Option` as `null` or the `E`-encoded value.
pub struct Opt<E>(PhantomData<E>);

impl<T, E: Via<T>> Via<Option<T>> for Opt<E> {
    fn enc(x: &Option<T>) -> Value {
        x.as_ref().map_or(Value::Null, E::enc)
    }
    fn dec(v: &Value, cx: &Cx) -> Option<Option<T>> {
        if v.is_null() {
            Some(None)
        } else {
            E::dec(v, cx).map(Some)
        }
    }
}

/// A value absent from older documents: `null` (or a missing key)
/// decodes as `T::default()`.
pub struct OrDefault<E>(PhantomData<E>);

impl<T: Default, E: Via<T>> Via<T> for OrDefault<E> {
    fn enc(x: &T) -> Value {
        E::enc(x)
    }
    fn dec(v: &Value, cx: &Cx) -> Option<T> {
        if v.is_null() {
            Some(T::default())
        } else {
            E::dec(v, cx)
        }
    }
}

macro_rules! via_tuple {
    ($n:literal: $($t:ident $e:ident $i:tt),+) => {
        /// A tuple as a fixed-length array, one encoding per element.
        impl<$($t, $e: Via<$t>),+> Via<($($t,)+)> for ($($e,)+) {
            fn enc(x: &($($t,)+)) -> Value {
                Value::Array(vec![$($e::enc(&x.$i)),+])
            }
            fn dec(v: &Value, cx: &Cx) -> Option<($($t,)+)> {
                let a = v.as_array()?;
                if a.len() != $n {
                    return None;
                }
                Some(($($e::dec(&a[$i], cx)?,)+))
            }
        }
    };
}
via_tuple!(2: A EA 0, B EB 1);
via_tuple!(3: A EA 0, B EB 1, C EC 2);
via_tuple!(4: A EA 0, B EB 1, C EC 2, D ED 3);

/// Maps the codec can walk in ascending key order and rebuild.
pub trait Entries: Default {
    /// Key type.
    type K: Copy + Ord;
    /// Value type.
    type V;
    /// Every entry, in ascending key order.
    fn entries(&self) -> Vec<(Self::K, &Self::V)>;
    /// Insert; false when the key was already present.
    fn put(&mut self, k: Self::K, v: Self::V) -> bool;
}

impl<K: Copy + Ord + Hash, V, S: BuildHasher + Default> Entries for HashMap<K, V, S> {
    type K = K;
    type V = V;
    fn entries(&self) -> Vec<(K, &V)> {
        let mut e: Vec<(K, &V)> = self.iter().map(|(&k, v)| (k, v)).collect();
        e.sort_unstable_by_key(|&(k, _)| k);
        e
    }
    fn put(&mut self, k: K, v: V) -> bool {
        self.insert(k, v).is_none()
    }
}

impl<K: Copy + Ord, V> Entries for BTreeMap<K, V> {
    type K = K;
    type V = V;
    fn entries(&self) -> Vec<(K, &V)> {
        self.iter().map(|(&k, v)| (k, v)).collect()
    }
    fn put(&mut self, k: K, v: V) -> bool {
        self.insert(k, v).is_none()
    }
}

/// A map as an array of `[key, value]` pairs in ascending key order.
pub struct Pairs<EK, EV>(PhantomData<(EK, EV)>);

impl<M: Entries, EK: Via<M::K>, EV: Via<M::V>> Via<M> for Pairs<EK, EV> {
    fn enc(x: &M) -> Value {
        Value::Array(
            x.entries().into_iter().map(|(k, v)| Value::Array(vec![EK::enc(&k), EV::enc(v)])).collect(),
        )
    }
    fn dec(v: &Value, cx: &Cx) -> Option<M> {
        let mut m = M::default();
        for e in v.as_array()? {
            let (k, x) = <(EK, EV) as Via<(M::K, M::V)>>::dec(e, cx)?;
            m.put(k, x).then_some(())?;
        }
        Some(m)
    }
}

/// A map value that travels as an object row carrying its own key.
pub trait Row {
    /// The row member holding the map key.
    const KEY: &'static str;
}

/// A map as an array of object rows, ascending by key: each row is the
/// value's object with the key prepended under [`Row::KEY`].
pub struct Rows<EK>(PhantomData<EK>);

impl<M: Entries, EK: Via<M::K>> Via<M> for Rows<EK>
where
    M::V: ToJson + FromJson + Row,
{
    fn enc(x: &M) -> Value {
        let row = |(k, v): (M::K, &M::V)| {
            let mut fields = vec![(<M::V as Row>::KEY.to_string(), EK::enc(&k))];
            if let Value::Object(rest) = v.to_json() {
                fields.extend(rest);
            }
            Value::Object(fields)
        };
        Value::Array(x.entries().into_iter().map(row).collect())
    }
    fn dec(v: &Value, cx: &Cx) -> Option<M> {
        let mut m = M::default();
        for row in v.as_array()? {
            let k = EK::dec(row.get(<M::V as Row>::KEY)?, cx)?;
            m.put(k, M::V::from_json_in(row, cx)?).then_some(())?;
        }
        Some(m)
    }
}

/// State that is built from configuration first and then overlaid with a
/// document (caches sized by geometry, buffers with capacities, whole
/// machines). [`json_struct!`](crate::json_struct)'s `in place` form
/// implements it.
pub trait Overlay {
    /// Render the state.
    fn save(&self) -> Value;
    /// Overlay `v` onto `self`; `None` on a shape or domain mismatch.
    fn load(&mut self, v: &Value, cx: &Cx) -> Option<()>;
}

impl<T: Overlay> Overlay for Box<T> {
    fn save(&self) -> Value {
        (**self).save()
    }
    fn load(&mut self, v: &Value, cx: &Cx) -> Option<()> {
        (**self).load(v, cx)
    }
}

/// An [`Overlay`] field: decodes only into an existing value.
pub enum InPlace {}

impl<T: Overlay> Via<T> for InPlace {
    fn enc(x: &T) -> Value {
        x.save()
    }
    fn dec_into(v: &Value, cx: &Cx, into: &mut T) -> Option<()> {
        into.load(v, cx)
    }
}

/// Optional state whose presence configuration already decided: the
/// document must carry it (non-`null`) exactly when the target has it,
/// and it decodes into the existing value.
pub struct Armed<E>(PhantomData<E>);

impl<T, E: Via<T>> Via<Option<T>> for Armed<E> {
    fn enc(x: &Option<T>) -> Value {
        x.as_ref().map_or(Value::Null, E::enc)
    }
    fn dec_into(v: &Value, cx: &Cx, into: &mut Option<T>) -> Option<()> {
        match (v.is_null(), into) {
            (true, None) => Some(()),
            (false, Some(x)) => E::dec_into(v, cx, x),
            _ => None,
        }
    }
}

/// The member `key` of `v`, or `null` when absent (so optional sections
/// added by later format versions decode from older documents).
#[doc(hidden)]
pub fn member<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or(&Value::Null)
}
