//! Machine state, described once.
//!
//! Every struct the machine snapshot reaches declares each of its fields
//! exactly once, with a *class*, in a [`state!`] listing. The listing
//! derives the three things that must agree about a field: the
//! model checker's clone, the state fingerprint, and both directions of the
//! snapshot codec (through [`lrc_json::json_struct!`]).
//!
//! | class      | clone   | fingerprint | meaning                                   |
//! |------------|---------|-------------|-------------------------------------------|
//! | `logical`  | copied  | folded      | decides future protocol behavior          |
//! | `timing`   | copied  | —           | cycles, resource clocks, LRU stamps, tie keys, sequence and progress counters |
//! | `stats`    | copied  | —           | counters, logs and diagnoses              |
//! | `config`   | copied  | —           | fixed when the machine is built           |
//! | `pool`     | fresh   | —           | reusable allocations, never state         |
//! | `observer` | copied  | —           | tracing, probes, classification           |
//! | `shard`    | fresh   | —           | one worker's view of a sharded run        |
//!
//! A field is part of the snapshot exactly when its entry names an
//! encoding (`class field: Encoding`, optionally `as "key"`); `pool`,
//! `observer` and `shard` fields never do. `logical(path)` folds with
//! `path(&self, hasher)` instead of the field's [`Fold`] impl, for
//! counters that matter only relative to a checker choice point. An
//! `in place` listing restores into a value built from configuration and
//! may also carry bare keys (`virtual "key": Encoding`) whose encoding
//! reads and writes the whole struct.
//!
//! Adding a field to a listed struct without listing it fails to compile:
//! the derived clone initializes every field by name.

use crate::directory::{DirEntry, NodeSet};
use crate::msg::Msg;
use crate::node::{Outstanding, ProcStatus};
use crate::sync::{BarrierManager, LockManager};
use lrc_mem::{Cache, CoalescingBuffer, WriteBuffer};
use lrc_sim::{Cycle, LineMap, Op, Protocol};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};

/// Fold a value's logical state into the checker fingerprint. Unordered
/// containers fold in ascending key order, so the fingerprint does not
/// depend on iteration order.
pub(crate) trait Fold {
    fn fold(&self, h: &mut DefaultHasher);
}

macro_rules! fold_by_hash {
    ($($t:ty),* $(,)?) => {
        $(impl Fold for $t {
            fn fold(&self, h: &mut DefaultHasher) {
                self.hash(h);
            }
        })*
    };
}
fold_by_hash!(bool, u32, u64, usize, Protocol, Op, Msg, ProcStatus, NodeSet, Outstanding, DirEntry);

impl<T: Fold> Fold for Vec<T> {
    fn fold(&self, h: &mut DefaultHasher) {
        self.len().hash(h);
        self.iter().for_each(|x| x.fold(h));
    }
}

impl<T: Fold> Fold for Option<T> {
    fn fold(&self, h: &mut DefaultHasher) {
        self.is_some().hash(h);
        if let Some(x) = self {
            x.fold(h);
        }
    }
}

impl<T: Fold> Fold for Box<T> {
    fn fold(&self, h: &mut DefaultHasher) {
        (**self).fold(h);
    }
}

impl<V: Fold> Fold for LineMap<V> {
    fn fold(&self, h: &mut DefaultHasher) {
        for (k, v) in self.iter() {
            k.hash(h);
            v.fold(h);
        }
    }
}

impl<K: Copy + Ord + Hash, V: Fold, S: BuildHasher> Fold for HashMap<K, V, S> {
    fn fold(&self, h: &mut DefaultHasher) {
        let mut e: Vec<(K, &V)> = self.iter().map(|(&k, v)| (k, v)).collect();
        e.sort_unstable_by_key(|&(k, _)| k);
        e.len().hash(h);
        for (k, v) in e {
            k.hash(h);
            v.fold(h);
        }
    }
}

impl<K: Copy + Ord + Hash, S: BuildHasher> Fold for HashSet<K, S> {
    fn fold(&self, h: &mut DefaultHasher) {
        let mut e: Vec<K> = self.iter().copied().collect();
        e.sort_unstable();
        e.hash(h);
    }
}

/// Requests parked at a home: the messages, not when they arrived.
impl Fold for VecDeque<(Msg, Cycle)> {
    fn fold(&self, h: &mut DefaultHasher) {
        self.iter().for_each(|(m, _)| m.hash(h));
    }
}

/// Resident lines by address (slot positions and LRU stamps are timing).
impl Fold for Cache {
    fn fold(&self, h: &mut DefaultHasher) {
        let mut lines: Vec<_> = self.iter().map(|l| (l.line.0, l.state, l.dirty_words)).collect();
        lines.sort_unstable_by_key(|&(l, ..)| l);
        lines.hash(h);
    }
}

/// Entries in FIFO order (which decides retirement order).
impl Fold for WriteBuffer {
    fn fold(&self, h: &mut DefaultHasher) {
        self.iter().for_each(|e| (e.line.0, e.words, e.ready, e.issued).hash(h));
    }
}

/// Buffered lines by address.
impl Fold for CoalescingBuffer {
    fn fold(&self, h: &mut DefaultHasher) {
        let mut cb: Vec<(u64, u64)> = self.iter().map(|e| (e.line.0, e.words)).collect();
        cb.sort_unstable();
        cb.hash(h);
    }
}

impl Fold for lrc_race::RaceDetector {
    fn fold(&self, h: &mut DefaultHasher) {
        self.hash_into(h);
    }
}

impl Fold for LockManager {
    fn fold(&self, h: &mut DefaultHasher) {
        self.snapshot().hash(h);
    }
}

impl Fold for BarrierManager {
    fn fold(&self, h: &mut DefaultHasher) {
        self.snapshot().hash(h);
    }
}

/// Declare a struct's fields with their classes (see the module docs) and
/// derive its fingerprint fold, its snapshot codec and, for `in place`
/// listings, its clone.
macro_rules! state {
    (in place $ty:ident { $($body:tt)* }) => {
        state!(@munch [$ty] [in place] [] [] $($body)*);
    };
    ($ty:ident { $($body:tt)* }) => {
        state!(@munch [$ty] [] [] [] $($body)*);
    };

    // One entry at a time: collect `(class fold field)` triples for the
    // clone and the fold, and the saved entries for the codec.
    (@munch [$ty:ident] [$($mode:tt)*] [$($f:tt)*] [$($json:tt)*]
        virtual $key:literal : $via:ty $(, $($rest:tt)*)?) => {
        state!(@munch [$ty] [$($mode)*] [$($f)*] [$($json)* $key: $via,] $($($rest)*)?);
    };
    (@munch [$ty:ident] [$($mode:tt)*] [$($f:tt)*] [$($json:tt)*]
        $class:ident $(($fold:path))? $field:ident $(as $key:literal)? : $via:ty
        $(, $($rest:tt)*)?) => {
        state!(@munch [$ty] [$($mode)*] [$($f)* ($class [$($fold)?] $field)]
            [$($json)* $field $(as $key)?: $via,] $($($rest)*)?);
    };
    (@munch [$ty:ident] [$($mode:tt)*] [$($f:tt)*] [$($json:tt)*]
        $class:ident $(($fold:path))? $field:ident $(, $($rest:tt)*)?) => {
        state!(@munch [$ty] [$($mode)*] [$($f)* ($class [$($fold)?] $field)] [$($json)*]
            $($($rest)*)?);
    };
    (@munch [$ty:ident] [in place] [$(($class:ident [$($fold:path)?] $field:ident))*]
        [$($json:tt)*]) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                $ty { $($field: state!(@clone $class self.$field),)* }
            }
        }
        state!(@emit [$ty] [in place] [$(($class [$($fold)?] $field))*] [$($json)*]);
    };
    (@munch [$ty:ident] [] $($rest:tt)*) => {
        state!(@emit [$ty] [] $($rest)*);
    };
    (@emit [$ty:ident] [$($mode:tt)*] [$(($class:ident [$($fold:path)?] $field:ident))*]
        [$($json:tt)*]) => {
        impl $crate::state::Fold for $ty {
            fn fold(&self, h: &mut std::collections::hash_map::DefaultHasher) {
                $(state!(@fold $class [$($fold)?] self h $field);)*
            }
        }
        lrc_json::json_struct!($ty $($mode)* { $($json)* });
    };

    (@clone pool $e:expr) => { Default::default() };
    (@clone shard $e:expr) => { Default::default() };
    (@clone logical $e:expr) => { $e.clone() };
    (@clone timing $e:expr) => { $e.clone() };
    (@clone stats $e:expr) => { $e.clone() };
    (@clone config $e:expr) => { $e.clone() };
    (@clone observer $e:expr) => { $e.clone() };

    (@fold logical [$fold:path] $s:ident $h:ident $field:ident) => { $fold($s, $h) };
    (@fold logical [] $s:ident $h:ident $field:ident) => {
        $crate::state::Fold::fold(&$s.$field, $h)
    };
    (@fold timing [] $($x:tt)*) => {};
    (@fold stats [] $($x:tt)*) => {};
    (@fold config [] $($x:tt)*) => {};
    (@fold pool [] $($x:tt)*) => {};
    (@fold observer [] $($x:tt)*) => {};
    (@fold shard [] $($x:tt)*) => {};
}
