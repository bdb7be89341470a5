//! Hash index from an equi-join or GROUP BY key to a slot.

use std::collections::hash_map::{Entry, HashMap};

use crate::table::Row;
use crate::value::Value;

/// Hash index from a key of one or more [`Value`]s to a `V`.
///
/// A one-column key is stored and probed as a bare [`Value`], so a probe
/// allocates nothing and an insert boxes nothing; wider keys are whole
/// [`Row`]s. Both forms use `HashMap`'s keyed default hasher and
/// [`Value`]'s equality (`1 = 1.0`, `-0.0 = 0.0`, `NaN = NaN`,
/// `NULL = NULL`), so they match and group exactly alike.
pub(crate) enum KeyMap<V> {
    /// One key column.
    Single(HashMap<Value, V>),
    /// Any other key width.
    Multi(HashMap<Row, V>),
}

impl<V> KeyMap<V> {
    /// An empty index for keys of `width` columns.
    pub(crate) fn new(width: usize, capacity: usize) -> Self {
        if width == 1 {
            KeyMap::Single(HashMap::with_capacity(capacity))
        } else {
            KeyMap::Multi(HashMap::with_capacity(capacity))
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        match self {
            KeyMap::Single(map) => map.len(),
            KeyMap::Multi(map) => map.len(),
        }
    }

    /// The slot of `key`, whose width must be the index's.
    #[inline]
    pub(crate) fn get(&self, key: &[Value]) -> Option<&V> {
        match self {
            KeyMap::Single(map) => map.get(&key[0]),
            KeyMap::Multi(map) => map.get(key),
        }
    }

    /// The slot of `key`, created by `make` when absent; the flag is
    /// `true` when it was.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: &[Value],
        make: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        fn slot<K, V>(entry: Entry<'_, K, V>, make: impl FnOnce() -> V) -> (&mut V, bool) {
            match entry {
                Entry::Occupied(e) => (e.into_mut(), false),
                Entry::Vacant(e) => (e.insert(make()), true),
            }
        }
        match self {
            KeyMap::Single(map) => slot(map.entry(key[0].clone()), make),
            KeyMap::Multi(map) => slot(map.entry(key.into()), make),
        }
    }
}
