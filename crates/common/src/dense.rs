//! An ordered map for ids the program mints from a counter.
//!
//! `SegmentId`, `PartitionId` and `TableId` start at a small number and go
//! up by one, so a map keyed by one of them is a vector with holes: a
//! lookup is an index, not a hash or a tree walk, and iteration is in
//! ascending id order for free. [`DenseMap`] is that vector, with the
//! subset of the `HashMap` / `BTreeMap` surface the engine's call sites
//! use. See [`crate::hash`] for when to use it and when an `IdMap`.
//!
//! **A stray id costs a probe, never memory proportional to its value.**
//! Only ids below [`DENSE_BOUND`] index the vector; anything at or above it
//! (a `SegmentId(u64::MAX)` marker, an arbitrary id in a property test)
//! lives in an ordered spill map behind it, so iteration stays ascending
//! and no vector is ever sized by an untrusted id. A `get` of an id that
//! was never inserted allocates nothing.

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;

/// Ids below this index the vector; ids at or above it spill to the
/// ordered map. Far above any segment count a deployment reaches (the
/// paper's 100 GB in 32 MB segments is 3 200), and small enough that the
/// slot vector of the widest value type stays in the low megabytes.
pub const DENSE_BOUND: usize = 1 << 16;

/// A program-minted id that can index a [`DenseMap`].
pub trait DenseKey: Copy {
    /// The id's number.
    fn slot(self) -> u64;
    /// The id with number `slot`.
    fn from_slot(slot: u64) -> Self;
}

macro_rules! dense_key {
    ($($name:ident: $inner:ty),*) => {$(
        impl DenseKey for crate::$name {
            #[inline]
            fn slot(self) -> u64 {
                u64::from(self.0)
            }
            #[inline]
            fn from_slot(slot: u64) -> Self {
                Self(slot as $inner)
            }
        }
    )*};
}

dense_key!(SegmentId: u64, PartitionId: u64, TableId: u32);

/// Map from a counter-minted id to `V`, iterated in ascending id order.
#[derive(Clone)]
pub struct DenseMap<K, V> {
    /// `slots[id]` for ids below [`DENSE_BOUND`]; grown on insert only.
    slots: Vec<Option<V>>,
    /// Occupied entries of `slots`.
    live: usize,
    /// Entries whose id is at or above [`DENSE_BOUND`].
    spill: BTreeMap<u64, V>,
    key: PhantomData<K>,
}

impl<K, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            live: 0,
            spill: BTreeMap::new(),
            key: PhantomData,
        }
    }
}

impl<K: DenseKey, V> DenseMap<K, V> {
    /// Empty map; allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live + self.spill.len()
    }

    /// True if no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots the vector has room for (never above [`DENSE_BOUND`]).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// The vector index of `key`, if it is a dense id.
    #[inline]
    fn dense(key: K) -> Option<usize> {
        let slot = key.slot();
        (slot < DENSE_BOUND as u64).then_some(slot as usize)
    }

    /// The value of `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        match Self::dense(*key) {
            Some(i) => self.slots.get(i)?.as_ref(),
            None => self.spill.get(&key.slot()),
        }
    }

    /// The value of `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match Self::dense(*key) {
            Some(i) => self.slots.get_mut(i)?.as_mut(),
            None => self.spill.get_mut(&key.slot()),
        }
    }

    /// Make `slots[i]` exist. Growth doubles like a `Vec`, but is reserved
    /// exactly so the capacity stops at [`DENSE_BOUND`].
    #[cold]
    fn grow_to(&mut self, i: usize) {
        if i >= self.slots.capacity() {
            let target = (i + 1).max(self.slots.capacity() * 2).min(DENSE_BOUND);
            self.slots.reserve_exact(target - self.slots.len());
        }
        self.slots.resize_with(i + 1, || None);
    }

    /// Set `key`'s value, returning the one it had.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match Self::dense(key) {
            Some(i) => {
                if i >= self.slots.len() {
                    self.grow_to(i);
                }
                let old = self.slots[i].replace(value);
                self.live += usize::from(old.is_none());
                old
            }
            None => self.spill.insert(key.slot(), value),
        }
    }

    /// The value of `key`, inserting `make()` first if it has none (the
    /// `entry(key).or_insert_with(make)` of the std maps).
    #[inline]
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        match Self::dense(key) {
            Some(i) => {
                if i >= self.slots.len() {
                    self.grow_to(i);
                }
                let slot = &mut self.slots[i];
                self.live += usize::from(slot.is_none());
                slot.get_or_insert_with(make)
            }
            None => self.spill.entry(key.slot()).or_insert_with(make),
        }
    }

    /// Remove `key`, returning its value. The vector keeps its length.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match Self::dense(*key) {
            Some(i) => {
                let old = self.slots.get_mut(i)?.take();
                self.live -= usize::from(old.is_some());
                old
            }
            None => self.spill.remove(&key.slot()),
        }
    }

    /// Entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        let dense = self.slots.iter().enumerate();
        dense
            .filter_map(|(i, v)| Some((K::from_slot(i as u64), v.as_ref()?)))
            .chain(self.spill.iter().map(|(&i, v)| (K::from_slot(i), v)))
    }

    /// Entries in ascending id order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> + '_ {
        let dense = self.slots.iter_mut().enumerate();
        dense
            .filter_map(|(i, v)| Some((K::from_slot(i as u64), v.as_mut()?)))
            .chain(self.spill.iter_mut().map(|(&i, v)| (K::from_slot(i), v)))
    }

    /// Values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().flatten().chain(self.spill.values())
    }

    /// Values in ascending id order, mutable.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        let dense = self.slots.iter_mut().flatten();
        dense.chain(self.spill.values_mut())
    }
}

impl<K: DenseKey, V> Index<&K> for DenseMap<K, V> {
    type Output = V;

    /// Panics if `key` has no value, like the std maps.
    #[inline]
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for id")
    }
}

impl<K: DenseKey + fmt::Debug, V: fmt::Debug> fmt::Debug for DenseMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: DenseKey, V> FromIterator<(K, V)> for DenseMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Self::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegmentId;

    #[test]
    fn stray_ids_cost_a_probe_not_a_vector() {
        let mut m: DenseMap<SegmentId, u32> = DenseMap::new();
        assert_eq!(m.get(&SegmentId(u64::MAX)), None);
        assert_eq!(m.get(&SegmentId(99)), None);
        assert_eq!(m.remove(&SegmentId(99)), None);
        assert_eq!(m.capacity(), 0, "a miss allocates nothing");
        m.insert(SegmentId(u64::MAX), 7);
        m.insert(SegmentId(DENSE_BOUND as u64), 6);
        assert_eq!(m.capacity(), 0, "ids at or above the bound spill");
        m.insert(SegmentId(3), 5);
        assert!(m.capacity() >= 4 && m.capacity() <= DENSE_BOUND);
        assert_eq!(m.len(), 3);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            vec![
                (SegmentId(3), &5),
                (SegmentId(DENSE_BOUND as u64), &6),
                (SegmentId(u64::MAX), &7)
            ]
        );
        assert_eq!(m[&SegmentId(u64::MAX)], 7);
    }

    #[test]
    fn live_count_follows_insert_replace_remove() {
        let mut m: DenseMap<SegmentId, &str> = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(SegmentId(2), "a"), None);
        assert_eq!(m.insert(SegmentId(2), "b"), Some("a"));
        *m.get_or_insert_with(SegmentId(5), || "c") = "d";
        assert_eq!(*m.get_or_insert_with(SegmentId(5), || "e"), "d");
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&SegmentId(2)), Some("b"));
        assert_eq!(m.remove(&SegmentId(2)), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec!["d"]);
    }
}
