//! Primary keys and half-open key ranges.
//!
//! WattDB partitions tables horizontally by primary-key ranges (§4). A `Key`
//! is a 64-bit composite: the TPC-C layer packs (table-specific) component
//! fields into it, and partitioning logic treats it as an opaque ordered
//! integer. `KeyRange` is half-open `[start, end)` so ranges tile a key space
//! without overlap.

use std::fmt;

/// A 64-bit primary key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub u64);

impl Key {
    /// Smallest possible key.
    pub const MIN: Key = Key(0);
    /// Largest possible key.
    pub const MAX: Key = Key(u64::MAX);

    /// Raw value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for Key {
    fn from(v: u64) -> Self {
        Key(v)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A half-open key range `[start, end)`.
///
/// The full key space is `KeyRange::all()`. An empty range has
/// `start >= end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyRange {
    /// Inclusive lower bound.
    pub start: Key,
    /// Exclusive upper bound.
    pub end: Key,
}

impl KeyRange {
    /// The range covering the entire key space `[0, u64::MAX)`.
    ///
    /// `u64::MAX` itself is reserved as an unreachable sentinel so the
    /// half-open representation can cover "everything".
    pub fn all() -> Self {
        KeyRange {
            start: Key::MIN,
            end: Key::MAX,
        }
    }

    /// Construct `[start, end)`.
    pub fn new(start: Key, end: Key) -> Self {
        KeyRange { start, end }
    }

    /// True if the range contains no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// True if `key` falls inside the range.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        key >= self.start && key < self.end
    }

    /// True if the two ranges share at least one key.
    #[inline]
    pub fn overlaps(&self, other: &KeyRange) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// True if `other` is fully contained in `self`.
    #[inline]
    pub fn covers(&self, other: &KeyRange) -> bool {
        other.is_empty() || (other.start >= self.start && other.end <= self.end)
    }

    /// Split at `mid`, returning `([start, mid), [mid, end))`.
    ///
    /// Returns `None` if `mid` is outside `(start, end)`; splitting at a
    /// boundary would produce an empty half.
    pub fn split_at(&self, mid: Key) -> Option<(KeyRange, KeyRange)> {
        if mid > self.start && mid < self.end {
            Some((KeyRange::new(self.start, mid), KeyRange::new(mid, self.end)))
        } else {
            None
        }
    }

    /// The intersection of two ranges (possibly empty).
    pub fn intersect(&self, other: &KeyRange) -> KeyRange {
        KeyRange {
            start: self.start.max(other.start),
            end: self.end.min(other.end),
        }
    }
}

impl fmt::Display for KeyRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start.0, self.end.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_bounds() {
        let r = KeyRange::new(Key(10), Key(20));
        assert!(r.contains(Key(10)));
        assert!(r.contains(Key(19)));
        assert!(!r.contains(Key(20)));
        assert!(!r.contains(Key(9)));
        assert!(!r.is_empty());
        assert!(KeyRange::new(Key(5), Key(5)).is_empty());
    }

    #[test]
    fn overlap_rules() {
        let a = KeyRange::new(Key(0), Key(10));
        let b = KeyRange::new(Key(10), Key(20));
        let c = KeyRange::new(Key(5), Key(15));
        assert!(!a.overlaps(&b), "adjacent half-open ranges do not overlap");
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        let empty = KeyRange::new(Key(3), Key(3));
        assert!(!a.overlaps(&empty));
    }

    #[test]
    fn split() {
        let r = KeyRange::new(Key(0), Key(100));
        let (l, h) = r.split_at(Key(40)).unwrap();
        assert_eq!(l, KeyRange::new(Key(0), Key(40)));
        assert_eq!(h, KeyRange::new(Key(40), Key(100)));
        assert!(r.split_at(Key(0)).is_none());
        assert!(r.split_at(Key(100)).is_none());
        assert!(r.split_at(Key(200)).is_none());
    }

    #[test]
    fn covers_and_intersect() {
        let outer = KeyRange::new(Key(0), Key(100));
        let inner = KeyRange::new(Key(30), Key(60));
        assert!(outer.covers(&inner));
        assert!(!inner.covers(&outer));
        assert_eq!(outer.intersect(&inner), inner);
        let left = KeyRange::new(Key(0), Key(40));
        assert_eq!(left.intersect(&inner), KeyRange::new(Key(30), Key(40)));
    }
}
