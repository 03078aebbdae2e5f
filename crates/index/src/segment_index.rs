//! Per-segment primary-key indexes (the "multi-rooted" trees).
//!
//! Under physiological partitioning "each segment keeps a primary-key index
//! for all records within it. [...] Moving a segment from one partition to
//! another does not invalidate the primary-key index of the segment" (§4.3).
//! A [`SegmentIndex`] is that per-segment tree: it travels with its segment,
//! so a move only updates the top indexes of the two partitions involved.
//!
//! **An entry says where in *this* segment a record is.** Every record a
//! segment's index points at lies in that segment, so the tree stores page
//! number and slot — 8 bytes — and the index supplies its own [`SegmentId`]
//! when an entry leaves as a [`RecordId`], the currency of every signature
//! here. A record of another segment handed in is a caller's bug and
//! panics; it is never re-addressed.

use wattdb_common::{Key, KeyRange, PageId, RecordId, SegmentId};

use crate::btree::BPlusTree;

/// A record's address inside the segment its index belongs to.
#[derive(Debug, Clone, Copy)]
struct Place {
    page_no: u32,
    slot: u16,
}

// One entry per indexed key: a field added here is paid for in every leaf
// of every segment.
const _: () = assert!(std::mem::size_of::<Place>() == 8);

impl Place {
    /// Where `rid` is in `segment`. Panics if it lies in another one.
    fn of(rid: RecordId, segment: SegmentId) -> Place {
        assert!(
            rid.page.segment == segment,
            "{rid} handed to the index of {segment}"
        );
        Place {
            page_no: rid.page.page_no,
            slot: rid.slot,
        }
    }

    /// The full address of this place in `segment`.
    fn rid(self, segment: SegmentId) -> RecordId {
        RecordId::new(PageId::new(segment, self.page_no), self.slot)
    }
}

/// Primary-key index over one segment's records.
#[derive(Debug, Clone)]
pub struct SegmentIndex {
    segment: SegmentId,
    /// Mini-partition bounds: every indexed key must fall inside.
    range: KeyRange,
    tree: BPlusTree<Place>,
}

impl SegmentIndex {
    /// Empty index for `segment` covering `range`.
    pub fn new(segment: SegmentId, range: KeyRange) -> Self {
        Self {
            segment,
            range,
            tree: BPlusTree::new(),
        }
    }

    /// The segment this index belongs to.
    pub fn segment(&self) -> SegmentId {
        self.segment
    }

    /// The key range this segment is responsible for.
    pub fn range(&self) -> KeyRange {
        self.range
    }

    /// Narrow/replace the covered range (segment split).
    pub fn set_range(&mut self, range: KeyRange) {
        debug_assert!(self.tree.iter().iter().all(|(k, _)| range.contains(*k)));
        self.range = range;
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Tree height (≙ node visits per lookup).
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Insert a key → record mapping. Panics if the key is outside the
    /// segment's range (router/top-index bug) or the record outside the
    /// segment.
    pub fn insert(&mut self, key: Key, rid: RecordId) -> Option<RecordId> {
        self.assert_covers(key);
        let previous = self.tree.insert(key, Place::of(rid, self.segment));
        previous.map(|p| p.rid(self.segment))
    }

    fn assert_covers(&self, key: Key) {
        assert!(
            self.range.contains(key),
            "{key} outside segment range {}",
            self.range
        );
    }

    /// Insert-or-replace in one descent ([`BPlusTree::upsert_with`]):
    /// `make` sees the record id `key` maps to now and returns the one to
    /// store; if it fails the index is untouched. Panics like
    /// [`SegmentIndex::insert`].
    pub fn upsert_with<E>(
        &mut self,
        key: Key,
        make: impl FnOnce(Option<RecordId>) -> Result<RecordId, E>,
    ) -> Result<Option<RecordId>, E> {
        self.assert_covers(key);
        let segment = self.segment;
        let previous = self.tree.upsert_with(key, |existing| {
            let rid = make(existing.map(|p| p.rid(segment)))?;
            Ok(Place::of(rid, segment))
        })?;
        Ok(previous.map(|p| p.rid(segment)))
    }

    /// Re-point a key that must already exist, in one descent: `to` sees
    /// the record id `key` maps to and returns the one to store, and the
    /// previous one comes back — `None`, `to` not called, when the key is
    /// not indexed. If `to` fails the entry is untouched. Panics like
    /// [`SegmentIndex::insert`] on a record outside the segment.
    pub fn repoint<E>(
        &mut self,
        key: Key,
        to: impl FnOnce(RecordId) -> Result<RecordId, E>,
    ) -> Result<Option<RecordId>, E> {
        let Some(entry) = self.tree.get_mut(key) else {
            return Ok(None);
        };
        let previous = entry.rid(self.segment);
        *entry = Place::of(to(previous)?, self.segment);
        Ok(Some(previous))
    }

    /// Point lookup; returns the record id and node visits (for costing).
    pub fn get(&self, key: Key) -> (Option<RecordId>, usize) {
        let (v, visits) = self.tree.get(key);
        (v.map(|p| p.rid(self.segment)), visits)
    }

    /// Remove a key.
    pub fn remove(&mut self, key: Key) -> Option<RecordId> {
        let removed = self.tree.remove(key);
        removed.map(|p| p.rid(self.segment))
    }

    /// Entries within `range` (ascending).
    pub fn range_scan(&self, range: KeyRange) -> Vec<(Key, RecordId)> {
        self.tree
            .range(range)
            .into_iter()
            .map(|(k, p)| (k, p.rid(self.segment)))
            .collect()
    }

    /// All entries (ascending).
    pub fn entries(&self) -> Vec<(Key, RecordId)> {
        self.range_scan(KeyRange::all())
    }

    /// Split helper for segment splits: entries at or above `mid`.
    pub fn entries_from(&self, mid: Key) -> Vec<(Key, RecordId)> {
        self.range_scan(KeyRange::new(mid, self.range.end))
    }

    /// Structural self-check (tests).
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
        for (k, _) in self.tree.iter() {
            assert!(self.range.contains(k), "{k} outside {}", self.range);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattdb_common::PageId;

    fn rid(n: u32) -> RecordId {
        RecordId::new(PageId::new(SegmentId(1), n), 0)
    }

    fn idx() -> SegmentIndex {
        SegmentIndex::new(SegmentId(1), KeyRange::new(Key(100), Key(200)))
    }

    #[test]
    fn insert_get_within_range() {
        let mut i = idx();
        i.insert(Key(150), rid(1));
        assert_eq!(i.get(Key(150)).0, Some(rid(1)));
        assert_eq!(i.get(Key(151)).0, None);
        assert_eq!(i.len(), 1);
    }

    #[test]
    #[should_panic(expected = "outside segment range")]
    fn insert_outside_range_panics() {
        let mut i = idx();
        i.insert(Key(500), rid(1));
    }

    #[test]
    fn range_scan_and_split_helper() {
        let mut i = idx();
        for k in (100..200).step_by(10) {
            i.insert(Key(k), rid(k as u32));
        }
        let hi = i.entries_from(Key(150));
        let keys: Vec<u64> = hi.iter().map(|(k, _)| k.raw()).collect();
        assert_eq!(keys, vec![150, 160, 170, 180, 190]);
        let window = i.range_scan(KeyRange::new(Key(120), Key(140)));
        assert_eq!(window.len(), 2);
    }

    #[test]
    fn set_range_narrows() {
        let mut i = idx();
        i.insert(Key(150), rid(1));
        i.set_range(KeyRange::new(Key(150), Key(200)));
        assert_eq!(i.range(), KeyRange::new(Key(150), Key(200)));
        i.check_invariants();
    }
}
