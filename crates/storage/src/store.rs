//! The page store: authoritative owner of all page data.
//!
//! In a real shared-nothing deployment each node's disks hold their own
//! pages; in this execution-driven simulation the page *contents* live in
//! one process-wide store keyed by segment, while *placement* (which node
//! and disk a segment belongs to, and which pages are buffered where) is
//! tracked by the metadata and buffer layers, which also charge the
//! corresponding virtual-time costs. Shared-nothing semantics are enforced
//! by the engine: a node only touches segments it owns, and any remote page
//! access is routed through the (costed) network layer.
//!
//! Segment ids are minted by the catalog's counter, so the store is a
//! [`DenseMap`]: resolving a record id is two vector indexes (segment,
//! page) and a slot lookup, with no hashing anywhere on the way. The
//! stamping calls resolve their record once — [`PageStore::restamp_begin`]
//! and [`PageStore::restamp_end`] read the timestamp they may replace from
//! the same bytes they then patch, and [`PageStore::unlink_prev`] cuts a
//! version chain by overwriting the one pointer. The store is also where a
//! version's segment-local `prev` (see [`crate::record`]) meets the full
//! [`RecordId`]s every caller speaks: each encode and decode is handed the
//! segment of the page it touches.
//!
//! A page is born in one place, the insert every version goes through,
//! which knows the first version it will hold: the page's one heap block,
//! body and slot directory, is allocated there, once, for a page full of
//! versions of that width ([`SlottedPage::sized_for`]). Every TPC-C table
//! has one row width, so on the benchmark's `oltp-steady` 99 % of all
//! pages never regrow their block (the rest mix rows with the narrower
//! tombstones of deleted ones, and regrow it in one call). The
//! transaction layer writes header-only versions
//! ([`PageStore::insert_version`]); [`PageStore::insert_record`] still
//! stores a payload (see [`crate::record`]), on a page of its own length.

use wattdb_common::{DenseMap, Error, PageId, RecordId, Result, SegmentId};

use crate::page::{SlottedPage, PAGE_SIZE, SLOT_OVERHEAD};
use crate::record::{Record, RecordHeader};

/// Process-wide page data, keyed by segment.
#[derive(Debug, Default)]
pub struct PageStore {
    segments: DenseMap<SegmentId, Vec<SlottedPage>>,
}

impl PageStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a segment with zero pages.
    pub fn add_segment(&mut self, id: SegmentId) {
        self.segments.get_or_insert_with(id, Vec::new);
    }

    /// Number of pages allocated in `segment`.
    pub fn page_count(&self, segment: SegmentId) -> usize {
        self.segments.get(&segment).map_or(0, |p| p.len())
    }

    /// Immutable page access.
    pub fn page(&self, id: PageId) -> Result<&SlottedPage> {
        self.segments
            .get(&id.segment)
            .and_then(|p| p.get(id.page_no as usize))
            .ok_or(Error::UnknownSegment(id.segment))
    }

    /// Mutable page access.
    pub fn page_mut(&mut self, id: PageId) -> Result<&mut SlottedPage> {
        self.segments
            .get_mut(&id.segment)
            .and_then(|p| p.get_mut(id.page_no as usize))
            .ok_or(Error::UnknownSegment(id.segment))
    }

    /// Insert a record into `segment`, payload and all, on the last page
    /// that [takes](SlottedPage::takes) it, else the first one that does,
    /// else a new page (up to `max_pages`). Returns the record's address
    /// and whether a page was allocated.
    pub fn insert_record(
        &mut self,
        segment: SegmentId,
        record: &Record,
        max_pages: u32,
    ) -> Result<(RecordId, bool)> {
        let bytes = record.encode(segment);
        self.insert_bytes(segment, &bytes, record.logical_footprint(), max_pages)
    }

    /// [`PageStore::insert_record`] for a header-only version, the kind
    /// the transaction layer writes; nothing is allocated but, maybe, the
    /// page.
    pub fn insert_version(
        &mut self,
        segment: SegmentId,
        header: &RecordHeader,
        max_pages: u32,
    ) -> Result<(RecordId, bool)> {
        let bytes = header.encode(segment);
        self.insert_bytes(segment, &bytes, header.logical_footprint(), max_pages)
    }

    fn insert_bytes(
        &mut self,
        segment: SegmentId,
        bytes: &[u8],
        logical: usize,
        max_pages: u32,
    ) -> Result<(RecordId, bool)> {
        assert!(
            logical + SLOT_OVERHEAD <= PAGE_SIZE,
            "record logical width exceeds page size"
        );
        let len = bytes.len();
        let pages = self
            .segments
            .get_mut(&segment)
            .ok_or(Error::UnknownSegment(segment))?;
        // Fast path: last page has room (append workloads). Otherwise scan
        // earlier pages for a hole (records freed by moves/GC).
        let takes = |p: &SlottedPage| p.takes(len, logical);
        let last = pages.len().saturating_sub(1);
        let with_room = if pages.last().is_some_and(takes) {
            Some(last)
        } else {
            pages.iter().position(takes)
        };
        let allocated = with_room.is_none();
        let page_no = match with_room {
            Some(i) => i,
            None if pages.len() as u32 >= max_pages => {
                return Err(Error::InvalidState("segment full"));
            }
            None => {
                // The one place a page is born: sized for a page full of
                // versions like this one, the table's one row width.
                pages.push(SlottedPage::sized_for(logical, len));
                pages.len() - 1
            }
        };
        let slot = pages[page_no].insert(bytes, logical)?;
        let rid = RecordId::new(PageId::new(segment, page_no as u32), slot);
        Ok((rid, allocated))
    }

    /// Decode the record stored at `rid` into an owned copy.
    pub fn read_record(&self, rid: RecordId) -> Result<Record> {
        Record::decode(self.stored(rid)?, rid.page.segment)
    }

    /// Header of the version at `rid`, read without touching its payload.
    #[inline]
    pub fn peek(&self, rid: RecordId) -> Result<RecordHeader> {
        Ok(self.peek_payload(rid)?.0)
    }

    /// Header of the version at `rid` and its payload, borrowed from the
    /// page.
    #[inline]
    pub fn peek_payload(&self, rid: RecordId) -> Result<(RecordHeader, &[u8])> {
        Record::peek(self.stored(rid)?, rid.page.segment)
    }

    #[inline]
    fn stored(&self, rid: RecordId) -> Result<&[u8]> {
        self.page(rid.page)?
            .get(rid.slot)
            .ok_or(Error::RecordNotFound(rid))
    }

    /// Overwrite the header-only version at `rid` in place with `header`
    /// (the locking mode's in-place update, and the undo that puts the
    /// prior header back). A version with a payload is of another length
    /// and is refused.
    pub fn write_header(&mut self, rid: RecordId, header: &RecordHeader) -> Result<()> {
        let bytes = header.encode(rid.page.segment);
        let page = self.page_mut(rid.page)?;
        if page.get(rid.slot).is_none() {
            return Err(Error::RecordNotFound(rid));
        }
        page.update(rid.slot, &bytes, header.logical_footprint())
    }

    /// Set the `begin` timestamp of the version at `rid` in place (commit
    /// stamping: the rest of the version does not change).
    pub fn stamp_begin(&mut self, rid: RecordId, ts: u64) -> Result<()> {
        Record::stamp_begin(self.stored_mut(rid)?, ts)
    }

    /// Set the `end` timestamp of the version at `rid` in place (the
    /// version was superseded, or a superseder committed or rolled back).
    pub fn stamp_end(&mut self, rid: RecordId, ts: u64) -> Result<()> {
        Record::stamp_end(self.stored_mut(rid)?, ts)
    }

    /// Clear the `prev` pointer of the version at `rid` in place (vacuum
    /// cut the chain below it).
    pub fn unlink_prev(&mut self, rid: RecordId) -> Result<()> {
        Record::unlink_prev(self.stored_mut(rid)?)
    }

    /// [`PageStore::stamp_begin`] if `when` holds of the `begin` timestamp
    /// the version has now (commit stamping replaces a provisional mark and
    /// nothing else). The version is resolved once for the look and the
    /// patch; a page nothing is stamped on is not dirtied.
    pub fn restamp_begin(
        &mut self,
        rid: RecordId,
        ts: u64,
        when: impl FnOnce(u64) -> bool,
    ) -> Result<()> {
        self.restamp(rid, ts, when, Record::begin_of, Record::stamp_begin)
    }

    /// [`PageStore::restamp_begin`] for the `end` timestamp.
    pub fn restamp_end(
        &mut self,
        rid: RecordId,
        ts: u64,
        when: impl FnOnce(u64) -> bool,
    ) -> Result<()> {
        self.restamp(rid, ts, when, Record::end_of, Record::stamp_end)
    }

    fn restamp(
        &mut self,
        rid: RecordId,
        ts: u64,
        when: impl FnOnce(u64) -> bool,
        read: fn(&[u8]) -> Result<u64>,
        stamp: fn(&mut [u8], u64) -> Result<()>,
    ) -> Result<()> {
        let page = self.page_mut(rid.page)?;
        let stored = page.get(rid.slot).ok_or(Error::RecordNotFound(rid))?;
        if when(read(stored)?) {
            stamp(page.get_mut(rid.slot).expect("slot is live"), ts)?;
        }
        Ok(())
    }

    fn stored_mut(&mut self, rid: RecordId) -> Result<&mut [u8]> {
        self.page_mut(rid.page)?
            .get_mut(rid.slot)
            .ok_or(Error::RecordNotFound(rid))
    }

    /// Remove the record at `rid`.
    pub fn delete_record(&mut self, rid: RecordId) -> Result<()> {
        let page = self.page_mut(rid.page)?;
        if page.get(rid.slot).is_none() {
            return Err(Error::RecordNotFound(rid));
        }
        page.delete(rid.slot)
    }

    /// Total logical bytes of live data in a segment.
    pub fn logical_bytes(&self, segment: SegmentId) -> Result<u64> {
        let pages = self
            .segments
            .get(&segment)
            .ok_or(Error::UnknownSegment(segment))?;
        Ok(pages.iter().map(|p| p.logical_used() as u64).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RECORD_HEADER_PHYSICAL;
    use wattdb_common::Key;

    /// A version as the transaction layer stores it: header only.
    fn rec(key: u64, width: u32) -> Record {
        Record::new(Key(key), 1, width, Vec::new())
    }

    #[test]
    fn insert_and_read_back() {
        let mut store = PageStore::new();
        let seg = SegmentId(1);
        store.add_segment(seg);
        let (rid, allocated) = store.insert_record(seg, &rec(7, 100), 16).unwrap();
        assert!(allocated, "first insert allocates a page");
        let r = store.read_record(rid).unwrap();
        assert_eq!(r.key, Key(7));
        assert_eq!(store.page_count(seg), 1);
    }

    #[test]
    fn pages_fill_then_allocate() {
        let mut store = PageStore::new();
        let seg = SegmentId(1);
        store.add_segment(seg);
        // Logical footprint 2046 + 47 header + 8 slot = 2101 → 3 per page.
        let mut allocations = 0;
        for i in 0..30 {
            let (_, alloc) = store.insert_record(seg, &rec(i, 2046), 64).unwrap();
            allocations += alloc as usize;
        }
        assert_eq!(store.page_count(seg), allocations);
        assert!(
            allocations >= 8,
            "expected several pages, got {allocations}"
        );
    }

    #[test]
    fn segment_capacity_enforced() {
        let mut store = PageStore::new();
        let seg = SegmentId(1);
        store.add_segment(seg);
        let r = rec(1, 4000); // ~2 per page
        let mut inserted = 0;
        while store.insert_record(seg, &r, 2).is_ok() {
            inserted += 1;
        }
        assert_eq!(store.page_count(seg), 2);
        assert_eq!(inserted, 4);
    }

    #[test]
    fn update_and_delete() {
        let mut store = PageStore::new();
        let seg = SegmentId(1);
        store.add_segment(seg);
        let (rid, _) = store.insert_record(seg, &rec(5, 64), 4).unwrap();
        let mut r = store.read_record(rid).unwrap();
        r.end = 99;
        r.logical_width = 80;
        store.write_header(rid, &r.header()).unwrap();
        assert_eq!(store.read_record(rid).unwrap(), r);
        assert_eq!(store.logical_bytes(seg).unwrap(), 80 + 47 + 8);
        // A version with a payload is not rewritten as a header alone.
        let with_payload = Record::new(Key(6), 1, 64, vec![1; 8]);
        let (other, _) = store.insert_record(seg, &with_payload, 4).unwrap();
        assert!(store.write_header(other, &with_payload.header()).is_err());
        assert_eq!(store.read_record(other).unwrap(), with_payload);
        store.delete_record(rid).unwrap();
        assert!(store.read_record(rid).is_err());
        assert!(store.delete_record(rid).is_err());
    }

    #[test]
    fn stamping_in_place_equals_decode_modify_encode() {
        let seg = SegmentId(1);
        let prev = RecordId::new(PageId::new(seg, 3), 7);
        let mut chained = rec(5, 64);
        chained.prev = Some(prev);
        let mut tombstone = Record::tombstone(Key(6), 1 << 63 | 42);
        tombstone.prev = Some(prev);
        for original in [rec(4, 64), chained, tombstone] {
            // Two stores with the same record: one stamped in place, one
            // through a decoded copy whose header is written back.
            let mut patched = PageStore::new();
            let mut rewritten = PageStore::new();
            patched.add_segment(seg);
            rewritten.add_segment(seg);
            let (rid, _) = patched.insert_record(seg, &original, 4).unwrap();
            rewritten.insert_record(seg, &original, 4).unwrap();
            let used = patched.logical_bytes(seg).unwrap();

            patched.stamp_begin(rid, 77).unwrap();
            patched.stamp_end(rid, 1 << 63 | 9).unwrap();
            let mut copy = rewritten.read_record(rid).unwrap();
            copy.begin = 77;
            copy.end = 1 << 63 | 9;
            rewritten.write_header(rid, &copy.header()).unwrap();

            assert_eq!(patched.read_record(rid).unwrap(), copy);
            assert_eq!(rewritten.read_record(rid).unwrap(), copy);
            assert_eq!(patched.peek(rid).unwrap(), copy.header());
            assert_eq!(patched.logical_bytes(seg).unwrap(), used);
            assert_eq!(patched.page(rid.page), rewritten.page(rid.page));

            // Cutting the chain in place: the same version without `prev`,
            // in the bytes it already had.
            patched.unlink_prev(rid).unwrap();
            copy.prev = None;
            let page = patched.page(rid.page).unwrap();
            assert_eq!(page.get(rid.slot).unwrap(), &copy.encode(seg)[..]);
            assert_eq!(page.physical_bytes(), RECORD_HEADER_PHYSICAL);
        }
        // A dead slot has nothing to stamp.
        let mut store = PageStore::new();
        store.add_segment(seg);
        let (rid, _) = store.insert_record(seg, &rec(1, 64), 4).unwrap();
        store.delete_record(rid).unwrap();
        assert!(store.stamp_end(rid, 5).is_err());
        assert!(store.unlink_prev(rid).is_err());
        assert!(store.peek(rid).is_err());
        assert!(store.write_header(rid, &rec(1, 64).header()).is_err());
    }

    #[test]
    fn versions_of_another_length_go_to_a_page_of_their_own() {
        let mut store = PageStore::new();
        let seg = SegmentId(1);
        store.add_segment(seg);
        let header = RecordHeader::new(Key(1), 1, 64);
        let (bare, _) = store.insert_version(seg, &header, 4).unwrap();
        let payload = Record::new(Key(2), 1, 64, vec![2; 8]);
        let (with_payload, allocated) = store.insert_record(seg, &payload, 4).unwrap();
        assert!(allocated, "page 0 holds header-only versions");
        assert_eq!((bare.page.page_no, with_payload.page.page_no), (0, 1));
        let (next, _) = store.insert_version(seg, &header, 4).unwrap();
        assert_eq!(next.page.page_no, 0);
        let stored = store.page(bare.page).unwrap().get(bare.slot).unwrap();
        assert_eq!(stored.len(), RECORD_HEADER_PHYSICAL);
        assert_eq!(
            store.read_record(bare).unwrap(),
            header.with_payload(Vec::new())
        );
        assert_eq!(store.read_record(with_payload).unwrap(), payload);
        let page = |n| store.page(PageId::new(seg, n)).unwrap().physical_bytes();
        assert_eq!((page(0), page(1)), (2 * RECORD_HEADER_PHYSICAL, 41));
    }

    #[test]
    fn slot_reuse_after_delete() {
        let mut store = PageStore::new();
        let seg = SegmentId(1);
        store.add_segment(seg);
        let (rid, _) = store.insert_record(seg, &rec(1, 3000), 4).unwrap();
        store.delete_record(rid).unwrap();
        // New insert lands in the freed space of page 0, not a new page.
        let (rid2, alloc) = store.insert_record(seg, &rec(2, 3000), 4).unwrap();
        assert!(!alloc);
        assert_eq!(rid2.page.page_no, 0);
    }

    #[test]
    fn logical_bytes_accounting() {
        let mut store = PageStore::new();
        let seg = SegmentId(1);
        store.add_segment(seg);
        store.insert_record(seg, &rec(1, 100), 4).unwrap();
        let lb = store.logical_bytes(seg).unwrap();
        // 100 logical + header + slot overhead.
        assert!(lb > 100 && lb < 250, "{lb}");
    }
}
