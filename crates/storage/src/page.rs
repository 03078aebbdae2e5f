//! Slotted pages.
//!
//! A page is the unit of buffering and of data transfer between nodes (§4).
//! Records are stored in a classic slotted layout: a slot directory maps
//! stable slot numbers to byte extents in the page body; deletes leave holes
//! that compaction reclaims; updates relocate in place when they grow.
//!
//! **Logical vs. physical size.** The paper's experiments run against
//! ~200 GB of raw data; holding that many literal bytes in test memory is
//! pointless. Each record therefore carries a *logical width* (the schema's
//! row width, used for capacity, I/O, and network cost accounting) that may
//! exceed its *physical payload* (the compact bytes actually stored). A page
//! is "full" when logical bytes reach [`PAGE_SIZE`], so page counts, segment
//! counts, and movement volumes match a real deployment at the configured
//! scale while memory stays proportional to the compact payloads: a stored
//! version costs its physical bytes plus one 8-byte slot. On the
//! benchmark's `oltp-steady` that is 41 bytes (a 33-byte header — the
//! logical charge stays 47, see [`crate::record`] — and 8 of payload) and
//! 50 bytes of page memory per stored version: the 49 it needs, and the
//! room that pages still filling have not used yet.
//!
//! Two things keep it there. [`SlottedPage::sized_for`] allocates body and
//! slot directory once, at the size the page has when it is full of records
//! like its first — every table has one row width, so that is the size it
//! ends with — where a `Vec` doubling its way up would hold 5 248 bytes
//! for the 3 075 of a full 75-record page. And a slot's fields are as wide as the
//! values they can hold. A page whose records turn out different (or that
//! is updated in place, which appends) grows past the reservation like any
//! `Vec`.

use std::ops::Range;

use wattdb_common::{Error, Result};

/// Logical page size in bytes (8 KiB, 4096 pages per 32 MiB segment).
pub const PAGE_SIZE: usize = 8192;

/// Per-slot bookkeeping overhead counted against logical capacity.
pub const SLOT_OVERHEAD: usize = 8;

/// One entry of the slot directory: the byte extent of a record in `data`
/// and its logical width. `len <= logical <= PAGE_SIZE - SLOT_OVERHEAD`
/// fit 16 bits; the offset does not, because every `update` appends to the
/// body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    offset: u32,
    len: u16,
    logical: u16,
}

// One slot per stored version: a field added here is paid for hundreds of
// thousands of times.
const _: () = assert!(std::mem::size_of::<Slot>() == 8);
// No live record can have the logical width that marks a dead slot.
const _: () = assert!(PAGE_SIZE < Slot::DEAD.logical as usize);

impl Slot {
    /// Tombstone: slot number retired until an insert reuses it or
    /// compaction drops it.
    const DEAD: Slot = Slot {
        offset: 0,
        len: 0,
        logical: u16::MAX,
    };

    /// A live slot; the page has checked `len <= logical` and that
    /// `logical` fits it.
    fn live(offset: usize, len: usize, logical: usize) -> Slot {
        Slot {
            offset: u32::try_from(offset).expect("page body below 4 GiB"),
            len: u16::try_from(len).expect("record length within its logical width"),
            logical: u16::try_from(logical).expect("logical width within the page"),
        }
    }

    fn is_live(&self) -> bool {
        self.logical != Slot::DEAD.logical
    }

    /// Byte extent of the record in the page body.
    fn extent(&self) -> Range<usize> {
        let start = self.offset as usize;
        start..start + self.len as usize
    }
}

/// An in-memory slotted page: body, slot directory and space accounting,
/// nothing else. It has no recovery LSN, because nothing replays the log
/// (the failure story is replication, not restart), and no dirty bit,
/// because write-back reads the buffer pool's per-frame one
/// (`BufferPool::{touch, mark_clean, dirty_pages}`).
#[derive(Debug, Clone)]
pub struct SlottedPage {
    data: Vec<u8>,
    slots: Vec<Slot>,
    /// Logical bytes consumed (records + slot overhead).
    logical_used: usize,
    /// Physical bytes wasted by dead records (reclaimable by compaction).
    dead_bytes: usize,
    /// Dead slots in the directory: an insert only hunts for a slot number
    /// to reuse when there is one.
    dead_slots: usize,
}

// One per page of every segment: the store holds about 11 k of them on the
// benchmark's `oltp-steady`.
const _: () = assert!(std::mem::size_of::<SlottedPage>() == 72);

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

impl SlottedPage {
    /// An empty page.
    pub fn new() -> Self {
        Self {
            data: Vec::new(),
            slots: Vec::new(),
            logical_used: 0,
            dead_bytes: 0,
            dead_slots: 0,
        }
    }

    /// An empty page whose body and slot directory are allocated now, at
    /// exactly the size they have once the page is full of records of
    /// `logical` width stored in `physical` bytes. It behaves like
    /// [`SlottedPage::new`] in everything but when it allocates.
    pub fn sized_for(logical: usize, physical: usize) -> Self {
        let records = PAGE_SIZE / (logical + SLOT_OVERHEAD);
        Self {
            // `physical <= logical` for every record a page accepts.
            data: Vec::with_capacity((records * physical).min(PAGE_SIZE)),
            slots: Vec::with_capacity(records),
            ..Self::new()
        }
    }

    /// Remaining logical capacity in bytes.
    pub fn free_logical(&self) -> usize {
        PAGE_SIZE - self.logical_used
    }

    /// Logical bytes in use (records + slot overhead).
    pub fn logical_used(&self) -> usize {
        self.logical_used
    }

    /// Number of live records.
    pub fn live_records(&self) -> usize {
        self.slots.len() - self.dead_slots
    }

    /// True if `logical` more bytes fit.
    pub fn fits(&self, logical: usize) -> bool {
        logical + SLOT_OVERHEAD <= self.free_logical()
    }

    /// Insert a record with the given physical `payload` and `logical`
    /// width; returns the slot number. Fails with [`Error::PageFull`]-shaped
    /// `None`-free error when logical capacity is exhausted (the caller maps
    /// it to its page id).
    pub fn insert(&mut self, payload: &[u8], logical: usize) -> Result<u16> {
        self.insert_with(logical, |body| body.extend_from_slice(payload))
    }

    /// [`SlottedPage::insert`] for a record produced in place: `write`
    /// appends the physical bytes to the page body (nothing is written when
    /// the page is full).
    pub fn insert_with(&mut self, logical: usize, write: impl FnOnce(&mut Vec<u8>)) -> Result<u16> {
        if !self.fits(logical) {
            // The caller knows the page id; signal with a placeholder id.
            return Err(Error::InvalidState("page full"));
        }
        let offset = self.data.len();
        write(&mut self.data);
        let len = self.data.len() - offset;
        assert!(
            logical >= len,
            "logical width {logical} below physical payload {len}"
        );
        let slot = Slot::live(offset, len, logical);
        self.logical_used += logical + SLOT_OVERHEAD;
        // Reuse the lowest tombstone slot number if there is one.
        if self.dead_slots > 0 {
            let i = self.slots.iter().position(|s| !s.is_live());
            let i = i.expect("dead-slot count matches the directory");
            self.slots[i] = slot;
            self.dead_slots -= 1;
            return Ok(i as u16);
        }
        self.slots.push(slot);
        Ok((self.slots.len() - 1) as u16)
    }

    fn live_slot(&self, slot: u16) -> Option<Slot> {
        self.slots.get(slot as usize).copied().filter(Slot::is_live)
    }

    /// Read the physical payload of `slot`.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        Some(&self.data[self.live_slot(slot)?.extent()])
    }

    /// Mutable view of the physical payload of `slot`, for patches that
    /// keep its length.
    pub fn get_mut(&mut self, slot: u16) -> Option<&mut [u8]> {
        let extent = self.live_slot(slot)?.extent();
        Some(&mut self.data[extent])
    }

    /// Logical width of the record in `slot`.
    pub fn logical_width(&self, slot: u16) -> Option<usize> {
        Some(self.live_slot(slot)?.logical as usize)
    }

    /// Delete the record in `slot`, leaving a tombstone.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        let Some(s) = self.live_slot(slot) else {
            return Err(Error::InvalidState("delete of dead or missing slot"));
        };
        self.dead_bytes += s.len as usize;
        self.logical_used -= s.logical as usize + SLOT_OVERHEAD;
        self.slots[slot as usize] = Slot::DEAD;
        self.dead_slots += 1;
        Ok(())
    }

    /// Replace the record in `slot`. The logical width may change; fails,
    /// leaving the page untouched, if growth exceeds capacity or `payload`
    /// is longer than `logical`.
    pub fn update(&mut self, slot: u16, payload: &[u8], logical: usize) -> Result<()> {
        let Some(old) = self.live_slot(slot) else {
            return Err(Error::InvalidState("update of dead or missing slot"));
        };
        if payload.len() > logical {
            return Err(Error::InvalidState("payload exceeds logical width"));
        }
        let new_used = self.logical_used - old.logical as usize + logical;
        if new_used > PAGE_SIZE {
            return Err(Error::InvalidState("page full"));
        }
        // Append the new image; old bytes become dead space.
        let new = Slot::live(self.data.len(), payload.len(), logical);
        self.data.extend_from_slice(payload);
        self.dead_bytes += old.len as usize;
        self.slots[slot as usize] = new;
        self.logical_used = new_used;
        Ok(())
    }

    /// Physical bytes reclaimable by compaction.
    pub fn dead_bytes(&self) -> usize {
        self.dead_bytes
    }

    /// Rewrite the page body, dropping dead bytes and trailing tombstone
    /// slots. Live slot numbers are preserved (required: record ids embed
    /// them).
    pub fn compact(&mut self) {
        let mut data = Vec::with_capacity(self.data.len() - self.dead_bytes);
        for s in self.slots.iter_mut().filter(|s| s.is_live()) {
            let extent = s.extent();
            s.offset = u32::try_from(data.len()).expect("no larger than the offset it replaces");
            data.extend_from_slice(&self.data[extent]);
        }
        self.data = data;
        self.dead_bytes = 0;
        while self.slots.last().is_some_and(|s| !s.is_live()) {
            self.slots.pop();
            self.dead_slots -= 1;
        }
    }

    /// Iterate `(slot, payload)` over live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_live())
            .map(|(i, s)| (i as u16, &self.data[s.extent()]))
    }

    /// Physical bytes held by the page body (memory footprint measure).
    pub fn physical_bytes(&self) -> usize {
        self.data.len()
    }

    /// Room allocated for the page, as (body bytes, slots): what the page
    /// costs in memory whatever it holds. A page sized at creation for
    /// the records it then gets keeps both for life.
    pub fn capacity(&self) -> (usize, usize) {
        (self.data.capacity(), self.slots.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = SlottedPage::new();
        let s0 = p.insert(b"hello", 100).unwrap();
        let s1 = p.insert(b"world!", 200).unwrap();
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world!"[..]));
        assert_eq!(p.logical_width(s0), Some(100));
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn logical_capacity_binds() {
        let mut p = SlottedPage::new();
        // 4 records of logical 2000 (+8 overhead) fit; the 5th does not.
        for _ in 0..4 {
            p.insert(b"x", 2000).unwrap();
        }
        assert!(!p.fits(2000));
        assert!(p.insert(b"x", 2000).is_err());
        // But a small record still fits.
        assert!(p.fits(100));
        p.insert(b"y", 100).unwrap();
    }

    #[test]
    fn delete_frees_logical_space_and_reuses_slots() {
        let mut p = SlottedPage::new();
        let s0 = p.insert(b"aaaa", 4000).unwrap();
        let _s1 = p.insert(b"bbbb", 4000).unwrap();
        assert!(!p.fits(4000));
        p.delete(s0).unwrap();
        assert!(p.fits(4000));
        assert_eq!(p.get(s0), None);
        let s2 = p.insert(b"cccc", 4000).unwrap();
        assert_eq!(s2, s0, "tombstone slot number is reused");
        assert_eq!(p.get(s2), Some(&b"cccc"[..]));
    }

    #[test]
    fn double_delete_rejected() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"a", 10).unwrap();
        p.delete(s).unwrap();
        assert!(p.delete(s).is_err());
        assert!(p.delete(99).is_err());
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"short", 100).unwrap();
        p.update(s, b"a considerably longer payload", 150).unwrap();
        assert_eq!(p.get(s), Some(&b"a considerably longer payload"[..]));
        assert_eq!(p.logical_width(s), Some(150));
        // Growth beyond capacity is rejected and leaves the record intact.
        assert!(p.update(s, b"x", PAGE_SIZE).is_err());
        assert_eq!(p.get(s), Some(&b"a considerably longer payload"[..]));
    }

    #[test]
    fn update_longer_than_its_logical_width_is_refused() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"four", 8).unwrap();
        let (used, bytes) = (p.logical_used(), p.physical_bytes());
        assert!(matches!(
            p.update(s, b"nine byte", 8),
            Err(Error::InvalidState(_))
        ));
        assert_eq!(p.get(s), Some(&b"four"[..]));
        assert_eq!(p.logical_width(s), Some(8));
        assert_eq!((p.logical_used(), p.physical_bytes()), (used, bytes));
        assert_eq!(p.dead_bytes(), 0);
        p.update(s, b"eight by", 8).unwrap();
    }

    #[test]
    fn compaction_preserves_live_records_and_slots() {
        let mut p = SlottedPage::new();
        let mut live = Vec::new();
        for i in 0..20u32 {
            let payload = i.to_le_bytes();
            let s = p.insert(&payload, 64).unwrap();
            live.push((s, payload));
        }
        // Delete every other record.
        for (s, _) in live.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        let dead_before = p.dead_bytes();
        assert!(dead_before > 0);
        p.compact();
        assert_eq!(p.dead_bytes(), 0);
        for (i, (s, payload)) in live.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(p.get(*s), None);
            } else {
                assert_eq!(p.get(*s), Some(&payload[..]));
            }
        }
    }

    #[test]
    fn update_then_compact_keeps_latest_image() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"v1", 32).unwrap();
        p.update(s, b"v2", 32).unwrap();
        p.compact();
        assert_eq!(p.get(s), Some(&b"v2"[..]));
        assert_eq!(p.physical_bytes(), 2);
    }

    #[test]
    fn iter_yields_live_only() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"a", 16).unwrap();
        let b = p.insert(b"b", 16).unwrap();
        let c = p.insert(b"c", 16).unwrap();
        p.delete(b).unwrap();
        let got: Vec<(u16, Vec<u8>)> = p.iter().map(|(s, d)| (s, d.to_vec())).collect();
        assert_eq!(got, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }
}
