//! Slotted pages.
//!
//! A page is the unit of buffering and of data transfer between nodes (§4).
//! Each page holds records of **one length**: the first record fixes the
//! stride, slot `i` lives at body offset `i × stride`, and the slot
//! directory is one 16-bit logical width per slot, so the address of a
//! record is arithmetic and reading it does not wait on the directory. Slot
//! numbers are stable (record ids embed them): a delete retires one, the
//! next insert reuses the lowest retired one, and both that insert and an
//! update overwrite the slot in place. A record of another length is
//! refused and leaves the page untouched. One length is all the engine
//! needs: every version it stores is a header and nothing else
//! ([`crate::record`]).
//!
//! **Logical vs. physical size.** The paper's experiments run against
//! ~200 GB of raw data. Each record carries a *logical width* (the schema's
//! row width, used for capacity, I/O and network cost accounting) that may
//! exceed its physical bytes. A page is "full" when logical bytes reach
//! [`PAGE_SIZE`], so page counts, segment counts and movement volumes match
//! a real deployment at the configured scale while memory stays
//! proportional to the physical bytes: a stored version costs its 33-byte
//! header plus a 2-byte width.
//!
//! **A page is one heap block**: the body, then the slot directory. Each
//! part has its own room, and each grows as a vector of its own would (so
//! a page's [`capacity`](SlottedPage::capacity) is what the two vectors a
//! page used to be would have), but a growth of either part, or of both
//! at once, is one reallocation. [`SlottedPage::sized_for`] allocates the
//! block once, at the size body and directory have when the page is full
//! of records like its first — every table has one row width, so that is
//! the size it ends with.

use std::ops::Range;

use wattdb_common::{Error, Result};

/// Logical page size in bytes (8 KiB, 4096 pages per 32 MiB segment).
pub const PAGE_SIZE: usize = 8192;

/// Per-slot bookkeeping overhead counted against logical capacity.
pub const SLOT_OVERHEAD: usize = 8;

/// One entry of the slot directory: the logical width of the slot's record,
/// or [`DEAD`]. A live width is at most `PAGE_SIZE - SLOT_OVERHEAD`.
type Width = u16;

/// Width of a retired slot number.
const DEAD: Width = Width::MAX;

// One entry per stored version: a byte added here is paid for hundreds of
// thousands of times.
const _: () = assert!(std::mem::size_of::<Width>() == 2);
// No live record can have the logical width that marks a dead slot.
const _: () = assert!(PAGE_SIZE < DEAD as usize);

/// An in-memory slotted page: body, slot directory and space accounting,
/// nothing else. It has no recovery LSN, because nothing replays the log
/// (the failure story is replication, not restart), and no dirty bit,
/// because write-back reads the buffer pool's per-frame one
/// (`BufferPool::{touch, mark_clean, dirty_pages}`). Two pages are equal
/// when their bytes are, dead slots' included, whatever room they have.
#[derive(Debug, Clone)]
pub struct SlottedPage {
    /// The body — `body_room` bytes, slot `i` at `i * stride`, a dead
    /// slot's bytes kept until an insert reuses it — then the directory:
    /// the logical width per slot, little-endian, [`DEAD`] for a retired
    /// slot number.
    block: Box<[u8]>,
    /// Bytes of `block` that belong to the body; the rest is directory.
    body_room: u16,
    /// Slots in the directory, live and dead.
    slots: u16,
    /// Length of every record on the page, fixed by the first one (and
    /// meaningless while the directory is empty).
    stride: u16,
    /// Logical bytes consumed (records + slot overhead), at most
    /// [`PAGE_SIZE`].
    logical_used: u16,
    /// Dead slots in the directory: an insert only hunts for a slot number
    /// to reuse when there is one.
    dead_slots: u16,
}

// One per page of every segment: the store holds about 11 k of them on the
// benchmark's `oltp-steady`.
const _: () = assert!(std::mem::size_of::<SlottedPage>() == 32);

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for SlottedPage {
    fn eq(&self, other: &Self) -> bool {
        (
            self.body(),
            self.directory(),
            self.stride,
            self.logical_used,
        ) == (
            other.body(),
            other.directory(),
            other.stride,
            other.logical_used,
        )
    }
}

impl Eq for SlottedPage {}

/// `n` as a field of the page; every caller has checked it against
/// [`PAGE_SIZE`].
fn narrow(n: usize) -> u16 {
    u16::try_from(n).expect("within a page")
}

/// The room a vector of `room` elements, holding `len`, has once `extra`
/// more are pushed onto it: unchanged while they fit, else what `Vec`'s
/// amortised growth gives — at least double, and at least `min` (8 bytes,
/// or 4 elements of 2 bytes).
fn grown(room: usize, len: usize, extra: usize, min: usize) -> usize {
    if len + extra <= room {
        room
    } else {
        (2 * room).max(len + extra).max(min)
    }
}

/// A zeroed block of `bytes`: one heap call, none for an empty one.
fn block(bytes: usize) -> Box<[u8]> {
    vec![0; bytes].into_boxed_slice()
}

impl SlottedPage {
    /// An empty page.
    pub fn new() -> Self {
        Self {
            block: Box::default(),
            body_room: 0,
            slots: 0,
            stride: 0,
            logical_used: 0,
            dead_slots: 0,
        }
    }

    /// An empty page whose block is allocated now, at exactly the size
    /// body and directory have once the page is full of records of
    /// `logical` width stored in `physical` bytes. It behaves like
    /// [`SlottedPage::new`] in everything but when it allocates.
    pub fn sized_for(logical: usize, physical: usize) -> Self {
        let records = PAGE_SIZE / (logical + SLOT_OVERHEAD);
        // `physical <= logical` for every record a page accepts.
        let body = (records * physical).min(PAGE_SIZE);
        Self {
            block: block(body + records * size_of::<Width>()),
            body_room: narrow(body),
            ..Self::new()
        }
    }

    /// The body's live bytes, dead slots' included.
    fn body(&self) -> &[u8] {
        &self.block[..self.physical_bytes()]
    }

    /// The directory's slots, as bytes.
    fn directory(&self) -> &[u8] {
        let start = usize::from(self.body_room);
        &self.block[start..start + usize::from(self.slots) * size_of::<Width>()]
    }

    /// Slots the directory has room for.
    fn slot_room(&self) -> usize {
        (self.block.len() - usize::from(self.body_room)) / size_of::<Width>()
    }

    /// The directory entry of `slot`, if the directory has one.
    #[inline]
    fn width(&self, slot: u16) -> Option<Width> {
        if slot >= self.slots {
            return None;
        }
        let at = usize::from(self.body_room) + usize::from(slot) * size_of::<Width>();
        Some(Width::from_le_bytes(*self.block.get(at..)?.first_chunk()?))
    }

    fn set_width(&mut self, slot: u16, width: Width) {
        let at = usize::from(self.body_room) + usize::from(slot) * size_of::<Width>();
        self.block[at..at + size_of::<Width>()].copy_from_slice(&width.to_le_bytes());
    }

    /// Make room for one more slot holding `len` bytes: body and directory
    /// each grow as their own vector would, in one reallocation.
    fn reserve_slot(&mut self, len: usize) {
        let (body, slots) = (self.physical_bytes(), usize::from(self.slots));
        let body_room = grown(self.body_room.into(), body, len, 8);
        let slot_room = grown(self.slot_room(), slots, 1, 4);
        if (body_room, slot_room) == self.capacity() {
            return;
        }
        let mut block = block(body_room + slot_room * size_of::<Width>());
        block[..body].copy_from_slice(self.body());
        block[body_room..][..slots * size_of::<Width>()].copy_from_slice(self.directory());
        self.block = block;
        self.body_room = narrow(body_room);
    }

    /// Logical bytes in use (records + slot overhead).
    pub fn logical_used(&self) -> usize {
        self.logical_used.into()
    }

    /// Number of live records.
    pub fn live_records(&self) -> usize {
        usize::from(self.slots - self.dead_slots)
    }

    /// True if `logical` more bytes fit.
    pub fn fits(&self, logical: usize) -> bool {
        self.logical_used() + logical + SLOT_OVERHEAD <= PAGE_SIZE
    }

    /// The length of every record on the page, once its first record has
    /// fixed it.
    pub fn record_len(&self) -> Option<usize> {
        (self.slots > 0).then_some(self.stride.into())
    }

    /// True if a record of `len` bytes and `logical` width would be
    /// inserted: it [fits](SlottedPage::fits) and has the page's length.
    pub fn takes(&self, len: usize, logical: usize) -> bool {
        self.fits(logical) && self.record_len().is_none_or(|l| l == len)
    }

    /// Insert a record of `logical` width; returns the slot number. Fails,
    /// leaving the page untouched, when logical capacity is exhausted (the
    /// caller maps that to its page id), when the record is longer than
    /// `logical`, or when its length is not the page's.
    pub fn insert(&mut self, record: &[u8], logical: usize) -> Result<u16> {
        if !self.fits(logical) {
            // The caller knows the page id; signal with a placeholder id.
            return Err(Error::InvalidState("page full"));
        }
        let len = record.len();
        self.check_len(len, logical)?;
        let slot = if self.dead_slots > 0 {
            // Reuse the lowest dead slot number, in place.
            let dead = (0..self.slots).find(|&s| self.width(s) == Some(DEAD));
            self.dead_slots -= 1;
            dead.expect("dead-slot count matches the directory")
        } else {
            self.reserve_slot(len);
            self.slots += 1;
            self.slots - 1
        };
        let start = usize::from(slot) * len;
        self.block[start..start + len].copy_from_slice(record);
        self.set_width(slot, narrow(logical));
        self.stride = narrow(len);
        self.logical_used += narrow(logical + SLOT_OVERHEAD);
        Ok(slot)
    }

    /// A record of `len` bytes fits its `logical` width and the page.
    fn check_len(&self, len: usize, logical: usize) -> Result<()> {
        if len > logical {
            return Err(Error::InvalidState("record longer than its logical width"));
        }
        if self.record_len().is_some_and(|l| l != len) {
            return Err(Error::InvalidState("record length differs from the page's"));
        }
        Ok(())
    }

    /// Byte extent of the record in a live `slot`: the address is
    /// arithmetic, only liveness reads the directory.
    #[inline]
    fn extent(&self, slot: u16) -> Option<Range<usize>> {
        let stride = usize::from(self.stride);
        let start = usize::from(slot) * stride;
        let live = self.width(slot).is_some_and(|w| w != DEAD);
        live.then_some(start..start + stride)
    }

    /// Read the physical bytes of `slot`.
    #[inline]
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        Some(&self.block[self.extent(slot)?])
    }

    /// Mutable view of the physical bytes of `slot`, for patches that keep
    /// its length.
    pub fn get_mut(&mut self, slot: u16) -> Option<&mut [u8]> {
        let extent = self.extent(slot)?;
        Some(&mut self.block[extent])
    }

    /// Logical width of the record in `slot`.
    pub fn logical_width(&self, slot: u16) -> Option<usize> {
        let w = self.width(slot)?;
        (w != DEAD).then_some(w.into())
    }

    /// Delete the record in `slot`, retiring its slot number.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        let Some(logical) = self.logical_width(slot) else {
            return Err(Error::InvalidState("delete of dead or missing slot"));
        };
        self.logical_used -= narrow(logical + SLOT_OVERHEAD);
        self.set_width(slot, DEAD);
        self.dead_slots += 1;
        Ok(())
    }

    /// Replace the record in `slot` in place. The logical width may change,
    /// the length may not; fails, leaving the page untouched, if growth
    /// exceeds capacity, `record` is longer than `logical`, or its length is
    /// not the page's.
    pub fn update(&mut self, slot: u16, record: &[u8], logical: usize) -> Result<()> {
        let Some(old) = self.logical_width(slot) else {
            return Err(Error::InvalidState("update of dead or missing slot"));
        };
        self.check_len(record.len(), logical)?;
        let new_used = self.logical_used() - old + logical;
        if new_used > PAGE_SIZE {
            return Err(Error::InvalidState("page full"));
        }
        self.get_mut(slot)
            .expect("slot is live")
            .copy_from_slice(record);
        self.set_width(slot, narrow(logical));
        self.logical_used = narrow(new_used);
        Ok(())
    }

    /// Iterate `(slot, bytes)` over live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slots).filter_map(|i| Some((i, self.get(i)?)))
    }

    /// Physical bytes held by the page body, dead slots' included.
    pub fn physical_bytes(&self) -> usize {
        usize::from(self.slots) * usize::from(self.stride)
    }

    /// Room allocated for the page, as (body bytes, slots): what the page
    /// costs in memory whatever it holds. A page sized at creation for
    /// the records it then gets keeps both for life.
    pub fn capacity(&self) -> (usize, usize) {
        (self.body_room.into(), self.slot_room())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = SlottedPage::new();
        let s0 = p.insert(b"hello", 100).unwrap();
        let s1 = p.insert(b"world", 200).unwrap();
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world"[..]));
        assert_eq!(p.logical_width(s0), Some(100));
        assert_eq!(p.logical_width(s1), Some(200));
        assert_eq!(p.live_records(), 2);
        assert_eq!(p.record_len(), Some(5));
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
        assert_eq!(p.physical_bytes(), 8, "overwritten in place");
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
        p.update(s, b"later", 150).unwrap();
        assert_eq!(p.get(s), Some(&b"later"[..]));
        assert_eq!(p.logical_width(s), Some(150));
        assert_eq!(p.physical_bytes(), 5, "no second image");
        // Growth beyond capacity is rejected and leaves the record intact.
        assert!(p.update(s, b"xxxxx", PAGE_SIZE).is_err());
        assert_eq!(p.get(s), Some(&b"later"[..]));
    }

    #[test]
    fn update_longer_than_its_logical_width_is_refused() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"four", 8).unwrap();
        let (used, bytes) = (p.logical_used(), p.physical_bytes());
        assert!(matches!(
            p.update(s, b"four", 3),
            Err(Error::InvalidState(_))
        ));
        assert_eq!(p.get(s), Some(&b"four"[..]));
        assert_eq!(p.logical_width(s), Some(8));
        assert_eq!((p.logical_used(), p.physical_bytes()), (used, bytes));
        p.update(s, b"FOUR", 4).unwrap();
    }

    #[test]
    fn a_record_of_another_length_is_refused() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"four", 64).unwrap();
        assert!(p.takes(4, 64) && !p.takes(5, 64));
        assert!(matches!(
            p.insert(b"five!", 64),
            Err(Error::InvalidState(_))
        ));
        assert!(matches!(
            p.update(s, b"six!!!", 64),
            Err(Error::InvalidState(_))
        ));
        assert_eq!(p.get(s), Some(&b"four"[..]));
        assert_eq!((p.live_records(), p.physical_bytes()), (1, 4));
        // A page emptied by deletes keeps its length.
        p.delete(s).unwrap();
        assert_eq!(p.record_len(), Some(4));
        assert!(p.insert(b"five!", 64).is_err());
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
