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
//! scale while memory stays proportional to the compact payloads.

use wattdb_common::{Error, Lsn, Result};

/// Logical page size in bytes (8 KiB, 4096 pages per 32 MiB segment).
pub const PAGE_SIZE: usize = 8192;

/// Per-slot bookkeeping overhead counted against logical capacity.
pub const SLOT_OVERHEAD: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Live record: byte extent in `data` plus its logical width.
    Live { offset: u32, len: u32, logical: u32 },
    /// Tombstone: slot number retired until compaction.
    Dead,
}

/// An in-memory slotted page.
#[derive(Debug, Clone)]
pub struct SlottedPage {
    data: Vec<u8>,
    slots: Vec<Slot>,
    /// Logical bytes consumed (records + slot overhead).
    logical_used: usize,
    /// Physical bytes wasted by dead records (reclaimable by compaction).
    dead_bytes: usize,
    /// Slots currently `Dead`: an insert only hunts for a slot number to
    /// reuse when there is one.
    dead_slots: usize,
    /// Recovery LSN of the latest change.
    page_lsn: Lsn,
    dirty: bool,
}

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
            page_lsn: Lsn::ZERO,
            dirty: false,
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
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Live { .. }))
            .count()
    }

    /// True if `logical` more bytes fit.
    pub fn fits(&self, logical: usize) -> bool {
        logical + SLOT_OVERHEAD <= self.free_logical()
    }

    /// Recovery LSN of the last change to this page.
    pub fn lsn(&self) -> Lsn {
        self.page_lsn
    }

    /// Set the recovery LSN (called by the WAL layer after logging).
    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.page_lsn = lsn;
    }

    /// Whether the page has unflushed changes.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Mark flushed.
    pub fn mark_clean(&mut self) {
        self.dirty = false;
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
        let slot = Slot::Live {
            offset: offset as u32,
            len: len as u32,
            logical: logical as u32,
        };
        self.logical_used += logical + SLOT_OVERHEAD;
        self.dirty = true;
        // Reuse the lowest tombstone slot number if there is one.
        if self.dead_slots > 0 {
            let i = self.slots.iter().position(|s| *s == Slot::Dead);
            let i = i.expect("dead-slot count matches the directory");
            self.slots[i] = slot;
            self.dead_slots -= 1;
            return Ok(i as u16);
        }
        self.slots.push(slot);
        Ok((self.slots.len() - 1) as u16)
    }

    /// Read the physical payload of `slot`.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        match self.slots.get(slot as usize)? {
            Slot::Live { offset, len, .. } => {
                Some(&self.data[*offset as usize..(*offset + *len) as usize])
            }
            Slot::Dead => None,
        }
    }

    /// Mutable view of the physical payload of `slot`, for patches that
    /// keep its length; marks the page dirty.
    pub fn get_mut(&mut self, slot: u16) -> Option<&mut [u8]> {
        match self.slots.get(slot as usize)? {
            Slot::Live { offset, len, .. } => {
                self.dirty = true;
                Some(&mut self.data[*offset as usize..(*offset + *len) as usize])
            }
            Slot::Dead => None,
        }
    }

    /// Logical width of the record in `slot`.
    pub fn logical_width(&self, slot: u16) -> Option<usize> {
        match self.slots.get(slot as usize)? {
            Slot::Live { logical, .. } => Some(*logical as usize),
            Slot::Dead => None,
        }
    }

    /// Delete the record in `slot`, leaving a tombstone.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        match self.slots.get_mut(slot as usize) {
            Some(s @ Slot::Live { .. }) => {
                if let Slot::Live { len, logical, .. } = *s {
                    self.dead_bytes += len as usize;
                    self.logical_used -= logical as usize + SLOT_OVERHEAD;
                }
                *s = Slot::Dead;
                self.dead_slots += 1;
                self.dirty = true;
                Ok(())
            }
            _ => Err(Error::InvalidState("delete of dead or missing slot")),
        }
    }

    /// Replace the record in `slot`. The logical width may change; fails if
    /// growth exceeds capacity.
    pub fn update(&mut self, slot: u16, payload: &[u8], logical: usize) -> Result<()> {
        let (old_len, old_logical) = match self.slots.get(slot as usize) {
            Some(Slot::Live {
                len, logical: lw, ..
            }) => (*len as usize, *lw as usize),
            _ => return Err(Error::InvalidState("update of dead or missing slot")),
        };
        let new_used = self.logical_used - old_logical + logical;
        if new_used > PAGE_SIZE {
            return Err(Error::InvalidState("page full"));
        }
        // Append the new image; old bytes become dead space.
        let offset = self.data.len() as u32;
        self.data.extend_from_slice(payload);
        self.dead_bytes += old_len;
        self.slots[slot as usize] = Slot::Live {
            offset,
            len: payload.len() as u32,
            logical: logical as u32,
        };
        self.logical_used = new_used;
        self.dirty = true;
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
        for s in &mut self.slots {
            if let Slot::Live { offset, len, .. } = s {
                let start = *offset as usize;
                let end = start + *len as usize;
                *offset = data.len() as u32;
                data.extend_from_slice(&self.data[start..end]);
            }
        }
        self.data = data;
        self.dead_bytes = 0;
        while matches!(self.slots.last(), Some(Slot::Dead)) {
            self.slots.pop();
            self.dead_slots -= 1;
        }
        self.dirty = true;
    }

    /// Iterate `(slot, payload)` over live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Live { offset, len, .. } => Some((
                i as u16,
                &self.data[*offset as usize..(*offset + *len) as usize],
            )),
            Slot::Dead => None,
        })
    }

    /// Physical bytes held by the page body (memory footprint measure).
    pub fn physical_bytes(&self) -> usize {
        self.data.len()
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
        assert!(p.is_dirty());
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

    #[test]
    fn lsn_tracking() {
        let mut p = SlottedPage::new();
        assert_eq!(p.lsn(), Lsn::ZERO);
        p.set_lsn(Lsn(42));
        assert_eq!(p.lsn(), Lsn(42));
        p.mark_clean();
        assert!(!p.is_dirty());
        p.insert(b"x", 8).unwrap();
        assert!(p.is_dirty());
    }
}
