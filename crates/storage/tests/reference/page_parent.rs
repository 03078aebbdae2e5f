//! The slotted page as it was before it became one heap block: a body
//! vector and a slot-directory vector, each growing on its own. Cut down
//! to what `prop_page` drives. Test-only reference: the page in
//! `src/page.rs` must hold the same bytes under the same slot numbers,
//! account the same logical use and report the same `capacity()` after
//! every operation, because a page's room is what the store's memory is
//! made of.

use std::ops::Range;

use wattdb_common::{Error, Result};
use wattdb_storage::page::{PAGE_SIZE, SLOT_OVERHEAD};

/// One entry of the slot directory: the logical width of the slot's record,
/// or [`DEAD`]. A live width is at most `PAGE_SIZE - SLOT_OVERHEAD`.
type Width = u16;

/// Width of a retired slot number.
const DEAD: Width = Width::MAX;

/// An in-memory slotted page: body, slot directory and space accounting,
/// nothing else. It has no recovery LSN, because nothing replays the log
/// (the failure story is replication, not restart), and no dirty bit,
/// because write-back reads the buffer pool's per-frame one
/// (`BufferPool::{touch, mark_clean, dirty_pages}`). Two pages are equal
/// when their bytes are, dead slots' included.
#[derive(Debug)]
pub struct SlottedPage {
    /// Record bytes, slot `i` at `i * stride`; a dead slot's bytes stay
    /// until an insert reuses it.
    data: Vec<u8>,
    /// Logical width per slot, [`DEAD`] for a retired slot number.
    widths: Vec<Width>,
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

/// `n` as a field of the page; every caller has checked it against
/// [`PAGE_SIZE`].
fn narrow(n: usize) -> u16 {
    u16::try_from(n).expect("within a page")
}

impl SlottedPage {
    /// An empty page.
    pub fn new() -> Self {
        Self {
            data: Vec::new(),
            widths: Vec::new(),
            stride: 0,
            logical_used: 0,
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
            widths: Vec::with_capacity(records),
            ..Self::new()
        }
    }

    /// Logical bytes in use (records + slot overhead).
    pub fn logical_used(&self) -> usize {
        self.logical_used.into()
    }

    /// Number of live records.
    pub fn live_records(&self) -> usize {
        self.widths.len() - usize::from(self.dead_slots)
    }

    /// True if `logical` more bytes fit.
    pub fn fits(&self, logical: usize) -> bool {
        self.logical_used() + logical + SLOT_OVERHEAD <= PAGE_SIZE
    }

    /// The length of every record on the page, once its first record has
    /// fixed it.
    pub fn record_len(&self) -> Option<usize> {
        (!self.widths.is_empty()).then_some(self.stride.into())
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
            let dead = self.widths.iter().position(|&w| w == DEAD);
            let slot = dead.expect("dead-slot count matches the directory");
            self.data[slot * len..][..len].copy_from_slice(record);
            self.widths[slot] = narrow(logical);
            self.dead_slots -= 1;
            slot
        } else {
            self.data.extend_from_slice(record);
            self.widths.push(narrow(logical));
            self.widths.len() - 1
        };
        self.stride = narrow(len);
        self.logical_used += narrow(logical + SLOT_OVERHEAD);
        Ok(narrow(slot))
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
        let live = self
            .widths
            .get(usize::from(slot))
            .is_some_and(|&w| w != DEAD);
        live.then_some(start..start + stride)
    }

    /// Read the physical bytes of `slot`.
    #[inline]
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        Some(&self.data[self.extent(slot)?])
    }

    /// Logical width of the record in `slot`.
    pub fn logical_width(&self, slot: u16) -> Option<usize> {
        let w = *self.widths.get(usize::from(slot))?;
        (w != DEAD).then_some(w.into())
    }

    /// Delete the record in `slot`, retiring its slot number.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        let Some(logical) = self.logical_width(slot) else {
            return Err(Error::InvalidState("delete of dead or missing slot"));
        };
        self.logical_used -= narrow(logical + SLOT_OVERHEAD);
        self.widths[usize::from(slot)] = DEAD;
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
        let extent = self.extent(slot).expect("slot is live");
        self.data[extent].copy_from_slice(record);
        self.widths[usize::from(slot)] = narrow(logical);
        self.logical_used = narrow(new_used);
        Ok(())
    }

    /// Iterate `(slot, bytes)` over live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.widths.len()).filter_map(|i| Some((narrow(i), self.get(narrow(i))?)))
    }

    /// Physical bytes held by the page body, dead slots' included.
    pub fn physical_bytes(&self) -> usize {
        self.data.len()
    }

    /// Room allocated for the page, as (body bytes, slots): what the page
    /// costs in memory whatever it holds. A page sized at creation for
    /// the records it then gets keeps both for life.
    pub fn capacity(&self) -> (usize, usize) {
        (self.data.capacity(), self.widths.capacity())
    }
}
