//! Versioned record encoding.
//!
//! WattDB uses multiversion concurrency control (§3.5): updating a record
//! creates a new version rather than overwriting, so readers can continue to
//! see old versions — including during partition moves. Each stored record
//! is one *version* with visibility timestamps and an optional pointer to
//! the previous version, encoded in a fixed header.
//!
//! Timestamps: `begin` is the commit timestamp of the creating transaction
//! (or a provisional marker while uncommitted); `end` is the commit
//! timestamp of the deleting/superseding transaction, or [`TS_INFINITY`]
//! while the version is current.
//!
//! **Two header sizes, two jobs.** [`RECORD_HEADER_LOGICAL`] (47 bytes) is
//! what the modeled cluster charges a version on top of its row width —
//! page fill, I/O, movement volume ([`RecordHeader::logical_footprint`]).
//! [`RECORD_HEADER_PHYSICAL`] (33 bytes) is what the compact stand-in in
//! this process's memory spends, and holds nothing the page already knows:
//!
//! | offset | bytes | field |
//! |---|---|---|
//! | 0 | 8 | `key` |
//! | 8 | 8 | `begin` |
//! | 16 | 8 | `end` |
//! | 24 | 4 | `prev` page number, `u32::MAX` = no previous version |
//! | 28 | 2 | `prev` slot |
//! | 30 | 1 | `flags` |
//! | 31 | 2 | `logical_width` |
//!
//! The key stays although the index knows it: a chain walk checks that each
//! link is a version of the key it started from. A version chain never
//! leaves its segment (the paper's segment is the unit that moves, pages
//! and index together, §4.3), so `prev` is stored segment-local and every
//! encode and decode names the segment the bytes live in: a `prev` of
//! another segment handed to [`RecordHeader::encode`] is a caller's bug and
//! panics, exactly like a foreign record handed to a segment's index. A
//! logical width is below [`PAGE_SIZE`](crate::PAGE_SIZE), so 16 bits hold
//! it; a wider one panics there too.
//!
//! **A version is its header.** Nothing reads a row's bytes — a row costs
//! its logical width — so the transaction layer stores header-only
//! versions, and every page holds records of one length ([`crate::page`]).
//! A [`Record`] keeps its `payload` (whatever follows the header), and
//! [`PageStore::insert_record`](crate::PageStore::insert_record) still
//! stores one it is handed, because the benchmark's micro-probes build
//! `Record::new(key, begin, width, payload)`; the benchmark's ledger
//! revision (ROADMAP item 1) may retire the field. Looking at a version
//! copies nothing: [`Record::peek`] reads the header and borrows the
//! payload from the page; [`Record::decode`] builds the owned [`Record`] a
//! caller returns.

use wattdb_common::{Error, Key, PageId, RecordId, Result, SegmentId};

/// `end` timestamp of a version that is still current.
pub const TS_INFINITY: u64 = u64::MAX;

/// Stored `prev` page number meaning "no previous version".
const NO_PREV: u32 = u32::MAX;

/// Header bytes the modeled cluster charges per version (capacity, I/O and
/// movement accounting), whatever the stand-in in memory spends.
pub const RECORD_HEADER_LOGICAL: usize = 47;

/// Encoded header size in bytes (module docs).
pub const RECORD_HEADER_PHYSICAL: usize = 8 + 8 + 8 + 4 + 2 + 1 + 2;

// One header per stored version: a byte added here is paid for hundreds of
// thousands of times, and never more than the logical charge.
const _: () = assert!(RECORD_HEADER_PHYSICAL == 33);
const _: () = assert!(RECORD_HEADER_PHYSICAL <= RECORD_HEADER_LOGICAL);

/// Byte offsets of the fields inside the encoded header.
const BEGIN_OFFSET: usize = 8;
const END_OFFSET: usize = 16;
const PREV_PAGE_OFFSET: usize = 24;
const PREV_SLOT_OFFSET: usize = 28;
const FLAGS_OFFSET: usize = 30;
const WIDTH_OFFSET: usize = 31;

/// Header flag bit: this version is a deletion tombstone.
pub const FLAG_TOMBSTONE: u8 = 0b0000_0001;

/// The fixed header of a version: everything but the payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Primary key.
    pub key: Key,
    /// Commit timestamp of the creator (visibility lower bound).
    pub begin: u64,
    /// Commit timestamp of the superseder, or [`TS_INFINITY`].
    pub end: u64,
    /// Previous version in the chain, if any.
    pub prev: Option<RecordId>,
    /// Header flags ([`FLAG_TOMBSTONE`]).
    pub flags: u8,
    /// Logical row width used for capacity/I-O/network cost accounting.
    pub logical_width: u32,
}

impl RecordHeader {
    /// Header of a fresh version with no predecessor.
    pub fn new(key: Key, begin: u64, logical_width: u32) -> Self {
        Self {
            key,
            begin,
            end: TS_INFINITY,
            prev: None,
            flags: 0,
            logical_width,
        }
    }

    /// Header of a deletion tombstone for `key`: a version whose visibility
    /// window marks the key as absent.
    pub fn tombstone(key: Key, begin: u64) -> Self {
        Self {
            flags: FLAG_TOMBSTONE,
            ..Self::new(key, begin, 0)
        }
    }

    /// True if this version marks a deletion.
    pub fn is_tombstone(&self) -> bool {
        self.flags & FLAG_TOMBSTONE != 0
    }

    /// Total logical footprint: declared row width plus the version header.
    pub fn logical_footprint(&self) -> usize {
        self.logical_width as usize + RECORD_HEADER_LOGICAL
    }

    /// The owned record this header and `payload` make.
    #[inline]
    pub fn with_payload(self, payload: Vec<u8>) -> Record {
        Record {
            key: self.key,
            begin: self.begin,
            end: self.end,
            prev: self.prev,
            flags: self.flags,
            logical_width: self.logical_width,
            payload,
        }
    }

    /// The header encoded for a page of `segment` (or any buffer that
    /// travels with the segment's id). Panics if `prev` lies in another
    /// segment or the logical width does not fit 16 bits.
    pub fn encode(&self, segment: SegmentId) -> [u8; RECORD_HEADER_PHYSICAL] {
        let (prev_page, prev_slot) = match self.prev {
            Some(rid) => {
                assert!(
                    rid.page.segment == segment,
                    "version chain of {segment} continues at {rid}"
                );
                assert!(
                    rid.page.page_no != NO_PREV,
                    "page number {NO_PREV} is reserved"
                );
                (rid.page.page_no, rid.slot)
            }
            None => (NO_PREV, 0),
        };
        let width = u16::try_from(self.logical_width).expect("logical width within a page");
        let mut head = [0; RECORD_HEADER_PHYSICAL];
        head[..BEGIN_OFFSET].copy_from_slice(&self.key.raw().to_le_bytes());
        head[BEGIN_OFFSET..END_OFFSET].copy_from_slice(&self.begin.to_le_bytes());
        head[END_OFFSET..PREV_PAGE_OFFSET].copy_from_slice(&self.end.to_le_bytes());
        head[PREV_PAGE_OFFSET..PREV_SLOT_OFFSET].copy_from_slice(&prev_page.to_le_bytes());
        head[PREV_SLOT_OFFSET..FLAGS_OFFSET].copy_from_slice(&prev_slot.to_le_bytes());
        head[FLAGS_OFFSET] = self.flags;
        head[WIDTH_OFFSET..].copy_from_slice(&width.to_le_bytes());
        head
    }
}

/// A decoded record version: header fields plus an owned payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Primary key.
    pub key: Key,
    /// Commit timestamp of the creator (visibility lower bound).
    pub begin: u64,
    /// Commit timestamp of the superseder, or [`TS_INFINITY`].
    pub end: u64,
    /// Previous version in the chain, if any.
    pub prev: Option<RecordId>,
    /// Header flags ([`FLAG_TOMBSTONE`]).
    pub flags: u8,
    /// Logical row width used for capacity/I-O/network cost accounting.
    pub logical_width: u32,
    /// Bytes stored after the header; empty for every version the
    /// transaction layer writes (module docs).
    pub payload: Vec<u8>,
}

impl Record {
    /// A fresh version with no predecessor.
    pub fn new(key: Key, begin: u64, logical_width: u32, payload: Vec<u8>) -> Self {
        RecordHeader::new(key, begin, logical_width).with_payload(payload)
    }

    /// A deletion tombstone for `key`.
    pub fn tombstone(key: Key, begin: u64) -> Self {
        RecordHeader::tombstone(key, begin).with_payload(Vec::new())
    }

    /// The version's header fields.
    pub fn header(&self) -> RecordHeader {
        RecordHeader {
            key: self.key,
            begin: self.begin,
            end: self.end,
            prev: self.prev,
            flags: self.flags,
            logical_width: self.logical_width,
        }
    }

    /// True if this version marks a deletion.
    pub fn is_tombstone(&self) -> bool {
        self.flags & FLAG_TOMBSTONE != 0
    }

    /// Total logical footprint: declared row width plus the version header.
    pub fn logical_footprint(&self) -> usize {
        self.header().logical_footprint()
    }

    /// Serialize, header then payload, as a version stored in `segment`.
    pub fn encode(&self, segment: SegmentId) -> Vec<u8> {
        [&self.header().encode(segment)[..], &self.payload].concat()
    }

    /// Read the header of a version encoded in `segment` and borrow its
    /// payload — everything past the header: no copy. Rejects exactly the
    /// inputs [`Record::decode`] rejects.
    #[inline]
    pub fn peek(bytes: &[u8], segment: SegmentId) -> Result<(RecordHeader, &[u8])> {
        let Some((head, payload)) = bytes.split_first_chunk::<RECORD_HEADER_PHYSICAL>() else {
            return Err(SHORT);
        };
        let prev_page = u32::from_le_bytes(field(head, PREV_PAGE_OFFSET));
        let prev_slot = u16::from_le_bytes(field(head, PREV_SLOT_OFFSET));
        let header = RecordHeader {
            key: Key(u64::from_le_bytes(field(head, 0))),
            begin: u64::from_le_bytes(field(head, BEGIN_OFFSET)),
            end: u64::from_le_bytes(field(head, END_OFFSET)),
            prev: (prev_page != NO_PREV)
                .then(|| RecordId::new(PageId::new(segment, prev_page), prev_slot)),
            flags: head[FLAGS_OFFSET],
            logical_width: u16::from_le_bytes(field(head, WIDTH_OFFSET)).into(),
        };
        Ok((header, payload))
    }

    /// Deserialize a version encoded in `segment` into an owned record
    /// (copies the payload).
    pub fn decode(bytes: &[u8], segment: SegmentId) -> Result<Record> {
        let (header, payload) = Self::peek(bytes, segment)?;
        Ok(header.with_payload(payload.to_vec()))
    }

    /// The `begin` timestamp of an encoded version, read in place.
    pub fn begin_of(bytes: &[u8]) -> Result<u64> {
        Self::timestamp(bytes, BEGIN_OFFSET)
    }

    /// The `end` timestamp of an encoded version, read in place.
    pub fn end_of(bytes: &[u8]) -> Result<u64> {
        Self::timestamp(bytes, END_OFFSET)
    }

    fn timestamp(bytes: &[u8], offset: usize) -> Result<u64> {
        let head = bytes.first_chunk().ok_or(SHORT)?;
        Ok(u64::from_le_bytes(field(head, offset)))
    }

    /// Overwrite the `begin` timestamp of an encoded version in place.
    pub fn stamp_begin(bytes: &mut [u8], ts: u64) -> Result<()> {
        Self::patch(bytes, BEGIN_OFFSET, &ts.to_le_bytes())
    }

    /// Overwrite the `end` timestamp of an encoded version in place.
    pub fn stamp_end(bytes: &mut [u8], ts: u64) -> Result<()> {
        Self::patch(bytes, END_OFFSET, &ts.to_le_bytes())
    }

    /// Clear the `prev` pointer of an encoded version in place: the bytes
    /// become those of the same version encoded with `prev: None`.
    pub fn unlink_prev(bytes: &mut [u8]) -> Result<()> {
        Self::patch(bytes, PREV_PAGE_OFFSET, &NO_PREV.to_le_bytes())?;
        Self::patch(bytes, PREV_SLOT_OFFSET, &0u16.to_le_bytes())
    }

    fn patch(bytes: &mut [u8], offset: usize, field: &[u8]) -> Result<()> {
        let head = bytes
            .first_chunk_mut::<RECORD_HEADER_PHYSICAL>()
            .ok_or(SHORT)?;
        head[offset..offset + field.len()].copy_from_slice(field);
        Ok(())
    }
}

const SHORT: Error = Error::Corruption("record shorter than header");

/// The `N` bytes of a header field at `offset`.
#[inline]
fn field<const N: usize>(head: &[u8; RECORD_HEADER_PHYSICAL], offset: usize) -> [u8; N] {
    head[offset..offset + N]
        .try_into()
        .expect("field within the header")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEG: SegmentId = SegmentId(7);

    fn sample() -> Record {
        Record {
            key: Key(0xDEAD_BEEF),
            begin: 100,
            end: 250,
            prev: Some(RecordId::new(PageId::new(SEG, 3), 12)),
            flags: 0,
            logical_width: 306,
            payload: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = sample();
        let bytes = r.encode(SEG);
        assert_eq!(bytes.len(), RECORD_HEADER_PHYSICAL + 5);
        assert_eq!(Record::decode(&bytes, SEG).unwrap(), r);
    }

    #[test]
    fn roundtrip_without_prev() {
        let r = Record::new(Key(5), 1, 64, vec![9; 16]);
        // No chain, so no segment to agree with.
        let bytes = r.encode(SegmentId(1));
        let d = Record::decode(&bytes, SegmentId(2)).unwrap();
        assert_eq!(d.prev, None);
        assert_eq!(d.end, TS_INFINITY);
        assert_eq!(d, r);
    }

    #[test]
    fn truncated_inputs_rejected() {
        let bytes = sample().encode(SEG);
        assert!(Record::decode(&bytes[..10], SEG).is_err());
        assert!(Record::decode(&bytes[..RECORD_HEADER_PHYSICAL - 1], SEG).is_err());
        // The header alone is a version with an empty payload.
        let bare = Record::decode(&bytes[..RECORD_HEADER_PHYSICAL], SEG).unwrap();
        assert_eq!(bare.header(), sample().header());
        assert!(bare.payload.is_empty());
    }

    #[test]
    fn logical_footprint_includes_header() {
        let r = sample();
        assert_eq!(r.logical_footprint(), 306 + 47);
    }

    #[test]
    fn tombstone_roundtrip() {
        let t = Record::tombstone(Key(9), 77);
        assert!(t.is_tombstone());
        let d = Record::decode(&t.encode(SEG), SEG).unwrap();
        assert!(d.is_tombstone());
        assert_eq!(d.key, Key(9));
        assert_eq!(d.begin, 77);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let r = Record::new(Key(0), 0, 0, vec![]);
        assert_eq!(Record::decode(&r.encode(SEG), SEG).unwrap(), r);
    }
}
