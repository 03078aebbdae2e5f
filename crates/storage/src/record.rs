//! Versioned record encoding.
//!
//! WattDB uses multiversion concurrency control (§3.5): updating a record
//! creates a new version rather than overwriting, so readers can continue to
//! see old versions — including during partition moves. Each stored record
//! is one *version* with visibility timestamps and an optional pointer to
//! the previous version, encoded in a fixed header ahead of the payload.
//!
//! Timestamps: `begin` is the commit timestamp of the creating transaction
//! (or a provisional marker while uncommitted); `end` is the commit
//! timestamp of the deleting/superseding transaction, or [`TS_INFINITY`]
//! while the version is current.
//!
//! **When a payload is copied.** Never to look at a version and never to
//! store one. [`Record::peek`] reads the fixed header ([`RecordHeader`]) and
//! borrows the payload from the page; visibility walks, write-conflict
//! checks and chain traversals use only that. [`RecordHeader::encode_into`]
//! writes header and payload straight into a page body from a borrowed
//! slice. The one copy left is [`Record::decode`] (and
//! [`Record::encode`] for callers that want the bytes by themselves): an
//! owned [`Record`] is built for the version a caller actually returns.

use wattdb_common::{Error, Key, PageId, RecordId, Result, SegmentId};

/// `end` timestamp of a version that is still current.
pub const TS_INFINITY: u64 = u64::MAX;

/// Sentinel segment id meaning "no previous version".
const NO_PREV: u64 = u64::MAX;

/// Fixed encoded header size in bytes.
pub const RECORD_HEADER_BYTES: usize = 8 + 8 + 8 + 8 + 4 + 2 + 1 + 4 + 4;

/// Byte offsets of the visibility timestamps inside the encoded header.
const BEGIN_OFFSET: usize = 8;
const END_OFFSET: usize = 16;

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
        self.logical_width as usize + RECORD_HEADER_BYTES
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

    /// Append the encoded version — this header, then `payload` — to `out`
    /// (a page body, or any buffer).
    pub fn encode_into(&self, payload: &[u8], out: &mut Vec<u8>) {
        out.reserve(RECORD_HEADER_BYTES + payload.len());
        out.extend_from_slice(&self.key.raw().to_le_bytes());
        out.extend_from_slice(&self.begin.to_le_bytes());
        out.extend_from_slice(&self.end.to_le_bytes());
        let (seg, page, slot) = match self.prev {
            Some(rid) => (rid.page.segment.raw(), rid.page.page_no, rid.slot),
            None => (NO_PREV, 0, 0),
        };
        out.extend_from_slice(&seg.to_le_bytes());
        out.extend_from_slice(&page.to_le_bytes());
        out.extend_from_slice(&slot.to_le_bytes());
        out.push(self.flags);
        out.extend_from_slice(&self.logical_width.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
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
    /// Compact physical payload.
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

    /// Serialize to a buffer of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.header().encode_into(&self.payload, &mut out);
        out
    }

    /// Read an encoded version's header and borrow its payload: no copy.
    /// Rejects exactly the inputs [`Record::decode`] rejects.
    #[inline]
    pub fn peek(bytes: &[u8]) -> Result<(RecordHeader, &[u8])> {
        if bytes.len() < RECORD_HEADER_BYTES {
            return Err(Error::Corruption("record shorter than header"));
        }
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u16_at = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().unwrap());
        let prev_seg = u64_at(24);
        let payload_len = u32_at(43) as usize;
        let Some(payload) = bytes.get(RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + payload_len)
        else {
            return Err(Error::Corruption("record payload truncated"));
        };
        let prev = (prev_seg != NO_PREV)
            .then(|| RecordId::new(PageId::new(SegmentId(prev_seg), u32_at(32)), u16_at(36)));
        let header = RecordHeader {
            key: Key(u64_at(0)),
            begin: u64_at(BEGIN_OFFSET),
            end: u64_at(END_OFFSET),
            prev,
            flags: bytes[38],
            logical_width: u32_at(39),
        };
        Ok((header, payload))
    }

    /// Deserialize from page bytes into an owned record (copies the
    /// payload).
    pub fn decode(bytes: &[u8]) -> Result<Record> {
        let (header, payload) = Self::peek(bytes)?;
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
        match bytes.get(offset..offset + 8) {
            Some(ts) if bytes.len() >= RECORD_HEADER_BYTES => {
                Ok(u64::from_le_bytes(ts.try_into().expect("eight bytes")))
            }
            _ => Err(Error::Corruption("record shorter than header")),
        }
    }

    /// Overwrite the `begin` timestamp of an encoded version in place.
    pub fn stamp_begin(bytes: &mut [u8], ts: u64) -> Result<()> {
        Self::stamp(bytes, BEGIN_OFFSET, ts)
    }

    /// Overwrite the `end` timestamp of an encoded version in place.
    pub fn stamp_end(bytes: &mut [u8], ts: u64) -> Result<()> {
        Self::stamp(bytes, END_OFFSET, ts)
    }

    fn stamp(bytes: &mut [u8], offset: usize, ts: u64) -> Result<()> {
        if bytes.len() < RECORD_HEADER_BYTES {
            return Err(Error::Corruption("record shorter than header"));
        }
        bytes[offset..offset + 8].copy_from_slice(&ts.to_le_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            key: Key(0xDEAD_BEEF),
            begin: 100,
            end: 250,
            prev: Some(RecordId::new(PageId::new(SegmentId(7), 3), 12)),
            flags: 0,
            logical_width: 306,
            payload: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = sample();
        let bytes = r.encode();
        assert_eq!(Record::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn roundtrip_without_prev() {
        let r = Record::new(Key(5), 1, 64, vec![9; 16]);
        let bytes = r.encode();
        let d = Record::decode(&bytes).unwrap();
        assert_eq!(d.prev, None);
        assert_eq!(d.end, TS_INFINITY);
        assert_eq!(d, r);
    }

    #[test]
    fn truncated_inputs_rejected() {
        let r = sample();
        let bytes = r.encode();
        assert!(Record::decode(&bytes[..10]).is_err());
        assert!(Record::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn logical_footprint_includes_header() {
        let r = sample();
        assert_eq!(r.logical_footprint(), 306 + RECORD_HEADER_BYTES);
    }

    #[test]
    fn tombstone_roundtrip() {
        let t = Record::tombstone(Key(9), 77);
        assert!(t.is_tombstone());
        let d = Record::decode(&t.encode()).unwrap();
        assert!(d.is_tombstone());
        assert_eq!(d.key, Key(9));
        assert_eq!(d.begin, 77);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let r = Record::new(Key(0), 0, 0, vec![]);
        assert_eq!(Record::decode(&r.encode()).unwrap(), r);
    }
}
