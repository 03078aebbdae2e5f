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

/// A decoded record version.
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
        Self {
            key,
            begin,
            end: TS_INFINITY,
            prev: None,
            flags: 0,
            logical_width,
            payload,
        }
    }

    /// A deletion tombstone for `key`: a version whose visibility window
    /// marks the key as absent.
    pub fn tombstone(key: Key, begin: u64) -> Self {
        Self {
            key,
            begin,
            end: TS_INFINITY,
            prev: None,
            flags: FLAG_TOMBSTONE,
            logical_width: 0,
            payload: Vec::new(),
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

    /// Serialize to bytes for page storage.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + self.payload.len());
        out.extend_from_slice(&self.key.raw().to_le_bytes());
        out.extend_from_slice(&self.begin.to_le_bytes());
        out.extend_from_slice(&self.end.to_le_bytes());
        match self.prev {
            Some(rid) => {
                out.extend_from_slice(&rid.page.segment.raw().to_le_bytes());
                out.extend_from_slice(&rid.page.page_no.to_le_bytes());
                out.extend_from_slice(&rid.slot.to_le_bytes());
            }
            None => {
                out.extend_from_slice(&NO_PREV.to_le_bytes());
                out.extend_from_slice(&0u32.to_le_bytes());
                out.extend_from_slice(&0u16.to_le_bytes());
            }
        }
        out.push(self.flags);
        out.extend_from_slice(&self.logical_width.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Deserialize from page bytes.
    pub fn decode(bytes: &[u8]) -> Result<Record> {
        if bytes.len() < RECORD_HEADER_BYTES {
            return Err(Error::Corruption("record shorter than header"));
        }
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u16_at = |o: usize| u16::from_le_bytes(bytes[o..o + 2].try_into().unwrap());
        let key = Key(u64_at(0));
        let begin = u64_at(BEGIN_OFFSET);
        let end = u64_at(END_OFFSET);
        let prev_seg = u64_at(24);
        let prev_page = u32_at(32);
        let prev_slot = u16_at(36);
        let flags = bytes[38];
        let logical_width = u32_at(39);
        let payload_len = u32_at(43) as usize;
        if bytes.len() < RECORD_HEADER_BYTES + payload_len {
            return Err(Error::Corruption("record payload truncated"));
        }
        let prev = if prev_seg == NO_PREV {
            None
        } else {
            Some(RecordId::new(
                PageId::new(SegmentId(prev_seg), prev_page),
                prev_slot,
            ))
        };
        Ok(Record {
            key,
            begin,
            end,
            prev,
            flags,
            logical_width,
            payload: bytes[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + payload_len].to_vec(),
        })
    }

    /// `(begin, end)` of an encoded version, without decoding the rest.
    pub fn timestamps(bytes: &[u8]) -> Result<(u64, u64)> {
        if bytes.len() < RECORD_HEADER_BYTES {
            return Err(Error::Corruption("record shorter than header"));
        }
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        Ok((u64_at(BEGIN_OFFSET), u64_at(END_OFFSET)))
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
