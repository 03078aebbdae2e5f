//! Fixed-seed hashing for the engine's integer-id maps.
//!
//! Every key on the per-operation path is a small integer newtype the
//! program mints itself (`TxnId`, `SegmentId`, `PageId`, …), so SipHash's
//! protection against crafted collisions buys nothing and costs a fifth of
//! the host time. [`IdHasher`] is one widening multiply per word whose
//! high half is folded back onto the low half, so keys that differ only
//! in their high bits (TPC-C packs the warehouse there) still spread over
//! the low bits a table takes its bucket index from. The seed is a
//! constant: a map's iteration order is a function of its keys and
//! insertion history alone, never of the process that built it.
//!
//! # `IdMap` or `DenseMap`
//!
//! Hash only what is sparse. An id a counter mints from zero and the
//! engine keeps for good — `SegmentId`, `PartitionId`, `TableId` — indexes
//! a [`DenseMap`](crate::dense::DenseMap): a lookup is a bounds check and
//! a load, iteration is in id order (what planners and failover need to be
//! deterministic), and the table is as long as the largest live id. An
//! [`IdMap`] is for keys that do not have that shape: ids that grow without
//! bound while only a window of them is live (`TxnId` in the lock and
//! transaction tables), composite keys (`PageId` in the buffer pool's frame
//! table, `(TableId, Key)` record locks), and primary keys. Nothing that
//! decides a modeled outcome may depend on an `IdMap`'s iteration order;
//! sort, or sum.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Folded-multiply hasher for program-minted integer ids. Not for keys
/// that arrive from outside the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let wide = u128::from(self.0 ^ n) * u128::from(K);
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` of [`IdMap`] / [`IdSet`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;
/// `HashMap` keyed by program-minted ids; construct with `default()`.
pub type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;
/// `HashSet` of program-minted ids; construct with `default()`.
pub type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageId, SegmentId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        IdBuildHasher::default().hash_one(v)
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_low_buckets() {
        // TPC-C keys pack the table and warehouse into the high bits; a
        // table takes its bucket from the low bits of the hash.
        let buckets: IdSet<u64> = (0..256u64).map(|w| hash_of(w << 48) & 0xff).collect();
        assert!(buckets.len() > 128, "only {} of 256 buckets", buckets.len());
    }

    #[test]
    fn iteration_order_is_a_function_of_the_keys() {
        let build = || {
            let mut m: IdMap<PageId, u32> = IdMap::default();
            for i in 0..1000u32 {
                m.insert(PageId::new(SegmentId(u64::from(i % 7)), i), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
