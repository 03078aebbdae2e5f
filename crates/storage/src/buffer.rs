//! Buffer pool: residency tracking with clock eviction and a remote tier.
//!
//! Page *contents* always live in the [`PageStore`]; the buffer pool decides
//! which pages are resident in a node's (simulated 2 GB) DRAM. A fetch
//! returns what *would have happened* — hit, miss with optional dirty
//! eviction, or remote-tier hit — and the caller charges the corresponding
//! virtual-time costs (buffer bookkeeping, disk read, writeback, network).
//!
//! The remote tier models the paper's rDMA buffer extension (§5.2, Fig. 8):
//! helper nodes lend DRAM, so evicted warm pages go to remote memory instead
//! of disk, and faulting them back costs a network round trip instead of a
//! seek.
//!
//! **Probes.** `frames` is the one hash table on the page path (a page id
//! is sparse: segment × page number), so it is probed as little as the
//! protocol allows: a hit is one probe, the clock sweep probes each
//! candidate once, and the remote tier's set is not consulted at all while
//! that tier is off. [`BufferPool::touch`] is fetch-and-release for callers
//! that do not hold the pin across anything — the same bookkeeping as
//! [`BufferPool::fetch_pin`] followed by [`BufferPool::unpin`], in one
//! probe instead of two.
//!
//! [`PageStore`]: crate::store::PageStore

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use wattdb_common::{IdMap, IdSet, PageId};

/// Outcome of a fetch, from which the caller derives timing costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// Page was resident: charge buffer bookkeeping only.
    Hit,
    /// Page must come from disk; if `writeback` is set, a dirty victim has
    /// to be written out first.
    Miss {
        /// Dirty page that must be written to disk to free the frame.
        writeback: Option<PageId>,
    },
    /// Page came from the remote (rDMA) tier: charge a network round trip.
    RemoteHit {
        /// Dirty victim to write back, as with a normal miss.
        writeback: Option<PageId>,
    },
}

#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    pinned: u32,
    dirty: bool,
    referenced: bool,
}

/// Cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Fetches served from local DRAM.
    pub hits: u64,
    /// Fetches that went to disk.
    pub misses: u64,
    /// Fetches served from the remote tier.
    pub remote_hits: u64,
    /// Dirty pages written back on eviction.
    pub writebacks: u64,
    /// Evictions performed.
    pub evictions: u64,
}

impl BufferStats {
    /// Hit ratio over all fetches (remote hits count as hits of the
    /// extended buffer).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses + self.remote_hits;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.remote_hits) as f64 / total as f64
        }
    }
}

/// A per-node buffer pool.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    frames: IdMap<PageId, Frame>,
    clock: VecDeque<PageId>,
    remote_capacity: usize,
    remote: IdSet<PageId>,
    stats: BufferStats,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        Self {
            capacity,
            frames: IdMap::with_capacity_and_hasher(capacity, Default::default()),
            clock: VecDeque::with_capacity(capacity),
            remote_capacity: 0,
            remote: IdSet::default(),
            stats: BufferStats::default(),
        }
    }

    /// Frame capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident page count.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Enable/resize the remote (rDMA) tier; shrinking drops spilled pages
    /// arbitrarily (they are clean copies — the store has the truth).
    pub fn set_remote_capacity(&mut self, pages: usize) {
        self.remote_capacity = pages;
        while self.remote.len() > pages {
            let victim = *self.remote.iter().next().expect("non-empty");
            self.remote.remove(&victim);
        }
    }

    /// Counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Fetch `page` and pin it. The caller must charge the costs implied by
    /// the returned [`Fetch`] and later [`unpin`](Self::unpin).
    pub fn fetch_pin(&mut self, page: PageId) -> Fetch {
        self.fetch(page, 1, false)
    }

    /// Fetch `page`, use it and let go of it at once: what
    /// [`fetch_pin`](Self::fetch_pin) followed by `unpin(page, dirty)`
    /// leaves behind — same [`Fetch`], counters, victim and dirty bit —
    /// without the second probe.
    pub fn touch(&mut self, page: PageId, dirty: bool) -> Fetch {
        self.fetch(page, 0, dirty)
    }

    /// Make `page` resident, referenced, pinned `pins` times more and
    /// dirty if `dirty`.
    fn fetch(&mut self, page: PageId, pins: u32, dirty: bool) -> Fetch {
        if let Some(f) = self.frames.get_mut(&page) {
            f.pinned += pins;
            f.dirty |= dirty;
            f.referenced = true;
            self.stats.hits += 1;
            return Fetch::Hit;
        }
        // With the tier off the set is empty: nothing to look for.
        let from_remote = self.remote_capacity > 0 && self.remote.remove(&page);
        let writeback = self.make_room();
        self.frames.insert(
            page,
            Frame {
                pinned: pins,
                dirty,
                referenced: true,
            },
        );
        self.clock.push_back(page);
        if from_remote {
            self.stats.remote_hits += 1;
            Fetch::RemoteHit { writeback }
        } else {
            self.stats.misses += 1;
            Fetch::Miss { writeback }
        }
    }

    /// Choose and remove a victim if at capacity. Returns the dirty page to
    /// write back, if any. Panics if every frame is pinned (the engine
    /// bounds pins per operation well below pool size).
    fn make_room(&mut self) -> Option<PageId> {
        if self.frames.len() < self.capacity {
            return None;
        }
        // Clock sweep: skip pinned, clear reference bits, evict first
        // unreferenced unpinned frame. One probe per candidate: the entry
        // found is the entry patched or removed.
        let mut sweeps = 0;
        let max_sweeps = self.clock.len() * 2 + 1;
        while sweeps < max_sweeps {
            sweeps += 1;
            let candidate = self.clock.pop_front().expect("clock not empty");
            let Entry::Occupied(mut entry) = self.frames.entry(candidate) else {
                panic!("clock/frame sync");
            };
            let frame = entry.get_mut();
            if frame.pinned > 0 {
                self.clock.push_back(candidate);
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                self.clock.push_back(candidate);
                continue;
            }
            // Evict.
            let frame = entry.remove();
            self.stats.evictions += 1;
            if self.remote_capacity > 0 && self.remote.len() < self.remote_capacity {
                self.remote.insert(candidate);
            }
            if frame.dirty {
                self.stats.writebacks += 1;
                return Some(candidate);
            }
            return None;
        }
        panic!("buffer pool exhausted: all {} frames pinned", self.capacity);
    }

    /// Unpin a previously fetched page, optionally marking it dirty.
    pub fn unpin(&mut self, page: PageId, dirty: bool) {
        let f = self
            .frames
            .get_mut(&page)
            .expect("unpin of non-resident page");
        assert!(f.pinned > 0, "unpin without pin");
        f.pinned -= 1;
        f.dirty |= dirty;
    }

    /// Mark a resident page clean (after a WAL-ordered flush).
    pub fn mark_clean(&mut self, page: PageId) {
        if let Some(f) = self.frames.get_mut(&page) {
            f.dirty = false;
        }
    }

    /// All dirty resident pages (checkpointing).
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut v: Vec<PageId> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(p, _)| *p)
            .collect();
        v.sort_unstable();
        v
    }

    /// Drop every resident page of `segment` (segment moved away or
    /// dropped). Dirty pages of a moved segment were flushed by the
    /// migration protocol before this point.
    pub fn evict_segment(&mut self, segment: wattdb_common::SegmentId) {
        self.clock.retain(|p| p.segment != segment);
        self.frames.retain(|p, _| p.segment != segment);
        self.remote.retain(|p| p.segment != segment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattdb_common::SegmentId;

    fn pid(seg: u64, no: u32) -> PageId {
        PageId::new(SegmentId(seg), no)
    }

    #[test]
    fn hit_after_miss() {
        let mut bp = BufferPool::new(4);
        assert_eq!(bp.fetch_pin(pid(1, 0)), Fetch::Miss { writeback: None });
        bp.unpin(pid(1, 0), false);
        assert_eq!(bp.fetch_pin(pid(1, 0)), Fetch::Hit);
        bp.unpin(pid(1, 0), false);
        assert_eq!(bp.stats().hits, 1);
        assert_eq!(bp.stats().misses, 1);
    }

    #[test]
    fn eviction_when_full() {
        let mut bp = BufferPool::new(2);
        bp.fetch_pin(pid(1, 0));
        bp.unpin(pid(1, 0), false);
        bp.fetch_pin(pid(1, 1));
        bp.unpin(pid(1, 1), false);
        // Third page forces an eviction.
        let f = bp.fetch_pin(pid(1, 2));
        assert!(matches!(f, Fetch::Miss { writeback: None }));
        assert_eq!(bp.resident(), 2);
        assert_eq!(bp.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut bp = BufferPool::new(1);
        bp.fetch_pin(pid(1, 0));
        bp.unpin(pid(1, 0), true); // dirty
        match bp.fetch_pin(pid(1, 1)) {
            Fetch::Miss { writeback } => assert_eq!(writeback, Some(pid(1, 0))),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(bp.stats().writebacks, 1);
    }

    #[test]
    fn pinned_pages_not_evicted() {
        let mut bp = BufferPool::new(2);
        bp.fetch_pin(pid(1, 0)); // stays pinned
        bp.fetch_pin(pid(1, 1));
        bp.unpin(pid(1, 1), false);
        bp.fetch_pin(pid(1, 2)); // must evict p1, not pinned p0
        assert!(bp.frames.contains_key(&pid(1, 0)));
        assert!(!bp.frames.contains_key(&pid(1, 1)));
    }

    #[test]
    #[should_panic(expected = "buffer pool exhausted")]
    fn all_pinned_panics() {
        let mut bp = BufferPool::new(1);
        bp.fetch_pin(pid(1, 0));
        bp.fetch_pin(pid(1, 1));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut bp = BufferPool::new(2);
        bp.fetch_pin(pid(1, 0));
        bp.unpin(pid(1, 0), false);
        bp.fetch_pin(pid(1, 1));
        bp.unpin(pid(1, 1), false);
        // First eviction sweep clears ref bits and evicts p0; afterwards p1
        // is unreferenced and p2 freshly referenced.
        bp.fetch_pin(pid(1, 2));
        bp.unpin(pid(1, 2), false);
        assert!(!bp.frames.contains_key(&pid(1, 0)));
        // Next eviction must take the unreferenced p1, giving the
        // recently-referenced p2 its second chance.
        bp.fetch_pin(pid(1, 3));
        assert!(
            bp.frames.contains_key(&pid(1, 2)),
            "referenced page survives"
        );
        assert!(!bp.frames.contains_key(&pid(1, 1)));
    }

    #[test]
    fn remote_tier_catches_evictions() {
        let mut bp = BufferPool::new(1);
        bp.set_remote_capacity(4);
        bp.fetch_pin(pid(1, 0));
        bp.unpin(pid(1, 0), false);
        bp.fetch_pin(pid(1, 1)); // evicts p0 into remote tier
        bp.unpin(pid(1, 1), false);
        assert_eq!(bp.remote.len(), 1);
        // Fetching p0 again is a remote hit, not a disk miss.
        match bp.fetch_pin(pid(1, 0)) {
            Fetch::RemoteHit { .. } => {}
            other => panic!("expected remote hit, got {other:?}"),
        }
        assert_eq!(bp.stats().remote_hits, 1);
        assert!(bp.stats().hit_ratio() > 0.0);
    }

    #[test]
    fn evict_segment_clears_residency() {
        let mut bp = BufferPool::new(8);
        bp.set_remote_capacity(8);
        for i in 0..4 {
            bp.fetch_pin(pid(1, i));
            bp.unpin(pid(1, i), false);
        }
        bp.fetch_pin(pid(2, 0));
        bp.unpin(pid(2, 0), false);
        bp.evict_segment(SegmentId(1));
        assert_eq!(bp.resident(), 1);
        assert!(bp.frames.contains_key(&pid(2, 0)));
    }

    #[test]
    fn mark_clean_prevents_writeback() {
        let mut bp = BufferPool::new(1);
        bp.fetch_pin(pid(1, 0));
        bp.unpin(pid(1, 0), true);
        bp.mark_clean(pid(1, 0));
        match bp.fetch_pin(pid(1, 1)) {
            Fetch::Miss { writeback } => assert_eq!(writeback, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dirty_page_listing_sorted() {
        let mut bp = BufferPool::new(4);
        for i in [3u32, 1, 2] {
            bp.fetch_pin(pid(1, i));
            bp.unpin(pid(1, i), i != 2);
        }
        assert_eq!(bp.dirty_pages(), vec![pid(1, 1), pid(1, 3)]);
    }
}
