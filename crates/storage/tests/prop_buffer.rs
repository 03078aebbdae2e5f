//! Property test: `BufferPool::touch` is `fetch_pin` followed by `unpin`.
//!
//! Two pools of the same small size run the same random trace; one serves
//! every fetch-and-release with the fused call, the other with the pair it
//! replaces. Pins held across steps, `mark_clean` and `evict_segment` are
//! mixed in through the calls both pools share. After every step the two
//! must have returned the same [`Fetch`] (so the same victim whenever it
//! was dirty), and show the same [`BufferStats`], resident count and dirty
//! set; a final sweep over the page universe compares the resident sets
//! themselves, and with them the order evictions happened in. Runs with the
//! remote tier off and on.

use proptest::prelude::*;
use wattdb_common::{PageId, SegmentId};
use wattdb_storage::BufferPool;

#[derive(Debug, Clone)]
enum Op {
    /// Fetch, use, release.
    Touch(u8, bool),
    /// Fetch and keep the pin.
    Pin(u8),
    /// Release the `n`-th held pin (modulo the number held).
    Unpin(u8, bool),
    MarkClean(u8),
    EvictSegment(u8),
}

const PAGES: u8 = 24;
const FRAMES: usize = 6;

fn page(n: u8) -> PageId {
    PageId::new(SegmentId(u64::from(n % 3)), u32::from(n / 3))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        12 => (0..PAGES, any::<bool>()).prop_map(|(p, d)| Op::Touch(p, d)),
        2 => (0..PAGES).prop_map(Op::Pin),
        3 => (any::<u8>(), any::<bool>()).prop_map(|(n, d)| Op::Unpin(n, d)),
        1 => (0..PAGES).prop_map(Op::MarkClean),
        1 => (0u8..3).prop_map(Op::EvictSegment),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn touch_is_fetch_pin_then_unpin(
        ops in proptest::collection::vec(op_strategy(), 1..600),
        remote in prop_oneof![Just(0usize), Just(3usize)],
    ) {
        let mut fused = BufferPool::new(FRAMES);
        let mut paired = BufferPool::new(FRAMES);
        fused.set_remote_capacity(remote);
        paired.set_remote_capacity(remote);
        let mut held: Vec<PageId> = Vec::new();

        for op in ops {
            match op {
                Op::Touch(p, dirty) => {
                    let got = fused.touch(page(p), dirty);
                    let want = paired.fetch_pin(page(p));
                    paired.unpin(page(p), dirty);
                    prop_assert_eq!(got, want);
                }
                // Leave frames to evict from: a pool of pinned frames panics.
                Op::Pin(p) if held.len() < FRAMES - 2 => {
                    prop_assert_eq!(fused.fetch_pin(page(p)), paired.fetch_pin(page(p)));
                    held.push(page(p));
                }
                Op::Pin(_) => {}
                Op::Unpin(n, dirty) => {
                    if !held.is_empty() {
                        let p = held.swap_remove(usize::from(n) % held.len());
                        fused.unpin(p, dirty);
                        paired.unpin(p, dirty);
                    }
                }
                Op::MarkClean(p) => {
                    fused.mark_clean(page(p));
                    paired.mark_clean(page(p));
                }
                Op::EvictSegment(s) => {
                    let seg = SegmentId(u64::from(s));
                    held.retain(|p| p.segment != seg);
                    fused.evict_segment(seg);
                    paired.evict_segment(seg);
                }
            }
            prop_assert_eq!(fused.stats(), paired.stats());
            prop_assert_eq!(fused.resident(), paired.resident());
            prop_assert_eq!(fused.dirty_pages(), paired.dirty_pages());
        }

        // Same resident set, same clock order: walking the whole universe
        // hits, misses and evicts identically.
        for p in held.drain(..) {
            fused.unpin(p, false);
            paired.unpin(p, false);
        }
        for p in 0..PAGES {
            prop_assert_eq!(fused.touch(page(p), true), paired.touch(page(p), true));
        }
        prop_assert_eq!(fused.stats(), paired.stats());
    }
}
