//! Property tests: the per-segment index against a
//! `BTreeMap<Key, RecordId>`.
//!
//! The index stores where in its own segment a record is — page number and
//! slot, 8 bytes — and speaks [`RecordId`] at every signature. Whatever
//! goes in must come back whole, with `page_no` up to `u32::MAX` and
//! `slot` up to `u16::MAX`, through every way in (`insert`, `upsert_with`,
//! `repoint`) and every way out (`get`, `remove`, `range_scan`, `entries`,
//! the previous value a write returns). A closure that fails leaves its
//! entry alone; `repoint` of a key that is not indexed is `None` and does
//! not call its closure. A record of another segment panics at each way
//! in.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wattdb_common::{Key, KeyRange, PageId, RecordId, SegmentId};
use wattdb_index::SegmentIndex;

const SEG: SegmentId = SegmentId(7);

fn rid(page_no: u32, slot: u16) -> RecordId {
    RecordId::new(PageId::new(SEG, page_no), slot)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, RecordId),
    Upsert(u64, RecordId),
    /// `upsert_with` whose closure refuses.
    UpsertRefused(u64),
    Repoint(u64, RecordId),
    /// `repoint` whose closure refuses.
    RepointRefused(u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A domain wide enough to split leaves, narrow enough that repoints,
    // upserts and removes hit existing keys.
    let key = || 0u64..600;
    // Addresses over the whole width of both fields, their ends included.
    let place = || {
        (
            prop_oneof![3 => any::<u32>(), 1 => Just(u32::MAX), 1 => Just(0u32)],
            prop_oneof![3 => any::<u16>(), 1 => Just(u16::MAX), 1 => Just(0u16)],
        )
            .prop_map(|(page_no, slot)| rid(page_no, slot))
    };
    prop_oneof![
        4 => (key(), place()).prop_map(|(k, r)| Op::Insert(k, r)),
        3 => (key(), place()).prop_map(|(k, r)| Op::Upsert(k, r)),
        1 => key().prop_map(Op::UpsertRefused),
        3 => (key(), place()).prop_map(|(k, r)| Op::Repoint(k, r)),
        1 => key().prop_map(Op::RepointRefused),
        3 => key().prop_map(Op::Remove),
        2 => key().prop_map(Op::Get),
        1 => (key(), key()).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn segment_index_matches_std_model(ops in proptest::collection::vec(op_strategy(), 1..1_500)) {
        let mut index = SegmentIndex::new(SEG, KeyRange::all());
        let mut model: BTreeMap<Key, RecordId> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, r) => {
                    prop_assert_eq!(index.insert(Key(k), r), model.insert(Key(k), r));
                }
                Op::Upsert(k, r) => {
                    let existing = model.get(&Key(k)).copied();
                    let previous = index.upsert_with(Key(k), |seen| {
                        assert_eq!(seen, existing);
                        Ok::<_, ()>(r)
                    });
                    prop_assert_eq!(previous, Ok(model.insert(Key(k), r)));
                }
                Op::UpsertRefused(k) => {
                    let existing = model.get(&Key(k)).copied();
                    let refused = index.upsert_with(Key(k), |seen| {
                        assert_eq!(seen, existing);
                        Err("refused")
                    });
                    prop_assert_eq!(refused, Err("refused"));
                    prop_assert_eq!(index.get(Key(k)).0, existing);
                }
                Op::Repoint(k, r) => {
                    let existing = model.get(&Key(k)).copied();
                    let mut called = false;
                    let previous = index.repoint(Key(k), |seen| {
                        called = true;
                        assert_eq!(Some(seen), existing);
                        Ok::<_, ()>(r)
                    });
                    prop_assert_eq!(previous, Ok(existing));
                    prop_assert_eq!(called, existing.is_some(), "a missing key is not offered");
                    if existing.is_some() {
                        model.insert(Key(k), r);
                    }
                    prop_assert_eq!(index.get(Key(k)).0, model.get(&Key(k)).copied());
                }
                Op::RepointRefused(k) => {
                    let existing = model.get(&Key(k)).copied();
                    let refused = index.repoint(Key(k), |_| Err("refused"));
                    match existing {
                        Some(_) => prop_assert_eq!(refused, Err("refused")),
                        None => prop_assert_eq!(refused, Ok(None)),
                    }
                    prop_assert_eq!(index.get(Key(k)).0, existing);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(index.remove(Key(k)), model.remove(&Key(k)));
                }
                Op::Get(k) => {
                    prop_assert_eq!(index.get(Key(k)).0, model.get(&Key(k)).copied());
                }
                Op::Range(a, b) => {
                    let want: Vec<_> = model.range(Key(a)..Key(b)).map(|(k, r)| (*k, *r)).collect();
                    prop_assert_eq!(index.range_scan(KeyRange::new(Key(a), Key(b))), want);
                }
            }
            prop_assert_eq!(index.len(), model.len());
        }

        index.check_invariants();
        let want: Vec<_> = model.into_iter().collect();
        prop_assert_eq!(index.entries(), want);
    }
}

fn foreign() -> RecordId {
    RecordId::new(PageId::new(SegmentId(8), 1), 2)
}

#[test]
#[should_panic(expected = "handed to the index of seg7")]
fn insert_of_a_foreign_record_panics() {
    SegmentIndex::new(SEG, KeyRange::all()).insert(Key(1), foreign());
}

#[test]
#[should_panic(expected = "handed to the index of seg7")]
fn upsert_of_a_foreign_record_panics() {
    let _ = SegmentIndex::new(SEG, KeyRange::all()).upsert_with(Key(1), |_| Ok::<_, ()>(foreign()));
}

#[test]
#[should_panic(expected = "handed to the index of seg7")]
fn repoint_to_a_foreign_record_panics() {
    let mut index = SegmentIndex::new(SEG, KeyRange::all());
    index.insert(Key(1), rid(1, 2));
    let _ = index.repoint(Key(1), |_| Ok::<_, ()>(foreign()));
}
