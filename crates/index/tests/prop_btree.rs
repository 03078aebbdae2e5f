//! Property tests: the B+-tree against `std::collections::BTreeMap`.
//!
//! `upsert_with` is checked as the `get` + `insert` it replaces — replace,
//! fresh insert (with the splits a run of them causes), and a refusing
//! closure that must leave entries, length and height alone — and the kept
//! height as the length of an actual root-to-leaf walk, after every step.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wattdb_common::{Key, KeyRange};
use wattdb_index::BPlusTree;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
}

#[derive(Debug, Clone)]
enum WriteOp {
    /// `upsert_with` whose closure stores `value`.
    Upsert(u64, u64),
    /// `upsert_with` whose closure refuses.
    Refuse(u64),
    Insert(u64, u64),
    Remove(u64),
}

fn write_strategy() -> impl Strategy<Value = WriteOp> {
    // A domain wide enough to split leaves and grow a second level, narrow
    // enough that upserts and removes hit existing keys.
    let key = 0u64..1_200;
    prop_oneof![
        5 => (key.clone(), any::<u64>()).prop_map(|(k, v)| WriteOp::Upsert(k, v)),
        2 => key.clone().prop_map(WriteOp::Refuse),
        2 => (key.clone(), any::<u64>()).prop_map(|(k, v)| WriteOp::Insert(k, v)),
        4 => key.prop_map(WriteOp::Remove),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Keys drawn from a small domain so removes/gets hit existing entries.
    let key = 0u64..5_000;
    prop_oneof![
        5 => (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => key.clone().prop_map(Op::Remove),
        2 => key.clone().prop_map(Op::Get),
        1 => (key.clone(), key).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn btree_matches_std_model(ops in proptest::collection::vec(op_strategy(), 1..2_000)) {
        let mut tree: BPlusTree<u64> = BPlusTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(Key(k), v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(Key(k)), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(Key(k)).0, model.get(&k));
                }
                Op::Range(a, b) => {
                    let got: Vec<(u64, u64)> = tree
                        .range(KeyRange::new(Key(a), Key(b)))
                        .into_iter()
                        .map(|(k, v)| (k.raw(), *v))
                        .collect();
                    let want: Vec<(u64, u64)> =
                        model.range(a..b).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }

        tree.check_invariants();
        // Full iteration agrees at the end.
        let got: Vec<u64> = tree.iter().into_iter().map(|(k, _)| k.raw()).collect();
        let want: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn upsert_and_kept_height_match_model(ops in proptest::collection::vec(write_strategy(), 1..1_500)) {
        let mut tree: BPlusTree<u64> = BPlusTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        for op in ops {
            let key = match op {
                WriteOp::Upsert(k, v) => {
                    let before = model.get(&k).copied();
                    let mut shown = None;
                    let old = tree.upsert_with(Key(k), |existing| {
                        shown = Some(existing.copied());
                        Ok::<u64, ()>(v)
                    });
                    prop_assert_eq!(shown, Some(before), "the closure sees what `get` sees");
                    prop_assert_eq!(old, Ok(model.insert(k, v)), "and returns what `insert` does");
                    k
                }
                WriteOp::Refuse(k) => {
                    let (len, height) = (tree.len(), tree.height());
                    let before = model.get(&k).copied();
                    let refused = tree.upsert_with(Key(k), |existing| {
                        if existing.copied() == before { Err("no") } else { Ok(0) }
                    });
                    prop_assert_eq!(refused, Err("no"));
                    prop_assert_eq!((tree.len(), tree.height()), (len, height));
                    prop_assert_eq!(tree.get(Key(k)).0.copied(), before);
                    k
                }
                WriteOp::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(Key(k), v), model.insert(k, v));
                    k
                }
                WriteOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(Key(k)), model.remove(&k));
                    k
                }
            };
            prop_assert_eq!(tree.len(), model.len());
            // The kept height is the length of a walk from the root to a
            // leaf — `check_invariants` recounts every path.
            prop_assert_eq!(tree.height(), tree.get(Key(key)).1);
            tree.check_invariants();
        }

        let got: Vec<(u64, u64)> = tree.iter().into_iter().map(|(k, v)| (k.raw(), *v)).collect();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn btree_survives_heavy_deletion(keys in proptest::collection::btree_set(0u64..100_000, 100..1_500)) {
        let mut tree: BPlusTree<()> = BPlusTree::new();
        for &k in &keys {
            tree.insert(Key(k), ());
        }
        tree.check_invariants();
        for &k in &keys {
            prop_assert_eq!(tree.remove(Key(k)), Some(()));
        }
        prop_assert!(tree.is_empty());
        tree.check_invariants();
    }
}
