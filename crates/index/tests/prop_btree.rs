//! Property tests: the B+-tree against `std::collections::BTreeMap`.
//!
//! `upsert_with` is checked as the `get` + `insert` it replaces — replace,
//! fresh insert (with the splits a run of them causes), and a refusing
//! closure that must leave entries, length and height alone — and the kept
//! height as the length of an actual root-to-leaf walk, after every step.
//!
//! A node is one heap block, and a split decides which half keeps it; it
//! must decide nothing else. `splits_keep_the_shape_and_only_the_room_they_need`
//! runs the tree beside the one it replaced (`reference/btree_parent.rs`,
//! whose leaves are two vectors and whose internal nodes are two more):
//! same entries, the same entries and room in every node of every level
//! (`node_fill`), same height after every insert, append and remove, no
//! block ever allocated beyond the fan-out (`check_invariants`), and after
//! each split the half the new entry went to holds the old block while the
//! other fits exactly. Random keys rarely split an internal node, so
//! `internal_splits_at_every_position_keep_the_shape` makes a root of 32
//! children split once for each child that can overflow it.
//!
//! `range_visitor_matches_the_parent_range` drives `visit_range`, which
//! the scan path walks in place, beside the parent's list-building
//! `range`: empty and reversed ranges, single keys, and ranges starting
//! and ending at every leaf boundary (a leaf's last key, the next leaf's
//! first key — where its separator sits — and one past or short of each),
//! over trees of one to three levels.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wattdb_common::{Key, KeyRange};
use wattdb_index::BPlusTree;

#[path = "reference/btree_parent.rs"]
mod reference;

/// `MAX + 1`: the fan-out and the one entry of overflow.
const ROOM: usize = 33;

#[derive(Debug, Clone)]
enum ShapeOp {
    Insert(u64),
    Remove(u64),
    /// A run of inserts above the largest key (TPC-C's insert pattern).
    Append(u64),
}

fn shape_strategy() -> impl Strategy<Value = ShapeOp> {
    let key = 0u64..3_000;
    prop_oneof![
        4 => key.clone().prop_map(ShapeOp::Insert),
        3 => key.prop_map(ShapeOp::Remove),
        2 => (1u64..120).prop_map(ShapeOp::Append),
    ]
}

/// `(entries, room)` of every node, per level (1 = leaves), left to right,
/// from a tree's `node_fill`.
fn levels(fill: Vec<(usize, usize, usize)>) -> BTreeMap<usize, Vec<(usize, usize)>> {
    let mut out: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for (level, len, room) in fill {
        out.entry(level).or_default().push((len, room));
    }
    out
}

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

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn splits_keep_the_shape_and_only_the_room_they_need(
        ops in proptest::collection::vec(shape_strategy(), 1..160),
    ) {
        let mut tree: BPlusTree<u64> = BPlusTree::new();
        let mut parent: reference::BPlusTree<u64> = reference::BPlusTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let steps = ops.into_iter().flat_map(|op| match op {
            ShapeOp::Append(n) => (0..n).map(|_| None).collect(),
            other => vec![Some(other)],
        });
        let mut after = levels(tree.node_fill());
        for step in steps {
            let before = after;
            let inserted = match step {
                Some(ShapeOp::Remove(k)) => {
                    prop_assert_eq!(tree.remove(Key(k)), model.remove(&k));
                    parent.remove(Key(k));
                    None
                }
                Some(ShapeOp::Insert(k)) => Some(k),
                _ => Some(model.keys().next_back().map_or(0, |k| k + 1)),
            };
            if let Some(k) = inserted {
                prop_assert_eq!(tree.insert(Key(k), k), model.insert(k, k));
                parent.insert(Key(k), k);
            }

            // The shape the engine is charged for, and the room each node
            // holds, are the parent's.
            tree.check_invariants();
            prop_assert_eq!(tree.height(), parent.height());
            after = levels(tree.node_fill());
            prop_assert_eq!(&after, &levels(parent.node_fill()));
            let leaves: Vec<usize> = after[&1].iter().map(|&(len, _)| len).collect();
            prop_assert_eq!(tree.iter(), parent.iter());

            // A level that gained a node split one: the two halves sit
            // where the first difference is.
            for (level, now) in &after {
                let Some(was) = before.get(level).filter(|was| was.len() + 1 == now.len()) else {
                    continue;
                };
                let at = (0..was.len()).find(|&i| was[i] != now[i]).expect("a node split");
                let (lower, upper) = (now[at], now[at + 1]);
                prop_assert_eq!(lower.0 + upper.0, ROOM, "an overflowing node split");
                // One half holds the old block, the other fits exactly.
                let kept = |half: (usize, usize)| half.1 == ROOM;
                let fits = |half: (usize, usize)| half.1 == half.0;
                prop_assert!(
                    kept(lower) && fits(upper) || fits(lower) && kept(upper),
                    "level {level}: halves {lower:?} and {upper:?}"
                );
                if *level == 1 {
                    // The new key's half is the one that keeps the block.
                    let k = inserted.expect("only an insert splits");
                    let rank = model.range(..k).count();
                    let below: usize = leaves[..at].iter().sum();
                    let (grows, left) = if rank < below + lower.0 {
                        (lower, upper)
                    } else {
                        (upper, lower)
                    };
                    prop_assert!(kept(grows) && fits(left), "{k} went to {grows:?}");
                }
            }
        }
        let got: Vec<u64> = tree.iter().into_iter().map(|(k, _)| k.raw()).collect();
        prop_assert_eq!(got, model.keys().copied().collect::<Vec<_>>());
    }
}

/// An internal split at every position: a root of 32 children, built by
/// appends, takes keys into child `j` until that leaf splits and the
/// root splits with it, the new child at `j + 1`. After every insert the
/// tree has the parent's shape and room, and at the split the half that
/// got the new child keeps the root's block.
#[test]
fn internal_splits_at_every_position_keep_the_shape() {
    for j in 0..32 {
        let mut tree: BPlusTree<u64> = BPlusTree::new();
        let mut parent: reference::BPlusTree<u64> = reference::BPlusTree::new();
        let mut k = 0;
        while levels(tree.node_fill())
            .get(&2)
            .is_none_or(|root| root[0].0 < 32)
        {
            tree.insert(Key(64 * k), k);
            parent.insert(Key(64 * k), k);
            k += 1;
        }
        // Keys between leaf `j`'s first two, until the root splits.
        let first = |tree: &BPlusTree<u64>| {
            let below: usize = levels(tree.node_fill())[&1][..j].iter().map(|l| l.0).sum();
            tree.iter()[below].0.raw()
        };
        let base = first(&tree);
        let mut gap = 1;
        while tree.height() == 2 {
            tree.insert(Key(base + gap), gap);
            parent.insert(Key(base + gap), gap);
            gap += 1;
            assert_eq!(
                levels(tree.node_fill()),
                levels(parent.node_fill()),
                "child {j}"
            );
        }
        assert_eq!(tree.iter(), parent.iter());
        let halves = &levels(tree.node_fill())[&2];
        let kept = if j + 1 < 17 { halves[0] } else { halves[1] };
        assert_eq!(
            kept.1, 33,
            "child {j}: the new child's half keeps the block"
        );
        tree.check_invariants();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn range_visitor_matches_the_parent_range(
        keys in proptest::collection::btree_set(0u64..6_000, 0..3_000),
        removed in proptest::collection::btree_set(0u64..6_000, 0..600),
    ) {
        let mut tree: BPlusTree<u64> = BPlusTree::new();
        let mut parent: reference::BPlusTree<u64> = reference::BPlusTree::new();
        for &k in &keys {
            tree.insert(Key(k), k);
            parent.insert(Key(k), k);
        }
        // Removals leave separators that no longer equal a leaf's first key.
        for &k in &removed {
            tree.remove(Key(k));
            parent.remove(Key(k));
        }
        let sorted: Vec<u64> = tree.iter().into_iter().map(|(k, _)| k.raw()).collect();
        let mut points = vec![0, 6_000];
        let mut at = 0;
        for len in levels(tree.node_fill()).get(&1).into_iter().flatten().map(|&(len, _)| len) {
            if len > 0 {
                let (first, last) = (sorted[at], sorted[at + len - 1]);
                points.extend([first.saturating_sub(1), first, last, last + 1]);
            }
            at += len;
        }
        points.sort_unstable();
        points.dedup();

        let check = |a: u64, b: u64| {
            let range = KeyRange::new(Key(a), Key(b));
            let mut got = Vec::new();
            tree.visit_range(range, |k, v| got.push((k, *v)));
            let want: Vec<(Key, u64)> = parent.range(range).into_iter().map(|(k, v)| (k, *v)).collect();
            prop_assert_eq!(&got, &want, "[{}, {})", a, b);
            prop_assert_eq!(got.len(), sorted.iter().filter(|&&k| a <= k && k < b).count());
        };
        for (i, &a) in points.iter().enumerate() {
            check(a, a);
            check(a, a + 1);
            check(a + 1, a);
            for &b in &points[i..(i + 6).min(points.len())] {
                check(a, b);
            }
        }
        check(0, u64::MAX);
        prop_assert!(tree.height() <= 3);
    }
}
