//! Property test: [`DenseMap`] against a `BTreeMap` model.
//!
//! Random insert / replace / remove / get / get-or-insert runs over ids
//! drawn from three bands — small (the dense vector), around
//! [`DENSE_BOUND`] (the last dense slot, the first spilled id) and far
//! above it up to `u64::MAX` — must agree with the model on every return
//! value, on `len`, and on the ascending `iter` / `values` walk, while the
//! vector's capacity never passes the bound.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wattdb_common::{DenseMap, SegmentId, DENSE_BOUND};

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
    GetOrInsert(u64, u32),
    Bump(u64),
}

fn id_strategy() -> impl Strategy<Value = u64> {
    let bound = DENSE_BOUND as u64;
    prop_oneof![
        6 => 0u64..48,
        2 => (bound - 3)..(bound + 3),
        1 => (u64::MAX - 4)..u64::MAX,
        1 => Just(u64::MAX),
        1 => any::<u64>(),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (id_strategy(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => id_strategy().prop_map(Op::Remove),
        2 => id_strategy().prop_map(Op::Get),
        2 => (id_strategy(), any::<u32>()).prop_map(|(k, v)| Op::GetOrInsert(k, v)),
        1 => id_strategy().prop_map(Op::Bump),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_map_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut map: DenseMap<SegmentId, u32> = DenseMap::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(map.insert(SegmentId(k), v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(map.remove(&SegmentId(k)), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(map.get(&SegmentId(k)), model.get(&k));
                }
                Op::GetOrInsert(k, v) => {
                    let got = *map.get_or_insert_with(SegmentId(k), || v);
                    prop_assert_eq!(got, *model.entry(k).or_insert(v));
                }
                Op::Bump(k) => {
                    let got = map.get_mut(&SegmentId(k)).map(|v| {
                        *v = v.wrapping_add(1);
                        *v
                    });
                    let want = model.get_mut(&k).map(|v| {
                        *v = v.wrapping_add(1);
                        *v
                    });
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            prop_assert!(map.capacity() <= DENSE_BOUND, "capacity {}", map.capacity());
        }

        // Every walk is the model's: ascending ids, spilled ones last.
        let got: Vec<(u64, u32)> = map.iter().map(|(k, v)| (k.raw(), *v)).collect();
        let want: Vec<(u64, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(&got, &want);
        let values: Vec<u32> = map.values().copied().collect();
        prop_assert_eq!(values, model.values().copied().collect::<Vec<_>>());
        for v in map.values_mut() {
            *v ^= 1;
        }
        for (k, v) in map.iter_mut() {
            prop_assert_eq!(*v ^ 1, model[&k.raw()]);
        }
    }
}
