//! Property test: recovery at any crash point restores exactly the
//! transactions whose commit record made it into the durable log prefix.

use proptest::prelude::*;
use wattdb_common::{Key, KeyRange, SegmentId, TxnId};
use wattdb_index::SegmentIndex;
use wattdb_storage::{PageStore, Record};
use wattdb_txn::IndexMap;
use wattdb_wal::{insert_payload, recover, LogManager, LogPayload};

const SEG: SegmentId = SegmentId(1);

fn fresh() -> (IndexMap, PageStore) {
    let mut store = PageStore::new();
    store.add_segment(SEG);
    let mut map = IndexMap::default();
    map.insert(SEG, SegmentIndex::new(SEG, KeyRange::all()));
    (map, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recovery_prefix_is_exactly_the_committed_prefix(
        txn_sizes in proptest::collection::vec(1usize..4, 1..20),
        crash_fraction in 0.0f64..1.0,
    ) {
        // Build a log of sequential transactions, each inserting a few keys.
        let mut log = LogManager::new();
        let mut next_key = 0u64;
        let mut commit_points: Vec<(TxnId, Vec<u64>, u64)> = Vec::new(); // (txn, keys, commit lsn)
        for (i, &size) in txn_sizes.iter().enumerate() {
            let txn = TxnId(i as u64 + 1);
            log.append(txn, LogPayload::Begin);
            let mut keys = Vec::new();
            for _ in 0..size {
                let k = next_key;
                next_key += 1;
                let rec = Record::new(Key(k), 1, 64, vec![k as u8]);
                log.append(txn, insert_payload(SEG, &rec));
                keys.push(k);
            }
            let lsn = log.append(txn, LogPayload::Commit);
            commit_points.push((txn, keys, lsn.raw()));
        }
        // Crash: only a prefix of the log survived.
        let total = log.records().len();
        let surviving = ((total as f64) * crash_fraction).floor() as usize;
        let prefix = &log.records()[..surviving];

        let (mut indexes, mut store) = fresh();
        let report = recover(prefix, &mut indexes, &mut store).unwrap();

        // Exactly the transactions whose commit record survived are
        // winners, and exactly their keys exist.
        let idx = &indexes[&SEG];
        let mut expected_keys = 0usize;
        let mut expected_winners = 0usize;
        for (_, keys, commit_lsn) in &commit_points {
            let survived = (*commit_lsn as usize) <= surviving;
            if survived {
                expected_winners += 1;
                expected_keys += keys.len();
            }
            for &k in keys {
                prop_assert_eq!(
                    idx.get(Key(k)).0.is_some(),
                    survived,
                    "key {} recovered={} but commit survived={}",
                    k, idx.get(Key(k)).0.is_some(), survived
                );
            }
        }
        prop_assert_eq!(report.winners, expected_winners);
        prop_assert_eq!(idx.len(), expected_keys);
        wattdb_wal::check_consistency(idx, &store).unwrap();

        // Recovery is idempotent in outcome: recovering the same prefix
        // onto a fresh image yields the same population.
        let (mut i2, mut s2) = fresh();
        recover(prefix, &mut i2, &mut s2).unwrap();
        prop_assert_eq!(i2[&SEG].entries(), indexes[&SEG].entries());
        let _ = s2;
    }
}
