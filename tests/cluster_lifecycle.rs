//! Integration: full cluster lifecycle — load, serve, rebalance under
//! load, verify §4.3's correctness obligations end to end.

use wattdb_common::{NodeId, PageId, SimDuration};
use wattdb_core::api::{WattDb, WattDbBuilder};
use wattdb_core::cluster::Scheme;
use wattdb_core::migration::Pending;
use wattdb_core::ClientBatching;
use wattdb_storage::RECORD_HEADER_PHYSICAL;
use wattdb_txn::CcMode;

fn builder(scheme: Scheme, seed: u64) -> WattDbBuilder {
    WattDb::builder()
        .nodes(6)
        .scheme(scheme)
        .warehouses(4)
        .density(0.01)
        .segment_pages(8)
        .seed(seed)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
}

fn build(scheme: Scheme, seed: u64) -> WattDb {
    builder(scheme, seed).build()
}

fn build_pooled(seed: u64) -> WattDb {
    builder(Scheme::Physiological, seed)
        .client_batching(ClientBatching::Pooled)
        .build()
}

/// Checksum of all (table-agnostic) keys to detect loss/duplication.
fn key_checksum(db: &WattDb) -> u64 {
    db.with_cluster(|c| {
        let mut sum: u64 = 0;
        for idx in c.indexes.values() {
            for (k, _) in idx.entries() {
                sum = sum.wrapping_add(k.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
        }
        sum
    })
}

#[test]
fn physiological_move_preserves_every_record() {
    let mut db = build(Scheme::Physiological, 1);
    let before_keys = db.live_records();
    let before_sum = key_checksum(&db);
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    db.run_for(SimDuration::from_secs(200));
    assert!(!db.rebalancing(), "move finished");
    assert_eq!(
        db.live_records(),
        before_keys,
        "no record lost or duplicated"
    );
    assert_eq!(key_checksum(&db), before_sum, "exact key population");
    // Ownership genuinely moved: targets now hold segments.
    let status = db.status();
    assert!(status.nodes[2].segments > 0);
    assert!(status.nodes[3].segments > 0);
}

#[test]
fn logical_move_preserves_every_record() {
    let mut db = build(Scheme::Logical, 2);
    let before_keys = db.live_records();
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    for _ in 0..240 {
        db.run_for(SimDuration::from_secs(5));
        if !db.rebalancing() {
            break;
        }
    }
    assert!(!db.rebalancing(), "logical move finished");
    // The logical move tombstones source records; vacuum reclaims them,
    // leaving exactly the original key population (now at the targets).
    db.with_runtime(|cl, _| cl.borrow_mut().vacuum_all())
        .unwrap();
    assert_eq!(db.live_records(), before_keys);
    assert!(db.last_rebalance().unwrap().records_moved > 0);
}

#[test]
fn logical_single_source_rebalance_lands_what_it_reports() {
    // No clients: every record the report counts must be an index entry on
    // a target afterwards, and every key must be found where it routes —
    // with one source and with two, whose chains each stage their own
    // batch.
    let cases: [(&[NodeId], &[NodeId], u64); 2] = [
        (&[NodeId(0)], &[NodeId(2)], 24_559),
        (&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)], 49_284),
    ];
    for (sources, targets, expected) in cases {
        let mut db = builder(Scheme::Logical, 17).density(0.05).build();
        db.rebalance(0.5, sources, targets);
        for _ in 0..240 {
            db.run_for(SimDuration::from_secs(5));
            if !db.rebalancing() {
                break;
            }
        }
        assert!(!db.rebalancing(), "logical move finished");
        let landed: usize = db.with_cluster(|c| {
            (targets.iter().flat_map(|&t| c.seg_dir.on_node(t)))
                .map(|m| c.indexes[&m.id].len())
                .sum()
        });
        let reported = db.last_rebalance().expect("report").records_moved;
        assert_eq!(reported, expected, "{} source(s)", sources.len());
        assert_eq!(landed as u64, reported, "the report counts what landed");
        db.with_cluster(|c| c.check_reachable())
            .expect("every key is where it routes");
    }
}

#[test]
fn logical_rebalance_under_oltp_leaves_every_key_reachable() {
    // Clients update and insert (NewOrder) into ranges while their batches
    // (MVCC) or whole ranges (MGL-RX) are in flight: a key still live at
    // the source when its step lands keeps its route there and moves later.
    for mode in [CcMode::Mvcc, CcMode::LockingRx] {
        let mut db = builder(Scheme::Logical, 8).cc_mode(mode).build();
        db.start_oltp(8, SimDuration::from_millis(50));
        db.run_for(SimDuration::from_secs(5));
        let before = db.live_records();
        db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        for _ in 0..120 {
            db.run_for(SimDuration::from_secs(5));
            if !db.rebalancing() {
                break;
            }
        }
        assert!(!db.rebalancing(), "{mode:?}: logical move finished");
        db.stop_clients();
        db.run_for(SimDuration::from_secs(5));
        assert!(db.live_records() > before, "{mode:?}: clients inserted");
        assert!(db.last_rebalance().expect("report").records_moved > 0);
        db.with_cluster(|c| c.check_reachable())
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
    }
}

#[test]
fn physical_move_keeps_ownership_but_relocates_storage() {
    let mut db = build(Scheme::Physical, 3);
    let router_before = db.with_cluster(|c| c.router.nodes_with_data());
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    db.run_for(SimDuration::from_secs(200));
    assert!(!db.rebalancing());
    // Storage moved...
    assert!(db.status().nodes[2].segments > 0);
    // ...but query ownership did not: the router still names only the
    // original nodes (that is physical partitioning's defect, §4.1/§5.2).
    assert_eq!(
        db.with_cluster(|c| c.router.nodes_with_data()),
        router_before
    );
}

/// Under physical partitioning a segment leaves its *storage* node: after
/// a first move shipped half of n0's segments to n1 (n0 still owns them),
/// a second fraction rebalance off n0 plans only segments n0 still stores
/// — never n1's, whose bytes n0's disk and NIC would be billed for.
#[test]
fn physical_replan_moves_only_what_the_source_stores() {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physical)
        .warehouses(2)
        .density(0.02)
        .segment_pages(8)
        .seed(17)
        .initial_data_nodes(&[NodeId(0)])
        .build();
    db.start_oltp(8, SimDuration::from_millis(100));
    let settle = |db: &mut WattDb| {
        for _ in 0..60 {
            db.run_for(SimDuration::from_secs(5));
            if !db.rebalancing() {
                return;
            }
        }
        panic!("rebalance did not finish");
    };
    let stored = |db: &WattDb| {
        db.with_cluster(|c| {
            (0..3)
                .map(|n| c.seg_dir.on_node(NodeId(n)).count())
                .collect::<Vec<_>>()
        })
    };
    db.rebalance(0.5, &[NodeId(0)], &[NodeId(1)]);
    settle(&mut db);
    let first = stored(&db);
    assert_eq!(&first[..2], [37, 31]);
    db.rebalance(0.5, &[NodeId(0)], &[NodeId(2)]);
    let moves = db.with_cluster(|c| {
        let chains = c.mover.iter().flat_map(|m| &m.chains);
        let segments = chains.flat_map(|ch| ch.moves()).filter_map(|p| match p {
            Pending::Segment(mv) => Some((mv.from, c.seg_dir.get(mv.seg).unwrap().node)),
            _ => None,
        });
        segments.collect::<Vec<_>>()
    });
    assert!(!moves.is_empty(), "n0 still stores segments to shed");
    for (from, stored_on) in moves {
        assert_eq!(
            (from, stored_on),
            (NodeId(0), NodeId(0)),
            "a move leaves where it lies"
        );
    }
    settle(&mut db);
    let second = stored(&db);
    assert_eq!(second[1], first[1], "n1 keeps what it stores");
    assert_eq!(
        second[0] + second[2],
        first[0],
        "n0's segments split with n2"
    );
    assert!(second[2] > 0);
    db.stop_clients();
}

#[test]
fn rebalance_under_load_serves_queries_throughout() {
    let mut db = build(Scheme::Physiological, 4);
    db.start_oltp(8, SimDuration::from_millis(50));
    db.run_for(SimDuration::from_secs(10));
    let before = db.completed();
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    db.run_for(SimDuration::from_secs(30));
    let during_or_after = db.completed();
    assert!(
        during_or_after > before + 50,
        "queries keep completing while repartitioning ({before} -> {during_or_after})"
    );
    db.stop_clients();
}

/// A version is its header: after an OLTP run and a logical move, every
/// version in the store — loaded, written by a client, tombstoned or
/// re-created by the mover — is exactly a header long, so no stand-in
/// payload creeps back.
#[test]
fn every_stored_version_is_a_header() {
    let mut db = build(Scheme::Logical, 6);
    db.start_oltp(8, SimDuration::from_millis(50));
    db.run_for(SimDuration::from_secs(10));
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    db.run_for(SimDuration::from_secs(20));
    db.stop_clients();
    let (versions, keys) = db.with_cluster(|c| {
        let mut versions = 0;
        for (seg, idx) in c.indexes.iter() {
            for page_no in 0..c.store.page_count(seg) {
                let page = c.store.page(PageId::new(seg, page_no as u32)).unwrap();
                for (slot, bytes) in page.iter() {
                    assert_eq!(
                        bytes.len(),
                        RECORD_HEADER_PHYSICAL,
                        "{seg} page {page_no} slot {slot}"
                    );
                    versions += 1;
                }
            }
            assert!(idx.len() <= versions);
        }
        (
            versions,
            c.indexes.values().map(|idx| idx.len()).sum::<usize>(),
        )
    });
    assert!(
        versions > keys,
        "the run wrote versions: {versions} for {keys} keys"
    );
}

#[test]
fn transactions_started_before_move_read_consistently() {
    // §4.3 proof obligation 1: a snapshot taken before rebalancing stays
    // readable afterwards (MVCC keeps old versions).
    let mut db = build(Scheme::Physiological, 5);
    let key = wattdb_tpcc::keys::customer(3, 2, 1);
    let table = wattdb_tpcc::TpccTable::Customer.table_id();
    // Start a long transaction before the move.
    let (snap_txn, seg_before) = db.with_runtime(|cl, _| {
        let mut c = cl.borrow_mut();
        let txn = c.txn.begin(wattdb_txn::TxnKind::User);
        let route = c.router.route(table, key).unwrap();
        let part = &c.partitions[&route.primary.partition];
        let seg = part.top.segment_for(key).unwrap();
        (txn, seg)
    });
    // A version is its header: the one the snapshot sees is named by its
    // key and the commit that created it.
    let version = |r: wattdb_storage::Record| (r.key, r.begin, r.logical_width);
    let before = db.with_cluster(|c| {
        let idx = &c.indexes[&seg_before];
        version(c.txn.read(snap_txn, idx, &c.store, key).unwrap().unwrap())
    });
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    db.run_for(SimDuration::from_secs(200));
    assert!(!db.rebalancing());
    // The old transaction still reads its snapshot — the segment index
    // moved intact with the segment.
    let after = db.with_cluster(|c| {
        let route = c.router.route(table, key).unwrap();
        let part = &c.partitions[&route.primary.partition];
        let seg = part.top.segment_for(key).unwrap();
        let idx = &c.indexes[&seg];
        version(c.txn.read(snap_txn, idx, &c.store, key).unwrap().unwrap())
    });
    assert_eq!(before, after);
}

#[test]
fn transactions_after_move_route_to_new_node() {
    // §4.3 proof obligation 2: post-move transactions go to the new owner.
    let mut db = build(Scheme::Physiological, 6);
    let key = wattdb_tpcc::keys::customer(3, 9, 2);
    let table = wattdb_tpcc::TpccTable::Customer.table_id();
    let owner_before = db.with_cluster(|c| c.router.route(table, key).unwrap().primary.node);
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    db.run_for(SimDuration::from_secs(200));
    let res = db.with_cluster(|c| c.router.route(table, key).unwrap());
    // Warehouse 3 sits in the upper half of node 1's range: it moved.
    assert_ne!(res.primary.node, owner_before, "ownership transferred");
    assert_eq!(res.also, None, "old pointer deleted after the move");
}

#[test]
fn deterministic_experiments() {
    let run = |seed: u64| {
        let mut db = build(Scheme::Physiological, seed);
        db.start_oltp(4, SimDuration::from_millis(50));
        db.run_for(SimDuration::from_secs(10));
        db.stop_clients();
        db.completed()
    };
    assert_eq!(run(42), run(42), "same seed, same result");
    assert_ne!(run(42), run(43), "different seed, different interleaving");
}

/// Stop the clients, let in-flight work drain, and require an empty lock
/// table: no target, no queued request, no parked job, no job at all.
fn assert_quiescent(db: &mut WattDb, what: &str) {
    db.stop_clients();
    db.run_for(SimDuration::from_secs(60));
    assert!(!db.rebalancing(), "{what}: rebalance still running");
    db.with_cluster(|c| {
        let locks = &c.txn.locks;
        assert_eq!(locks.check_invariants(), Ok(()), "{what}");
        assert_eq!(locks.active_targets(), 0, "{what}: lock state left");
        assert_eq!(locks.queued_requests(), 0, "{what}: queued requests left");
        assert!(c.lock_waiters.is_empty(), "{what}: parked waiters left");
        assert_eq!(c.jobs.len(), 0, "{what}: jobs in flight");
    });
}

#[test]
fn lock_table_is_empty_at_quiescence() {
    // Saturated per-client run: deep lock queues.
    let mut db = build(Scheme::Physiological, 6);
    db.start_oltp(400, SimDuration::from_millis(50));
    db.run_for(SimDuration::from_secs(10));
    db.with_cluster(|c| assert!(c.txn.locks.wait_count() > 0, "no request ever waited"));
    assert_quiescent(&mut db, "per-client");

    let mut db = build_pooled(7);
    db.start_oltp(20_000, SimDuration::from_secs(10));
    db.run_for(SimDuration::from_secs(10));
    assert_quiescent(&mut db, "pooled");

    // Clients stop while the mover still holds and waits for segment locks.
    let mut db = build(Scheme::Physiological, 8);
    db.start_oltp(100, SimDuration::from_millis(50));
    db.run_for(SimDuration::from_secs(5));
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    db.run_for(SimDuration::from_secs(2));
    assert!(db.rebalancing(), "rebalance over before the clients stop");
    assert_quiescent(&mut db, "rebalance under load");
}

#[test]
fn dropping_a_deployment_mid_run_frees_it() {
    let mut db = build_pooled(5);
    db.start_oltp(50_000, SimDuration::from_secs(10));
    db.run_for(SimDuration::from_secs(5));
    // Mid-run, with requests waiting on the drives: the kernel holds
    // their continuations, which hold the cluster.
    let now = db.now();
    let queued: usize = db.with_cluster(|c| {
        let drives = c.nodes.iter().flat_map(|n| &n.disks);
        drives.map(|d| d.resource().borrow().queue_len(now)).sum()
    });
    assert!(queued > 0, "no work queued: the drop below proves nothing");
    let cluster = db.with_runtime(|cl, _| std::rc::Rc::downgrade(cl));
    drop(db);
    assert!(
        cluster.upgrade().is_none(),
        "dropped deployment still alive"
    );
}
