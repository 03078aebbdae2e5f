//! Ablation — segment size (the unit of movement).
//!
//! The paper fixes segments at 32 MB / 4096 pages. Smaller segments give
//! finer-grained moves (shorter per-segment write stalls) but more of
//! them, plus larger top indexes.

use wattdb_common::{NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;

fn main() {
    println!("Ablation — segment size vs. physiological rebalance");
    println!(
        "{:>14} {:>10} {:>14} {:>16}",
        "segment pages", "segments", "moved segs", "rebalance (s)"
    );
    for pages in [8u32, 16, 64, 256] {
        let mut db = WattDb::builder()
            .nodes(6)
            .scheme(Scheme::Physiological)
            .warehouses(4)
            .density(0.02)
            .io_scale(300)
            .segment_pages(pages)
            .seed(11)
            .initial_data_nodes(&[NodeId(0), NodeId(1)])
            .build();
        db.start_oltp(8, SimDuration::from_millis(100));
        db.run_for(SimDuration::from_secs(10));
        let segments = db.status().segments;
        db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        for _ in 0..200 {
            db.run_for(SimDuration::from_secs(5));
            if !db.rebalancing() {
                break;
            }
        }
        db.stop_clients();
        let report = db.last_rebalance();
        match report {
            Some(r) => println!(
                "{pages:>14} {segments:>10} {:>14} {:>16.1}",
                r.segments_moved,
                r.finished.since(r.started).as_secs_f64()
            ),
            None => println!(
                "{pages:>14} {segments:>10} {:>14} {:>16}",
                "-", "unfinished"
            ),
        }
    }
}
