//! Quickstart: build a small WattDB cluster, load TPC-C, run an OLTP mix,
//! and trigger a physiological rebalance.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wattdb_common::{NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;

fn main() {
    // A 6-node cluster; data initially lives on nodes 0 and 1, the other
    // four are in standby drawing 2.5 W each.
    let mut db = WattDb::builder()
        .nodes(6)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(16)
        .seed(42)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .build();

    // `status()` reports power (and CPU) over the window since the
    // previous `status()` call; the first one reads an idle cluster.
    println!("cluster up: power draw {:.1} W", db.status().total_power.0);

    // 16 closed-loop clients with 100 ms mean think time.
    db.start_oltp(16, SimDuration::from_millis(100));
    db.run_for(SimDuration::from_secs(30));
    println!(
        "after 30 s: {} transactions completed ({} aborted), {:.1} W",
        db.completed(),
        db.aborted(),
        db.status().total_power.0
    );

    // Move half the data onto two freshly powered nodes, §4.3-style:
    // master first, segment read locks, bulk copies, ownership switch.
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    while db.rebalancing() {
        db.run_for(SimDuration::from_secs(10));
    }
    let report = db.last_rebalance().expect("rebalanced");
    println!(
        "rebalanced: {} segments in {:.1} s ({} bytes shipped), {:.1} W meanwhile",
        report.segments_moved,
        report.finished.since(report.started).as_secs_f64(),
        report.bytes_moved,
        db.status().total_power.0
    );

    // Keep serving: the new nodes now own half the key space.
    db.run_for(SimDuration::from_secs(30));
    db.stop_clients();
    let status = db.status();
    println!(
        "final: {} transactions, cluster at {:.1} W across {} active nodes",
        db.completed(),
        status.total_power.0,
        status.active_nodes
    );

    // Per-bucket series (the Fig. 6 data for this run).
    println!("\n t(s)      qps   resp(ms)      W");
    for (at, qps, resp, watts, _) in db.timeseries() {
        println!(
            "{:>5.0} {:>8.1} {:>10.2} {:>6.1}",
            at.as_secs_f64(),
            qps,
            resp,
            watts
        );
    }
}
