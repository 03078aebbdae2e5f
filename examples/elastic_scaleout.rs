//! Elastic scale-out driven by the §3.4 control loop: the cluster watches
//! its own utilization and powers nodes up when the 80 % CPU bound is
//! breached, moving data physiologically — no manual rebalance calls,
//! just the autopilot.
//!
//! ```sh
//! cargo run --release --example elastic_scaleout
//! ```

use wattdb_common::{CostParams, NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::heat::segment_stats;
use wattdb_core::policy::PolicyConfig;

fn main() {
    // Heavier per-operation CPU (the full SQL-layer work on wimpy Atom
    // cores) so a single node saturates under this client load.
    let mut costs = CostParams::default();
    costs.index_node_visit = costs.index_node_visit * 40;
    costs.record_read = costs.record_read * 40;
    costs.record_write = costs.record_write * 40;
    costs.log_append = costs.log_append * 40;
    costs.buffer_hit = costs.buffer_hit * 40;

    let mut db = WattDb::builder()
        .nodes(6)
        .scheme(Scheme::Physiological)
        .warehouses(4)
        .density(0.02)
        .segment_pages(16)
        .io_scale(50)
        .costs(costs)
        .seed(1)
        .initial_data_nodes(&[NodeId(0)])
        .policy(PolicyConfig {
            cpu_high: 0.8,
            cpu_low: 0.2,
            patience: 2,
            ..Default::default()
        })
        .monitoring(SimDuration::from_secs(5))
        .autopilot(true)
        .build();

    // One node serves everything; a heavy client load will push its CPU
    // past the threshold and the autopilot takes it from there.
    db.start_oltp(48, SimDuration::from_millis(30));
    db.run_for(SimDuration::from_secs(180));
    db.stop_clients();

    println!("autopilot decisions:");
    for e in db.events() {
        println!(
            "  t={:>4.0}s  mean cpu {:>4.1}%  max {:>4.1}%  [{}] {:?} -> {:?}",
            e.at.as_secs_f64(),
            e.signals.mean_active_cpu * 100.0,
            e.signals.max_cpu * 100.0,
            e.planner.label(),
            e.decision,
            e.outcome,
        );
    }

    if let Some(r) = db.last_rebalance() {
        println!(
            "\nlast rebalance: planner={} segments={} bytes={} heat planned={:.1} moved={:.1}",
            r.planner.label(),
            r.segments_moved,
            r.bytes_moved,
            r.heat_planned,
            r.heat_moved,
        );
    }
    println!("\nhottest segments now:");
    let now = db.now();
    db.with_cluster(|c| {
        let mut hottest = segment_stats(c, now, SimDuration::ZERO);
        hottest.sort_by(|a, b| b.heat.total_cmp(&a.heat).then(a.seg.cmp(&b.seg)));
        for s in hottest.into_iter().take(5) {
            let (r, w, remote) = c
                .heat
                .stats(s.seg)
                .map_or((0, 0, 0), |h| (h.reads, h.writes, h.remote_fetches));
            println!(
                "  seg {:>4} on {}  heat {:>8.2}  (r {r} / w {w} / remote {remote})",
                s.seg.raw(),
                s.node,
                s.heat,
            );
        }
    });

    let status = db.status();
    println!(
        "\nactive nodes at end: {} of {} ({} segments total)",
        status.active_nodes,
        status.nodes.len(),
        status.segments
    );
    for n in status.nodes.iter().filter(|n| n.segments > 0) {
        println!("  {}: {} segments ({:?})", n.node, n.segments, n.state);
    }
    assert!(
        status.active_nodes > 1,
        "the autopilot should have scaled out under this load"
    );
    println!("\nscale-out happened autonomously — no manual rebalance call.");
}
