//! The scale-out crunch, window by window.
//!
//! Builds the benchmark's `elastic-diurnal` deployment through the public
//! builder — 4 nodes, 2 holding data, 8 warehouses at density 0.02,
//! 8-page segments, ×40 per-operation CPU, pooled clients, the autopilot
//! on, a diurnal trace from 40 to 800 clients over 120 s thinking 2 s —
//! and prints one line per 5 s monitoring window: the trace's client
//! target, commits per second, each node's state, CPU and segment count,
//! cluster power, and whether a rebalance is in flight. The exported
//! timeline's `explain()` follows: what the autopilot decided in those
//! windows, and why.
//!
//! The per-layer benchmark table says *that* `elastic-diurnal` answers in
//! seconds; this says *when*: which window the policy scaled in on a rising
//! load, how long the first scale-out's copy took off a saturated source,
//! and how little the node it filled then had to do.
//!
//! ```sh
//! cargo run --release --example crunch_timeline        # seed 11
//! cargo run --release --example crunch_timeline -- 12
//! ```

use wattdb_common::{CostParams, NodeId, SimDuration};
use wattdb_core::cluster::Scheme;
use wattdb_core::{ClientBatching, WattDb};
use wattdb_energy::NodeState;
use wattdb_tpcc::{DiurnalConfig, LoadTrace, TenantSpec};

const WINDOW_S: u64 = 5;
const PERIOD_S: u64 = 120;

fn main() {
    let seed = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("usage: crunch_timeline [seed]"),
        None => 11,
    };

    // The full SQL-layer work on wimpy cores, so the client load saturates
    // nodes (the calibration `elastic-diurnal` runs under).
    let costs = CostParams::scaled(40);

    let mut db = WattDb::builder()
        .scheme(Scheme::Physiological)
        .nodes(4)
        .warehouses(8)
        .density(0.02)
        .segment_pages(8)
        .costs(costs)
        .seed(seed)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .client_batching(ClientBatching::Pooled)
        .monitoring(SimDuration::from_secs(WINDOW_S))
        .telemetry(true)
        .autopilot(true)
        .build();
    db.start_traced_oltp(
        LoadTrace::diurnal(DiurnalConfig {
            min_clients: 40,
            max_clients: 800,
            period: SimDuration::from_secs(PERIOD_S),
            phase: 0.0,
            step: SimDuration::from_secs(WINDOW_S),
            horizon: SimDuration::from_secs(PERIOD_S),
            tenant: TenantSpec::default(),
        }),
        SimDuration::from_secs(2),
    );

    println!("seed {seed}; per node  state:cpu%:segments  (A active, - standby)");
    println!("   t  clients  txn/s  | n0          n1          n2          n3          |  watts");
    let mut committed = db.completed();
    for _ in 0..PERIOD_S / WINDOW_S {
        // The target in force during the window, read before it runs.
        let target = db.with_cluster(|c| c.pool.as_ref().map_or(0, |p| p.current_target()));
        db.run_for(SimDuration::from_secs(WINDOW_S));
        let status = db.status();
        let per_s = (db.completed() - committed) as f64 / WINDOW_S as f64;
        committed = db.completed();
        print!(
            "{:>4.0}  {target:>7}  {per_s:>5.1}  |",
            status.at.as_secs_f64()
        );
        for n in &status.nodes {
            let state = if n.state == NodeState::Active {
                'A'
            } else {
                '-'
            };
            print!(" {state}:{:>3.0}%:{:<4}", n.cpu * 100.0, n.segments);
        }
        let moving = if status.rebalancing {
            "  rebalancing"
        } else {
            ""
        };
        println!(" | {:>5.1}{moving}", status.total_power.0);
    }
    db.stop_clients();

    println!("\nwhat the autopilot did, and why:");
    // Rendered purely from the exported form: exactly what an offline
    // reader of the artifact would reconstruct.
    let timeline =
        wattdb_telemetry::parse_jsonl(&db.export_timeline_string()).expect("own export parses");
    for line in timeline.explain() {
        println!("  {line}");
    }
}
