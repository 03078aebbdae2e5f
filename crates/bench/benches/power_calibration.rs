//! §3.1 power anchors — the calibration table behind every Watt reported.
//!
//! Paper: node 22–26 W active / 2.5 W standby; switch 20 W; minimal
//! configuration ≈ 65 W (no drives) / 70–75 W (with drives); full cluster
//! 260–280 W.

use wattdb_common::{NodeId, SimTime, Watts};
use wattdb_core::{Cluster, ClusterConfig};
use wattdb_energy::{proportionality_index_rated, UtilPower};

fn cluster_power(active: u16, utilization_hint: &str) -> f64 {
    let nodes: Vec<NodeId> = (0..active).map(NodeId).collect();
    let cl = Cluster::new(
        ClusterConfig {
            nodes: 10,
            buffer_pages: 64,
            ..Default::default()
        },
        &nodes,
    );
    let mut c = cl.borrow_mut();
    let _ = utilization_hint;
    c.sample_power(SimTime::from_secs(1)).0
}

fn main() {
    println!("Power calibration — §3.1 anchors");
    println!(
        "{:<42} {:>10} {:>14}",
        "configuration", "model W", "paper W"
    );
    let minimal = cluster_power(1, "idle");
    println!(
        "{:<42} {:>10.1} {:>14}",
        "1 active node + 9 standby + switch + drives", minimal, "~70-75"
    );
    let two = cluster_power(2, "idle");
    println!(
        "{:<42} {:>10.1} {:>14}",
        "2 active nodes (initial experiment state)", two, "-"
    );
    let full_idle = cluster_power(10, "idle");
    println!(
        "{:<42} {:>10.1} {:>14}",
        "10 active nodes, idle", full_idle, "-"
    );
    // Full utilization: idle→max adds 4 W per node.
    let full_load = full_idle + 10.0 * 4.0;
    println!(
        "{:<42} {:>10.1} {:>14}",
        "10 active nodes, full utilization", full_load, "~260-280 +drives"
    );

    // Energy proportionality of the node-deactivating cluster vs. one
    // always-on configuration (the paper's §1 motivation), both against
    // the deployment's rated peak: ten nodes at full utilization.
    let steps: Vec<UtilPower> = (0..=10u16)
        .map(|n| {
            let p = if n == 0 {
                cluster_power(1, "idle")
            } else {
                cluster_power(n, "busy") + n as f64 * 4.0
            };
            UtilPower {
                utilization: n as f64 / 10.0,
                power: Watts(p),
            }
        })
        .collect();
    let always_on: Vec<UtilPower> = (0..=10u16)
        .map(|n| UtilPower {
            utilization: n as f64 / 10.0,
            power: Watts(full_idle + n as f64 * 4.0),
        })
        .collect();
    println!(
        "\nenergy-proportionality index (rated peak {full_load:.1} W): dynamic cluster {:.3} vs always-on {:.3}",
        proportionality_index_rated(&steps, Watts(full_load)),
        proportionality_index_rated(&always_on, Watts(full_load))
    );
}
