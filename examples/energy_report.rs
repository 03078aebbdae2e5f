//! Energy report: why the cluster must resize itself (§1/§3.1 quantified).
//!
//! A fixed-size cluster draws nearly constant power regardless of load —
//! the classic energy-proportionality failure that motivates WattDB. The
//! same workload on a right-sized cluster (standby nodes at 2.5 W) costs
//! far fewer Joules per query at low utilization.
//!
//! ```sh
//! cargo run --release --example energy_report
//! ```

use wattdb_common::{NodeId, SimDuration, Watts};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_energy::{proportionality_index_rated, UtilPower};

/// The 4-node deployment every measurement runs on, its data on
/// `data_nodes`.
fn deployment(data_nodes: &[NodeId]) -> WattDb {
    WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(2)
        .density(0.02)
        .segment_pages(16)
        .seed(5)
        .initial_data_nodes(data_nodes)
        .build()
}

/// Run `clients` against a cluster whose data lives on `data_nodes`;
/// returns (qps, mean W).
fn measure(clients: u32, data_nodes: &[NodeId]) -> (f64, f64) {
    let mut db = deployment(data_nodes);
    if clients > 0 {
        db.start_oltp(clients, SimDuration::from_millis(50));
    }
    db.run_for(SimDuration::from_secs(30));
    db.stop_clients();
    db.with_cluster(|c| {
        let samples = c.meter.series();
        let mean_w = samples.iter().map(|s| s.power.0).sum::<f64>() / samples.len().max(1) as f64;
        let qps = c.metrics.completed as f64 / 30.0;
        (qps, mean_w)
    })
}

fn main() {
    println!("Energy report — fixed 4-node-capable cluster vs right-sized\n");
    println!(
        "{:>8} {:>9} | {:>9} {:>11} | {:>9} {:>11}",
        "clients", "qps", "2-node W", "J/query", "sized W", "J/query"
    );
    let levels: [(u32, usize); 6] = [(0, 1), (2, 1), (4, 1), (8, 1), (16, 2), (32, 2)];
    let two = [NodeId(0), NodeId(1)];
    let one = [NodeId(0)];
    let mut fixed_obs = Vec::new();
    let mut sized_obs = Vec::new();
    let mut rows = Vec::new();
    let mut peak: f64 = 1.0;
    for &(n, nodes) in &levels {
        let (qps, w_fixed) = measure(n, &two);
        let (qps_sized, w_sized) = if nodes == 1 {
            measure(n, &one)
        } else {
            (qps, w_fixed)
        };
        peak = peak.max(qps.max(qps_sized));
        rows.push((n, qps, w_fixed, qps_sized, w_sized));
    }
    for &(n, qps, w_fixed, qps_sized, w_sized) in &rows {
        let jpq_fixed = if qps > 0.0 { w_fixed / qps } else { f64::NAN };
        let jpq_sized = if qps_sized > 0.0 {
            w_sized / qps_sized
        } else {
            f64::NAN
        };
        println!(
            "{n:>8} {qps:>9.1} | {w_fixed:>9.1} {jpq_fixed:>11.2} | {w_sized:>9.1} {jpq_sized:>11.2}"
        );
        fixed_obs.push(UtilPower {
            utilization: qps / peak,
            power: Watts(w_fixed),
        });
        sized_obs.push(UtilPower {
            utilization: qps_sized / peak,
            power: Watts(w_sized),
        });
    }
    // Both graded against the deployment's rated peak: all four nodes at
    // full utilization.
    let rated = deployment(&two).rated_peak_watts();
    println!(
        "\nenergy-proportionality index (rated peak {:.1} W): fixed {:.3} vs right-sized {:.3}",
        rated.0,
        proportionality_index_rated(&fixed_obs, rated),
        proportionality_index_rated(&sized_obs, rated)
    );
    println!("\nA fixed cluster burns ~constant Watts regardless of load (the §1");
    println!("motivation); suspending idle nodes to 2.5 W standby is what makes");
    println!("the cluster approach energy proportionality — and why repartitioning");
    println!("speed (Fig. 6) matters: it is the cost of changing size.");
}
