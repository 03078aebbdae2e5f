//! Engine throughput — what one simulated second costs in wall-clock
//! time, across the client-population ladder and both client modes.
//!
//! The hot-path batching work (aggregated arrivals, allocation-free kernel,
//! lazy heat decay) exists to make huge modeled populations cheap. This
//! bench proves it: a {1×, 10×, 100×} × {per-client, pooled} matrix over
//! the same TPC-C deployment, reporting events/sec, committed (modeled)
//! txns/sec, and wall-clock-per-sim-second per cell, written to
//! `BENCH_throughput.json` for CI to validate and upload.
//!
//! Every cell runs the same horizon. At 10× and 100× the deployment is
//! saturated, and there the two modes stop modeling the same thing: a
//! per-client population queues on locks and CPUs client by client, a
//! pooled carrier stands for many clients that never contend with each
//! other. `saturation_fidelity_{10x,100x}` — per-client ÷ pooled committed
//! transactions per *simulated* second — is how far pooled mode
//! over-reports saturated throughput.

use std::time::Instant;

use wattdb_common::{NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::ClientBatching;
use wattdb_tpcc::carrier_split;

/// Mean think time, fixed across every cell: the population ladder scales
/// the *offered load* (n / think), which is what the engine pays for.
const THINK: SimDuration = SimDuration::from_secs(10);
/// Measurement horizon in simulated seconds.
const SIM_SECS: u64 = 30;
/// Warm-up before the measured window, in simulated seconds.
const WARMUP_SIM_SECS: u64 = 2;

struct Cell {
    scale: &'static str,
    mode: &'static str,
    modeled: u32,
    carriers: u32,
    weight: u64,
    wall_secs: f64,
    events: u64,
    committed: u64,
}

impl Cell {
    fn events_per_wall_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }
    fn txns_per_wall_sec(&self) -> f64 {
        self.committed as f64 / self.wall_secs.max(1e-9)
    }
    fn wall_per_sim_sec(&self) -> f64 {
        self.wall_secs / SIM_SECS as f64
    }
    fn txns_per_sim_sec(&self) -> f64 {
        self.committed as f64 / SIM_SECS as f64
    }
}

fn build(batching: ClientBatching) -> WattDb {
    WattDb::builder()
        .nodes(6)
        .scheme(Scheme::Physiological)
        .warehouses(8)
        .density(0.05)
        .segment_pages(16)
        .seed(11)
        .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
        .client_batching(batching)
        .build()
}

fn run_cell(scale: &'static str, n: u32, pooled: bool) -> Cell {
    let batching = if pooled {
        ClientBatching::Pooled
    } else {
        ClientBatching::PerClient
    };
    let mut db = build(batching);
    let (carriers, weight) = if pooled { carrier_split(n) } else { (n, 1) };
    db.start_oltp(n, THINK);
    let is_pooled = db.with_cluster(|c| c.pool.is_some());
    assert_eq!(is_pooled, pooled, "forced mode must stick");
    // Warm-up outside the measurement: dataset pages fault in, the first
    // arrivals stagger out.
    db.run_for(SimDuration::from_secs(WARMUP_SIM_SECS));
    let (events0, committed0) = (db.events_executed(), db.completed());
    let t0 = Instant::now();
    db.run_for(SimDuration::from_secs(SIM_SECS));
    let wall_secs = t0.elapsed().as_secs_f64();
    let cell = Cell {
        scale,
        mode: if pooled { "pooled" } else { "per-client" },
        modeled: n,
        carriers,
        weight,
        wall_secs,
        events: db.events_executed() - events0,
        committed: db.completed() - committed0,
    };
    println!(
        "{:>4} {:>10} n={:<7} carriers={:<5} w={:<3} sim={:>3.0}s wall={:>7.3}s \
         {:>12.0} ev/s {:>10.0} txn/s {:>8.4} wall-s/sim-s",
        cell.scale,
        cell.mode,
        cell.modeled,
        cell.carriers,
        cell.weight,
        SIM_SECS as f64,
        cell.wall_secs,
        cell.events_per_wall_sec(),
        cell.txns_per_wall_sec(),
        cell.wall_per_sim_sec(),
    );
    cell
}

/// Per-client ÷ pooled committed txns per simulated second at one rung.
fn saturation_fidelity(cells: &[Cell], scale: &str) -> f64 {
    cell(cells, scale, "per-client").txns_per_sim_sec()
        / cell(cells, scale, "pooled").txns_per_sim_sec().max(1e-9)
}

fn cell<'a>(cells: &'a [Cell], scale: &str, mode: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.scale == scale && c.mode == mode)
        .expect("matrix cell")
}

fn json(cells: &[Cell], speedup: f64, fidelity: [f64; 2]) -> String {
    let mut out = String::from("{\n  \"bench\": \"engine_throughput\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scale\": \"{}\", \"mode\": \"{}\", \"modeled_clients\": {}, \
             \"carriers\": {}, \"weight\": {}, \"sim_secs\": {:.1}, \"wall_secs\": {:.4}, \
             \"events\": {}, \"committed_txns\": {}, \"events_per_wall_sec\": {:.1}, \
             \"committed_txns_per_wall_sec\": {:.1}, \"wall_per_sim_sec\": {:.5}}}{}\n",
            c.scale,
            c.mode,
            c.modeled,
            c.carriers,
            c.weight,
            SIM_SECS as f64,
            c.wall_secs,
            c.events,
            c.committed,
            c.events_per_wall_sec(),
            c.txns_per_wall_sec(),
            c.wall_per_sim_sec(),
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"speedup_pooled100x_vs_perclient10x_txns_per_wall_sec\": {speedup:.2},\n  \
         \"saturation_fidelity_10x\": {:.4},\n  \"saturation_fidelity_100x\": {:.4}\n}}\n",
        fidelity[0], fidelity[1],
    ));
    out
}

fn main() {
    println!("Engine throughput — client-population ladder, per-client vs pooled");
    let cells = vec![
        run_cell("1x", 1_000, false),
        run_cell("1x", 1_000, true),
        run_cell("10x", 10_000, false),
        run_cell("10x", 10_000, true),
        run_cell("100x", 100_000, false),
        run_cell("100x", 100_000, true),
    ];

    let pc1 = cell(&cells, "1x", "per-client");
    let pc10 = cell(&cells, "10x", "per-client");
    let pooled100 = cell(&cells, "100x", "pooled");
    let speedup = pooled100.txns_per_wall_sec() / pc10.txns_per_wall_sec().max(1e-9);
    println!(
        "\ncommitted txns/wall-sec: pooled@100x {:.0} vs per-client@10x {:.0} — {speedup:.1}x",
        pooled100.txns_per_wall_sec(),
        pc10.txns_per_wall_sec(),
    );
    let scaling = pc10.wall_per_sim_sec() / pc1.wall_per_sim_sec().max(1e-9);
    println!("per-client wall-s/sim-s, 10x over 1x: {scaling:.1}x");
    let fidelity = ["10x", "100x"].map(|scale| saturation_fidelity(&cells, scale));
    println!(
        "saturation fidelity (per-client / pooled committed txns per sim-s): \
         10x {:.3}, 100x {:.3}",
        fidelity[0], fidelity[1],
    );

    // Write the artifact BEFORE the acceptance gates (CI uploads even a
    // failing run's numbers), at the repo root whatever CWD ran us.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_throughput.json");
    std::fs::write(&path, json(&cells, speedup, fidelity)).expect("write BENCH_throughput.json");
    println!("wrote {}", path.display());

    // Acceptance gates.
    assert_eq!(cells.len(), 6, "all matrix cells present");
    assert!(
        cells.iter().all(|c| c.committed > 0),
        "every cell commits transactions"
    );
    assert!(
        speedup >= 10.0,
        "pooled@100x must deliver >=10x committed txns per wall-second \
         over per-client@10x, got {speedup:.1}x"
    );
    // Ten times the clients on a saturated deployment means ~10x the
    // events in flight; a simulated second may cost that and some queueing
    // on top, not a power of the population.
    assert!(
        scaling <= 40.0,
        "per-client@10x must cost <=40x the wall-s/sim-s of per-client@1x, got {scaling:.1}x"
    );
}
