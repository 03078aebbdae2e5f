//! Fig. 6 — "Benchmark results for various partitioning schemes under a
//! TPC-C query mix": throughput, response time, power, and energy per
//! query over time, for physical / logical / physiological partitioning.
//!
//! At t = 0 the cluster is instructed to move 50 % of the data from the
//! two loaded nodes to two freshly powered nodes. Paper shape: all schemes
//! dip at t 0; physical never recovers its old level (ownership stays
//! behind); logical dips deepest then overtakes once enough records moved;
//! physiological recovers fastest and ends best.

use wattdb_bench::{print_series, run_scheme_experiment};
use wattdb_core::cluster::Scheme;

fn main() {
    println!("Fig. 6 — partitioning schemes under a TPC-C mix (rebalance at t=0)\n");
    for scheme in [Scheme::Physical, Scheme::Logical, Scheme::Physiological] {
        let run = run_scheme_experiment(scheme, false);
        print_series(scheme.label(), &run);
    }
}
