//! Fig. 8 — "Improving the benchmark results for physiological
//! partitioning": plain physiological rebalancing vs. rebalancing with two
//! helper nodes attached for log shipping and rDMA buffer extension.
//!
//! Paper shape: helpers raise power draw during the window but improve
//! response times and throughput; energy per query worsens — performance
//! is bought with energy, and the helpers are turned off afterwards.

use wattdb_bench::{print_series, run_scheme_experiment};
use wattdb_core::cluster::Scheme;

fn main() {
    println!("Fig. 8 — physiological vs physiological + helper nodes\n");
    let plain = run_scheme_experiment(Scheme::Physiological, false);
    print_series("physiological", &plain);
    let helped = run_scheme_experiment(Scheme::Physiological, true);
    print_series("physiological + helper", &helped);
}
