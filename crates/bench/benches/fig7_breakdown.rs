//! Fig. 7 — "Impact factors on query runtime when rebalancing".
//!
//! Mean per-query time by component (logging, latching, locking, network
//! I/O, disk I/O, other) in three situations: normal operation, while
//! rebalancing, and rebalancing improved (helper nodes). Paper findings:
//! disk I/O and locking grow most while rebalancing; network time stays
//! nearly unchanged; logging takes significantly longer; helpers claw much
//! of it back.

use wattdb_bench::{print_breakdown, run_scheme_experiment};
use wattdb_core::cluster::Scheme;
use wattdb_core::metrics::Phase;

fn main() {
    println!("Fig. 7 — impact factors on query runtime when rebalancing\n");
    let plain = run_scheme_experiment(Scheme::Physiological, false);
    print_breakdown("normal operation", &plain.db, Phase::Normal);
    print_breakdown("while rebalancing", &plain.db, Phase::Rebalancing);
    let improved = run_scheme_experiment(Scheme::Physiological, true);
    print_breakdown(
        "rebalancing improved",
        &improved.db,
        Phase::RebalancingImproved,
    );
}
