//! Fig. 3 — "MVCC vs MGL-RX: performance and storage space consumption of
//! workloads with different amount of updates while moving records".
//!
//! The paper reports MVCC throughput 15 % higher at read-only up to ~90 %
//! higher for pure writers, at the cost of higher storage (version chains)
//! vs. locking's pending-change lists.

use wattdb_bench::fig3_run;
use wattdb_txn::CcMode;

fn main() -> wattdb_common::Result<()> {
    println!("Fig. 3 — MVCC vs MGL-RX while moving 50% of the records");
    println!(
        "{:>10} {:>14} {:>14} {:>9} {:>12} {:>12}",
        "update %", "MVCC TA/min", "MGL TA/min", "MVCC/MGL", "MVCC space", "MGL space"
    );
    for pct in [0u32, 20, 40, 60, 80, 100] {
        let mvcc = fig3_run(pct, CcMode::Mvcc)?;
        let lock = fig3_run(pct, CcMode::LockingRx)?;
        println!(
            "{:>10} {:>14.0} {:>14.0} {:>9.2} {:>11.0}% {:>11.0}%",
            pct,
            mvcc.ta_per_minute,
            lock.ta_per_minute,
            mvcc.ta_per_minute / lock.ta_per_minute.max(1e-9),
            mvcc.storage_ratio * 100.0,
            lock.storage_ratio * 100.0,
        );
    }
    Ok(())
}
