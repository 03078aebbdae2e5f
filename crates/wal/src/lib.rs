//! Volume-only write-ahead logging, group commit and log shipping for
//! WattDB-RS.
//!
//! Implements the log of §4.3 as the paper's figures price it: a per-node
//! byte ledger with group commit (Fig. 7's logging share), log truncation
//! after moves, and log shipping to replica followers (a Fig. 8 helper's
//! cursor lives with the cluster's helper wiring). There is no restart
//! recovery: the failure story is replication, not restart — followers
//! receive the log and a dead leader's segments are promoted.

pub mod log;
pub mod record;
pub mod shipping;

pub use log::LogManager;
pub use record::{LogPayload, LOG_HEADER_BYTES};
pub use shipping::LogShipper;
