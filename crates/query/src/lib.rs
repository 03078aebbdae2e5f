//! The WattDB-RS query engine: volcano-style operators with explicit
//! placement, vectorization, and buffering (prefetch) proxies.
//!
//! Implements §3.3 of the paper: distributed plans generated on the master,
//! each operator naming the node it runs on, so a plan keeps pipelining
//! operators with their data and may offload blocking operators (sort,
//! group/aggregate) to cooler nodes; vectorized `next()` calls amortize
//! network round trips, and buffering operators prefetch asynchronously
//! to hide shipping latency.
//!
//! Execution is functional *and* costed: [`execute`] returns real result
//! tuples plus a [`CostTrace`] of hardware demands that the cluster layer
//! replays through the shared simulated resources; [`execute_into`] pushes
//! the tuples into a sink instead of collecting them.

pub mod exec;
pub mod plan;

pub use exec::{execute, execute_into, CostTrace, ExecConfig, Stage, StageKind};
pub use plan::{AggFunc, PlanNode, RowSource, SyntheticTable, Tuple, Values};

/// The per-operator cost calibration this engine prices its stages with.
/// Re-exported as the query crate's cost model so downstream layers (the
/// core executor's cost-heat accounting in particular) consume the same
/// parameters the `CostTrace` stages were built from — one source of
/// truth, no silently diverging constants.
pub use wattdb_common::CostParams;
