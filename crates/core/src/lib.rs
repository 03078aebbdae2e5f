//! # WattDB-RS core: dynamic physiological partitioning
//!
//! The primary contribution of Schall & Härder (ICDE 2015): an
//! energy-proportional shared-nothing DBMS cluster that repartitions its
//! data online. This crate assembles the substrate crates (storage, index,
//! txn, WAL, network, query, simulation, energy) into the full WattDB
//! system:
//!
//! * [`cluster`] — nodes, partitions, catalog, TPC-C loading, power;
//! * [`executor`] — the closed-loop OLTP engine, its in-flight
//!   transactions in the [`jobs`] slab;
//! * [`migration`] — the data plane: [`migration::run`] carries out a
//!   [`migration::ControlPlan`], the §4 protocols move the data, and
//!   [`migration::settle`] closes what has landed;
//! * [`heat`] — per-segment cost-based heat and its velocity, the signal
//!   behind `wattdb_planner`'s heat-aware plans;
//! * [`helpers`] — the Fig. 8 helper nodes; [`replication`] — follower
//!   copies and their WAL shipping; [`failover`] — node-loss recovery;
//! * [`scan`] / [`replay`] — analytic scans and query traces replayed
//!   through the shared resources (Figs. 1–2);
//! * [`monitor`] / [`policy`] / [`autopilot`] — the control plane: one
//!   monitoring window per deployment, the 80 %-CPU threshold policy
//!   (§3.4), [`policy::plan`] and the settle → decide → plan → run step;
//! * [`metrics`] — the series behind Figs. 6–8;
//! * [`api`] — the [`api::WattDb`] facade: lifecycle, act (`plan` →
//!   `run`) and read (`status()`, or one `with_cluster` closure).

pub mod api;
pub mod autopilot;
pub mod cluster;
pub mod executor;
pub mod failover;
pub mod heat;
pub mod helpers;
pub mod jobs;
pub mod metrics;
pub mod migration;
pub mod monitor;
pub mod policy;
pub mod replay;
pub mod replication;
pub mod scan;
pub mod telemetry_sink;

pub use api::{WattDb, WattDbBuilder};
pub use autopilot::{ControlEvent, Outcome};
pub use cluster::{Cluster, ClusterConfig, ClusterRc};
pub use heat::{AccessKind, HeatTable};
pub use metrics::Phase;
pub use migration::RebalanceReport;
pub use policy::{Decision, PolicyConfig};
pub use telemetry_sink::{decision_label, outcome_label};
pub use wattdb_planner::Planner;
pub use wattdb_tpcc::ClientBatching;
