//! # WattDB-RS core: dynamic physiological partitioning
//!
//! The primary contribution of Schall & Härder (ICDE 2015): an
//! energy-proportional shared-nothing DBMS cluster that repartitions its
//! data online. This crate assembles the substrate crates (storage, index,
//! txn, WAL, network, query, simulation, energy) into the full WattDB
//! system:
//!
//! * [`cluster`] — nodes, partitions, catalog, TPC-C loading, power;
//! * [`executor`] — the closed-loop OLTP transaction engine, its in-flight
//!   transactions kept in the [`jobs`] slab;
//! * [`migration`] — the data plane: [`migration::run`] carries out a
//!   [`migration::ControlPlan`] (power, drains, helper wiring (Fig. 8),
//!   mover launch, spans) and [`migration::settle`] closes what has
//!   landed (failover episode, finished drain); in between the physical /
//!   logical / physiological repartitioning protocols (§4) move the data
//!   — including the §4.3 move protocol with master-first dual pointers
//!   and segment read locks;
//! * [`heat`] — per-segment heat tracking (EWMA-decayed in sim-time),
//!   the workload signal behind `wattdb_planner`'s heat-aware rebalance
//!   plans. By default heat is **cost-based**: every access charges its
//!   scalarized CPU/page/network cost (`CostModel`), so CPU-heavy
//!   operators weigh more than point reads; each segment's heat velocity,
//!   kept in the same table, lets the planner plan against *projected*
//!   heat (moving hotspots);
//! * [`helpers`] — the Fig. 8 helper nodes a scripted rebalance names:
//!   source → helper wires with their log-shipping cursors, members and
//!   the relief accounting, behind one owner;
//! * [`replication`] — follower copies: replica map, WAL shipping cursors
//!   and the caught-up read router, behind one owner;
//! * [`failover`] — node-loss recovery over the per-segment replica map:
//!   most-caught-up follower promotion, key-space re-covering, and
//!   planner-driven re-replication;
//! * [`scan`] — analytic range scans over live segments, evaluated and
//!   costed by `wattdb_query` and replayed through the shared resources;
//! * [`monitor`] / [`policy`] — the control plane: the one monitoring
//!   window per deployment (sample, freeze telemetry, run the engaged
//!   policy's step), the 80 %-CPU threshold elasticity policy (§3.4) with
//!   its coldest-node scale-in, and the pure
//!   [`policy::plan`] that turns each decision into a `ControlPlan` (or
//!   a named refusal) with the configured planner (fraction vs.
//!   heat-aware);
//! * [`autopilot`] — the master's control step the window runs on the
//!   cluster's policy slot: settle → decide → plan → run each window,
//!   autonomous scale-out/scale-in, each decision stored once on the
//!   telemetry timeline;
//! * [`replay`] — analytic query execution over shared resources
//!   (Figs. 1–2);
//! * [`metrics`] — throughput / response-time / power / energy series
//!   (Figs. 6, 8) and per-phase cost breakdowns (Fig. 7);
//! * [`api`] — the [`api::WattDb`] facade used by examples and benches:
//!   lifecycle, act (`plan` → `run`, the autopilot's own path) and read
//!   (`status()`, or one `with_cluster` closure for anything else).

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
