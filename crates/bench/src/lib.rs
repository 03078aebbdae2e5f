//! Experiment harnesses regenerating every figure of the paper.
//!
//! Each `cargo bench -p wattdb-bench --bench figN_*` target prints the
//! same rows/series the corresponding figure reports. Absolute numbers come
//! from the simulated substrate; the comparisons —
//! which scheme wins, where the crossovers fall — are the reproduction
//! target; `tests/paper_figures.rs` holds them as assertions.

use std::cell::RefCell;
use std::rc::Rc;

use wattdb_common::{CostParams, NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::executor;
use wattdb_core::metrics::Phase;
use wattdb_core::migration::{ControlPlan, HelperAttach};
use wattdb_core::replay::{replay_trace, SortMemoryBroker};
use wattdb_query::{execute, ExecConfig, PlanNode, SyntheticTable};
use wattdb_sim::CostCategory;
use wattdb_tpcc::TxnProfile;
use wattdb_txn::CcMode;

/// One row of a Fig. 6/8-style time series.
#[derive(Debug, Clone, Copy)]
pub struct SeriesRow {
    /// Seconds relative to the rebalance trigger.
    pub t_rel: f64,
    /// Queries per second.
    pub qps: f64,
    /// Mean response time in ms.
    pub resp_ms: f64,
    /// Mean cluster power in W.
    pub watts: f64,
    /// Energy per query in J.
    pub jpq: f64,
}

/// Configuration for the scheme-comparison experiments (Figs. 6–8).
#[derive(Debug, Clone, Copy)]
pub struct SchemeExperiment {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Attach helper nodes during the rebalance (Fig. 8).
    pub helpers: bool,
    /// Warm-up before the rebalance trigger.
    pub warmup: SimDuration,
    /// Observation window after the trigger.
    pub window: SimDuration,
    /// OLTP clients.
    pub clients: u32,
    /// Mean think time.
    pub think: SimDuration,
    /// TPC-C warehouses.
    pub warehouses: u32,
    /// Cardinality density.
    pub density: f64,
    /// Bulk-I/O scale (see `WattDbBuilder::io_scale`).
    pub io_scale: u64,
    /// Multiplier on per-operation CPU costs: models the full SQL-layer
    /// work per record op on the wimpy Atom cores, putting the two initial
    /// nodes near saturation as in the paper's runs.
    pub cpu_scale: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for SchemeExperiment {
    fn default() -> Self {
        Self {
            scheme: Scheme::Physiological,
            helpers: false,
            warmup: SimDuration::from_secs(40),
            window: SimDuration::from_secs(180),
            clients: 80,
            think: SimDuration::from_millis(50),
            warehouses: 8,
            density: 0.05,
            io_scale: 800,
            cpu_scale: 40,
            seed: 42,
        }
    }
}

/// Configuration of the planner shootout: a skewed (hot-range) TPC-C run
/// where the autopilot rebalances with the planner under test.
#[derive(Debug, Clone, Copy)]
pub struct PlannerShootout {
    /// Planner the autopilot uses.
    pub planner: wattdb_core::Planner,
    /// OLTP clients.
    pub clients: u32,
    /// Mean client think time. Long enough that throughput stays
    /// client-limited after the rebalance, so post-rebalance CPU compares
    /// balance rather than the extra work a balanced cluster completes.
    pub think: SimDuration,
    /// Percentage of Payment (update) transactions in the mix; the rest
    /// are OrderStatus reads. This stationary mix keeps the hotspot on
    /// fixed warehouse/district/customer ranges, where access history
    /// predicts future load (insert-heavy mixes have a *moving* hotspot —
    /// see the module docs of `wattdb_planner`).
    pub update_pct: u32,
    /// Fraction of clients homed on the hot range.
    pub hot_fraction: f64,
    /// Warehouses forming the hot range.
    pub hot_warehouses: u32,
    /// TPC-C warehouses.
    pub warehouses: u32,
    /// Bulk-I/O scale.
    pub io_scale: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for PlannerShootout {
    fn default() -> Self {
        Self {
            planner: wattdb_core::Planner::HeatAware,
            clients: 80,
            think: SimDuration::from_millis(10),
            update_pct: 20,
            hot_fraction: 0.85,
            hot_warehouses: 1,
            warehouses: 4,
            io_scale: 10,
            seed: 3,
        }
    }
}

/// Outcome of one shootout run.
#[derive(Debug, Clone, Copy)]
pub struct PlannerShootoutRow {
    /// Planner used.
    pub planner: wattdb_core::Planner,
    /// Did a rebalance complete in-window?
    pub rebalanced: bool,
    /// Bytes the rebalance shipped.
    pub bytes_moved: u64,
    /// Segments relocated.
    pub segments_moved: u64,
    /// Heat the plan intended to relocate.
    pub heat_planned: f64,
    /// Heat actually relocated.
    pub heat_moved: f64,
    /// Max active-node CPU over a settle window after the rebalance.
    pub post_max_cpu: f64,
    /// Hottest node's share of total heat after the rebalance.
    pub post_max_heat_share: f64,
}

/// Run the planner shootout: one data node, skewed clients (the hot range
/// sits at the *bottom* of the key space, the worst case for the fraction
/// heuristic), autopilot engaged with the planner under test, one standby
/// target.
pub fn run_planner_shootout(cfg: PlannerShootout) -> PlannerShootoutRow {
    let mut db = WattDb::builder()
        .nodes(2)
        .scheme(Scheme::Physiological)
        .warehouses(cfg.warehouses)
        .density(0.02)
        .segment_pages(16)
        .io_scale(cfg.io_scale)
        .costs(scaled_costs(40))
        .seed(cfg.seed)
        .initial_data_nodes(&[NodeId(0)])
        .policy(wattdb_core::PolicyConfig {
            cpu_high: 0.8,
            cpu_low: 0.02, // no scale-in during the measurement
            patience: 2,
            move_fraction: 0.5,
            planner: cfg.planner,
            heat_tolerance: 0.1,
            skew_threshold: 0.0, // CPU-triggered only: isolate the planner
            ..Default::default()
        })
        .monitoring(SimDuration::from_secs(5))
        .autopilot(true)
        .build();
    spawn_driven(
        &mut db,
        cfg.clients,
        cfg.think,
        cfg.hot_fraction,
        cfg.hot_warehouses,
    );
    db.with_runtime(|cl, sim| start_mixed_clients(cl, sim, cfg.update_pct));
    settle_and_measure(&mut db, cfg.planner, 80, SimDuration::from_secs(30))
}

/// The shared tail of every shootout phase: run until the autopilot's
/// rebalance completes (bounded poll), settle, then measure the
/// post-rebalance max node CPU and heat share over a fresh status
/// window.
fn settle_and_measure(
    db: &mut WattDb,
    planner: wattdb_core::Planner,
    poll_windows: u32,
    settle: SimDuration,
) -> PlannerShootoutRow {
    let mut rebalanced = false;
    for _ in 0..poll_windows {
        db.run_for(SimDuration::from_secs(5));
        if db.last_rebalance().is_some() && !db.rebalancing() {
            rebalanced = true;
            break;
        }
    }
    let _ = db.status();
    db.run_for(settle);
    let status = db.status();
    let post_max_cpu = status
        .nodes
        .iter()
        .filter(|n| n.state == wattdb_energy::NodeState::Active)
        .map(|n| n.cpu)
        .fold(0.0, f64::max);
    let total_heat: f64 = status.nodes.iter().map(|n| n.heat).sum();
    let post_max_heat_share = if total_heat > 0.0 {
        status.nodes.iter().map(|n| n.heat).fold(0.0, f64::max) / total_heat
    } else {
        0.0
    };
    let report = db.last_rebalance();
    PlannerShootoutRow {
        planner,
        rebalanced,
        bytes_moved: report.map(|r| r.bytes_moved).unwrap_or(0),
        segments_moved: report.map(|r| r.segments_moved).unwrap_or(0),
        heat_planned: report.map(|r| r.heat_planned).unwrap_or(0.0),
        heat_moved: report.map(|r| r.heat_moved).unwrap_or(0.0),
        post_max_cpu,
        post_max_heat_share,
    }
}

/// Configuration of the advancing-hotspot (drift) shootout: the hot
/// client population re-homes to the next warehouse on a fixed cadence,
/// modelling TPC-C's insert-advancing ORDER/ORDER-LINE/NEW-ORDER front.
/// The autopilot rebalances with the heat-aware planner either from
/// historical heat (`horizon == 0`) or from drift-projected heat.
#[derive(Debug, Clone, Copy)]
pub struct DriftShootout {
    /// Drift projection horizon the planner plans against (zero =
    /// historical heat).
    pub horizon: SimDuration,
    /// OLTP clients.
    pub clients: u32,
    /// Mean client think time.
    pub think: SimDuration,
    /// Percentage of Payment (update) transactions; the rest OrderStatus.
    pub update_pct: u32,
    /// Fraction of clients following the advancing hot warehouse.
    pub hot_fraction: f64,
    /// TPC-C warehouses (the hot front advances through them).
    pub warehouses: u32,
    /// Warm-up on the first warehouse before the front's first advance —
    /// the access history the historical planner will chase.
    pub warm: SimDuration,
    /// Dwell per warehouse after the first advance.
    pub dwell: SimDuration,
    /// Bulk-I/O scale.
    pub io_scale: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for DriftShootout {
    fn default() -> Self {
        Self {
            horizon: SimDuration::from_secs(15),
            clients: 80,
            think: SimDuration::from_millis(10),
            update_pct: 20,
            hot_fraction: 0.85,
            warehouses: 8,
            warm: SimDuration::from_secs(20),
            dwell: SimDuration::from_secs(60),
            io_scale: 10,
            seed: 3,
        }
    }
}

/// Run the drift shootout: one data node, an advancing hot warehouse,
/// the heat-aware planner fed historical or drift-projected heat, one
/// standby target.
///
/// Sequencing matters: the cluster first runs monitor-only (the CPU
/// ceiling out of reach) while warehouse 0 accumulates history; then the
/// front advances to warehouse 1 and, a couple of windows later, the real
/// thresholds are engaged. The scale-out plan therefore forms exactly in
/// the regime the ROADMAP describes — history pointing at a warehouse the
/// front has already left — and the post-rebalance window is measured
/// inside the new warehouse's dwell. Reports the same row as the
/// stationary shootout so both phases print side by side.
pub fn run_drift_shootout(cfg: DriftShootout) -> PlannerShootoutRow {
    let mut db = WattDb::builder()
        .nodes(2)
        .scheme(Scheme::Physiological)
        .warehouses(cfg.warehouses)
        .density(0.02)
        .segment_pages(16)
        .io_scale(cfg.io_scale)
        .costs(scaled_costs(40))
        .seed(cfg.seed)
        .initial_data_nodes(&[NodeId(0)])
        .policy(wattdb_core::PolicyConfig {
            cpu_high: 1.1, // monitor-only during warm-up: drift observes, nothing fires
            cpu_low: 0.0,
            skew_threshold: 0.0,
            ..Default::default()
        })
        .drift(wattdb_common::DriftConfig {
            velocity_half_life: SimDuration::from_secs(5),
            horizon: cfg.horizon,
        })
        .monitoring(SimDuration::from_secs(5))
        .autopilot(true)
        .build();
    let hot_n = (cfg.clients as f64 * cfg.hot_fraction.clamp(0.0, 1.0)).round() as usize;
    spawn_driven(&mut db, cfg.clients, cfg.think, cfg.hot_fraction, 1);
    db.with_runtime(|cl, sim| start_mixed_clients(cl, sim, cfg.update_pct));
    // Warm up on warehouse 0, then advance the front to warehouse 1 (and
    // keep it advancing every `dwell` thereafter).
    db.run_for(cfg.warm);
    let rehome = move |c: &mut wattdb_core::Cluster, front: u32| {
        let n = hot_n.min(c.clients.len());
        for i in 0..n {
            c.clients[i].home_warehouse = front;
        }
    };
    db.with_runtime(|cl, sim| {
        rehome(&mut cl.borrow_mut(), 1);
        let handle = cl.clone();
        let warehouses = cfg.warehouses;
        let mut front = 1u32;
        wattdb_sim::Repeater::every(sim, cfg.dwell, move |_| {
            front = (front + 1) % warehouses;
            rehome(&mut handle.borrow_mut(), front);
            true
        });
    });
    // Two windows on the new warehouse: history still favours warehouse
    // 0, velocity favours warehouse 1. Now arm the real thresholds.
    db.run_for(SimDuration::from_secs(10));
    db.engage_autopilot(wattdb_core::AutoPilotConfig {
        policy: wattdb_core::PolicyConfig {
            cpu_high: 0.8,
            cpu_low: 0.02, // no scale-in during the measurement
            patience: 2,
            skew_threshold: 0.0, // CPU-triggered only: isolate the planner input
            ..Default::default()
        },
        period: SimDuration::from_secs(5), // the cadence built with
    });
    // The settle window stays inside the current warehouse's dwell.
    settle_and_measure(
        &mut db,
        wattdb_core::Planner::HeatAware,
        40,
        SimDuration::from_secs(25),
    )
}

fn scaled_costs(scale: u64) -> CostParams {
    let mut c = CostParams::default();
    c.index_node_visit = c.index_node_visit * scale;
    c.record_read = c.record_read * scale;
    c.record_write = c.record_write * scale;
    c.log_append = c.log_append * scale;
    c.buffer_hit = c.buffer_hit * scale;
    c
}

/// [`scaled_costs`] with an independent multiplier on the analytic
/// operator costs: the mixed-operator shootout models light SQL point
/// operations sharing a node with genuinely heavy scan/aggregation
/// queries. Both heat signals in the comparison run with the *same*
/// calibration — only the signal differs.
fn mixed_costs(point_scale: u64, analytic_scale: u64) -> CostParams {
    let mut c = scaled_costs(point_scale);
    c.scan_per_record = c.scan_per_record * analytic_scale;
    c.agg_per_record = c.agg_per_record * analytic_scale;
    c.project_per_record = c.project_per_record * analytic_scale;
    c.sort_per_record_level = c.sort_per_record_level * analytic_scale;
    c
}

/// Configuration of the mixed-operator shootout: point-read-hot clients on
/// warehouse 0 share a node with periodic scan+aggregation queries over a
/// different warehouse range. Count-based heat sees only access counts
/// (the point segments), cost-based heat sees the *work* (the scan
/// segments); the autopilot scales out with whichever signal is in force.
#[derive(Debug, Clone, Copy)]
pub struct MixedShootout {
    /// Heat signal under test: cost-based (`true`) or count-based.
    pub cost_based: bool,
    /// OLTP clients (all homed on the hot warehouse).
    pub clients: u32,
    /// Mean client think time.
    pub think: SimDuration,
    /// Percentage of Payment (update) transactions; the rest OrderStatus.
    pub update_pct: u32,
    /// First warehouse of the scanned range (default: warehouse 2 only —
    /// half-open `scan_lo..scan_hi`). The scanned table is ORDER-LINE:
    /// the most rows per warehouse (most operator CPU) at the smallest
    /// row width (fewest bytes to ship) — maximum contrast between
    /// access-count heat and cost heat.
    pub scan_lo: u32,
    /// One past the last scanned warehouse.
    pub scan_hi: u32,
    /// Scan dispatch cadence.
    pub scan_period: SimDuration,
    /// TPC-C warehouses.
    pub warehouses: u32,
    /// Bulk-I/O scale.
    pub io_scale: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for MixedShootout {
    fn default() -> Self {
        Self {
            cost_based: true,
            clients: 32,
            think: SimDuration::from_millis(10),
            update_pct: 20,
            scan_lo: 2,
            scan_hi: 3,
            scan_period: SimDuration::from_secs(3),
            warehouses: 4,
            io_scale: 10,
            seed: 3,
        }
    }
}

/// Run the mixed-operator shootout: one data node carrying both the
/// point-read hotspot (warehouse 0) and the scanned range, one standby
/// target, autopilot scale-out on the CPU ceiling. Scans re-resolve each
/// segment's storage node at dispatch, so whichever segments the planner
/// ships take their scan CPU with them.
pub fn run_mixed_shootout(cfg: MixedShootout) -> PlannerShootoutRow {
    let mut builder = WattDb::builder()
        .nodes(2)
        .scheme(Scheme::Physiological)
        .warehouses(cfg.warehouses)
        .density(0.02)
        .segment_pages(16)
        .io_scale(cfg.io_scale)
        .costs(mixed_costs(8, 40))
        .seed(cfg.seed)
        .initial_data_nodes(&[NodeId(0)])
        .policy(wattdb_core::PolicyConfig {
            cpu_high: 0.8,
            cpu_low: 0.02, // no scale-in during the measurement
            patience: 2,
            skew_threshold: 0.0, // CPU-triggered only: isolate the heat signal
            ..Default::default()
        })
        .monitoring(SimDuration::from_secs(5))
        .autopilot(true);
    if !cfg.cost_based {
        builder = builder.cost_model(None);
    }
    let mut db = builder.build();
    spawn_driven(&mut db, cfg.clients, cfg.think, 1.0, 1);
    db.with_runtime(|cl, sim| start_mixed_clients(cl, sim, cfg.update_pct));
    // Periodic scan+aggregation over the scanned warehouse range.
    let scan_table = wattdb_tpcc::TpccTable::OrderLine.table_id();
    let scan_range = wattdb_tpcc::warehouse_range(cfg.scan_lo, cfg.scan_hi);
    db.with_runtime(|cl, sim| {
        let handle = cl.clone();
        wattdb_sim::Repeater::every(sim, cfg.scan_period, move |sim| {
            wattdb_core::scan::submit_scan(
                &handle,
                sim,
                scan_table,
                scan_range,
                Some(wattdb_query::AggFunc::Sum),
            );
            true
        });
    });
    settle_and_measure(
        &mut db,
        wattdb_core::Planner::HeatAware,
        80,
        SimDuration::from_secs(30),
    )
}

/// Configuration of the transient-skew shootout: every dwell the hot
/// client population re-homes to a *fresh* warehouse on the opposite
/// node (0 → 4 → 1 → 5 → …), so the heat-skew trigger keeps firing while
/// which node is hot alternates and the hot range never repeats — the
/// regime where shipping segments chases a hotspot that has moved on
/// before the copy pays off. Compared: the policy answering every skew
/// fire with a segment rebalance (`helpers: false`, helper escalation
/// disabled) vs. the helpers-first escalation (`helpers: true`): Fig. 8
/// helpers attach to the hot source and detach on subsidence, shipping
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct TransientShootout {
    /// Helper escalation on (`escalation_fires: 1`) or off (every skew
    /// fire rebalances).
    pub helpers: bool,
    /// OLTP clients.
    pub clients: u32,
    /// Mean client think time.
    pub think: SimDuration,
    /// Percentage of Payment (update) transactions; the rest OrderStatus.
    pub update_pct: u32,
    /// Fraction of clients following the flapping hot warehouse.
    pub hot_fraction: f64,
    /// TPC-C warehouses, split across the two data nodes.
    pub warehouses: u32,
    /// Warm-up on the first hot warehouse before the flap starts.
    pub warm: SimDuration,
    /// Dwell per side of the flap.
    pub dwell: SimDuration,
    /// Flips to run (the last dwell is the measurement window).
    pub flips: u32,
    /// Bulk-I/O scale.
    pub io_scale: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for TransientShootout {
    fn default() -> Self {
        Self {
            helpers: true,
            clients: 64,
            think: SimDuration::from_millis(10),
            update_pct: 20,
            hot_fraction: 0.95,
            warehouses: 8,
            warm: SimDuration::from_secs(25),
            dwell: SimDuration::from_secs(40),
            flips: 6,
            io_scale: 10,
            seed: 3,
        }
    }
}

/// Outcome of one transient-shootout run: the standard row plus the
/// helper-event counts the bench asserts on.
#[derive(Debug, Clone, Copy)]
pub struct TransientShootoutRow {
    /// The standard shootout measurements (`bytes_moved` sums *every*
    /// rebalance of the run; `rebalanced` = any completed).
    pub row: PlannerShootoutRow,
    /// Applied helper attachments over the run.
    pub helper_attaches: usize,
    /// Applied helper detachments over the run.
    pub helper_detaches: usize,
}

/// Run the transient-skew shootout: two data nodes, the hot population
/// flapping between a warehouse on each, skew-only policy (the CPU
/// bounds out of reach), with or without helper escalation. Measures the
/// max active-node CPU over the final dwell and the total bytes every
/// rebalance of the run shipped.
pub fn run_transient_shootout(cfg: TransientShootout) -> TransientShootoutRow {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(cfg.warehouses)
        .density(0.02)
        .segment_pages(16)
        .io_scale(cfg.io_scale)
        .costs(scaled_costs(40))
        .seed(cfg.seed)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        // A short heat half-life keeps the flap sharp: the side the hot
        // population just left cools before the next monitoring windows,
        // so the skew ratio genuinely alternates instead of smearing
        // toward balance.
        .heat_tracking(wattdb_common::HeatConfig {
            half_life: SimDuration::from_secs(15),
            ..Default::default()
        })
        .policy(wattdb_core::PolicyConfig {
            cpu_high: 1.1, // skew-only: the CPU bounds stay out of reach
            cpu_low: 0.0,
            patience: 2,
            skew_threshold: 1.5,
            skew_min_heat: 1.0,
            skew_cooldown: 2,
            helper: wattdb_common::HelperPolicyConfig {
                escalation_fires: u32::from(cfg.helpers),
                max_helpers: 2,
                min_net_heat: 0.0,
            },
            ..Default::default()
        })
        .monitoring(SimDuration::from_secs(5))
        .autopilot(true)
        .build();
    let hot_n = (cfg.clients as f64 * cfg.hot_fraction.clamp(0.0, 1.0)).round() as usize;
    spawn_driven(&mut db, cfg.clients, cfg.think, cfg.hot_fraction, 1);
    db.with_runtime(|cl, sim| start_mixed_clients(cl, sim, cfg.update_pct));
    db.run_for(cfg.warm);
    // The advancing flap: each dwell the hot population re-homes to a
    // fresh warehouse on the opposite node — 0, then half, then 1, then
    // half+1, … — so the hot node alternates and no hot range repeats.
    let half = cfg.warehouses.div_ceil(2);
    let rehome = move |c: &mut wattdb_core::Cluster, wh: u32| {
        let n = hot_n.min(c.clients.len());
        for i in 0..n {
            c.clients[i].home_warehouse = wh;
        }
    };
    db.with_runtime(|cl, sim| {
        let handle = cl.clone();
        let warehouses = cfg.warehouses;
        let mut step = 0u32;
        wattdb_sim::Repeater::every(sim, cfg.dwell, move |_| {
            step += 1;
            let wh = if step % 2 == 1 {
                half + step / 2
            } else {
                step / 2
            };
            rehome(&mut handle.borrow_mut(), wh % warehouses);
            true
        });
    });
    let flips = cfg.flips.max(2);
    db.run_for(cfg.dwell * (flips as u64 - 1));
    // Measurement: the final dwell on a fresh status window.
    let _ = db.status();
    db.run_for(cfg.dwell);
    let status = db.status();
    let post_max_cpu = status
        .nodes
        .iter()
        .filter(|n| n.state == wattdb_energy::NodeState::Active)
        .map(|n| n.cpu)
        .fold(0.0, f64::max);
    let total_heat: f64 = status.nodes.iter().map(|n| n.heat).sum();
    let post_max_heat_share = if total_heat > 0.0 {
        status.nodes.iter().map(|n| n.heat).fold(0.0, f64::max) / total_heat
    } else {
        0.0
    };
    let history = db.with_cluster(|c| c.metrics.rebalances.clone());
    let events = db.events();
    let attaches = events
        .iter()
        .filter(|e| {
            matches!(e.decision, wattdb_core::Decision::AttachHelpers { .. })
                && e.outcome == wattdb_core::Outcome::Applied
        })
        .count();
    let detaches = events
        .iter()
        .filter(|e| {
            matches!(e.decision, wattdb_core::Decision::DetachHelpers { .. })
                && e.outcome == wattdb_core::Outcome::Applied
        })
        .count();
    TransientShootoutRow {
        row: PlannerShootoutRow {
            planner: wattdb_core::Planner::HeatAware,
            rebalanced: !history.is_empty(),
            bytes_moved: history.iter().map(|r| r.bytes_moved).sum(),
            segments_moved: history.iter().map(|r| r.segments_moved).sum(),
            heat_planned: history
                .iter()
                .map(|r| r.heat_planned)
                .fold(0.0, |a, b| a + b),
            heat_moved: history.iter().map(|r| r.heat_moved).fold(0.0, |a, b| a + b),
            post_max_cpu,
            post_max_heat_share,
        },
        helper_attaches: attaches,
        helper_detaches: detaches,
    }
}

/// Configuration of the replication shootout's read-scaling phase: a
/// read-heavy population hammering one warehouse on the first of two
/// data nodes, served with (`factor: 1`) or without (`factor: 0`)
/// follower replicas. With replicas, the executor's heat-aware read
/// routing rotates eligible reads across the leader and its caught-up
/// follower, splitting the hot node's CPU; the wire cost is bounded by
/// the WAL itself (each flushed record ships at most once per follower).
#[derive(Debug, Clone, Copy)]
pub struct FailoverShootout {
    /// Replication factor (0 = baseline, no replication subsystem).
    pub factor: usize,
    /// OLTP clients.
    pub clients: u32,
    /// Mean client think time.
    pub think: SimDuration,
    /// Percentage of Payment (update) transactions; the rest OrderStatus
    /// reads — read-heavy, the regime follower read scaling targets.
    pub update_pct: u32,
    /// Fraction of clients homed on the hot warehouse.
    pub hot_fraction: f64,
    /// TPC-C warehouses, split across the two data nodes.
    pub warehouses: u32,
    /// Warm-up before the measurement window.
    pub warm: SimDuration,
    /// Measurement window (max active-node CPU on a fresh status probe).
    pub measure: SimDuration,
    /// Bulk-I/O scale.
    pub io_scale: u64,
    /// Seed.
    pub seed: u64,
}

impl Default for FailoverShootout {
    fn default() -> Self {
        Self {
            factor: 1,
            // Hot but unsaturated: the baseline's hot node must sit below
            // 100 % CPU, or the fan-out's split hides inside the clip.
            clients: 16,
            think: SimDuration::from_millis(60),
            update_pct: 10,
            hot_fraction: 0.9,
            warehouses: 4,
            warm: SimDuration::from_secs(30),
            measure: SimDuration::from_secs(60),
            io_scale: 10,
            seed: 3,
        }
    }
}

/// Outcome of one read-scaling run: the standard row (its `bytes_moved`
/// is the replica WAL shipped) plus the replication counters the bench
/// gates on.
#[derive(Debug, Clone, Copy)]
pub struct FailoverShootoutRow {
    /// Standard shootout measurements.
    pub row: PlannerShootoutRow,
    /// Reads served by follower replicas.
    pub replica_reads: u64,
    /// WAL bytes shipped to followers over the run.
    pub replica_shipped_bytes: u64,
    /// WAL bytes the leaders flushed over the run — the shipping bound.
    pub wal_flushed_bytes: u64,
    /// Transactions completed.
    pub completed: u64,
}

/// Run the read-scaling phase: two data nodes, a hot warehouse on the
/// first, no autopilot (nothing rebalances — the comparison isolates
/// what read fan-out alone buys).
pub fn run_failover_shootout(cfg: FailoverShootout) -> FailoverShootoutRow {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(cfg.warehouses)
        .density(0.02)
        .segment_pages(16)
        .io_scale(cfg.io_scale)
        .costs(scaled_costs(40))
        .seed(cfg.seed)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .replication(cfg.factor)
        .build();
    spawn_driven(&mut db, cfg.clients, cfg.think, cfg.hot_fraction, 1);
    db.with_runtime(|cl, sim| start_mixed_clients(cl, sim, cfg.update_pct));
    db.run_for(cfg.warm);
    // Measurement on a fresh status window.
    let _ = db.status();
    db.run_for(cfg.measure);
    let status = db.status();
    let post_max_cpu = status
        .nodes
        .iter()
        .filter(|n| n.state == wattdb_energy::NodeState::Active)
        .map(|n| n.cpu)
        .fold(0.0, f64::max);
    let total_heat: f64 = status.nodes.iter().map(|n| n.heat).sum();
    let post_max_heat_share = if total_heat > 0.0 {
        status.nodes.iter().map(|n| n.heat).fold(0.0, f64::max) / total_heat
    } else {
        0.0
    };
    FailoverShootoutRow {
        row: PlannerShootoutRow {
            planner: wattdb_core::Planner::HeatAware,
            rebalanced: false,
            bytes_moved: db.with_cluster(|c| c.replica_shipped_bytes()),
            segments_moved: 0,
            heat_planned: 0.0,
            heat_moved: 0.0,
            post_max_cpu,
            post_max_heat_share,
        },
        replica_reads: db.with_cluster(|c| c.replica_reads),
        replica_shipped_bytes: db.with_cluster(|c| c.replica_shipped_bytes()),
        wal_flushed_bytes: db.with_cluster(|c| c.nodes.iter().map(|n| n.log.flushed_bytes()).sum()),
        completed: db.completed(),
    }
}

/// Outcome of the node-kill recovery measurement.
#[derive(Debug, Clone, Copy)]
pub struct FailoverRecovery {
    /// Did the cluster reach full recovery inside the horizon?
    pub recovered: bool,
    /// Simulated seconds from the kill to recovery: every orphaned
    /// segment promoted, the dead node erased from the replica map, and
    /// the replication factor restored.
    pub recovery_secs: f64,
    /// Bytes shipped to seed the replacement followers.
    pub rereplication_bytes: u64,
    /// Segments the victim led at the kill (all of them get promoted).
    pub orphaned: usize,
}

/// Run the node-kill phase: three data nodes under factor 1, autopilot
/// on a failover-only policy, the middle node killed after warm-up.
/// Polls each simulated second until the factor is restored.
pub fn run_failover_recovery(cfg: FailoverShootout) -> FailoverRecovery {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(cfg.warehouses.max(6))
        .density(0.02)
        .segment_pages(16)
        .io_scale(cfg.io_scale)
        .costs(scaled_costs(40))
        .seed(cfg.seed)
        .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
        .replication(cfg.factor.max(1))
        .policy(wattdb_core::PolicyConfig {
            cpu_high: 1.1, // failover-only: every elasticity trigger inert
            cpu_low: 0.0,
            skew_threshold: 0.0,
            net_high: 2.0,
            ..Default::default()
        })
        .monitoring(SimDuration::from_secs(5))
        .autopilot(true)
        .build();
    spawn_driven(&mut db, cfg.clients, cfg.think, cfg.hot_fraction, 1);
    db.with_runtime(|cl, sim| start_mixed_clients(cl, sim, cfg.update_pct));
    db.run_for(cfg.warm);
    let victim = NodeId(1);
    let orphaned = db.with_cluster(|c| c.replicas.led_by(victim).len());
    db.fail_node(victim);
    let killed_at = db.now();
    let horizon = SimDuration::from_secs(600);
    let mut recovered = false;
    while db.now() - killed_at < horizon {
        db.run_for(SimDuration::from_secs(1));
        let done = db.with_cluster(|c| {
            !c.replicas.references(victim)
                && c.replicas
                    .under_replicated(c.cfg.replication.factor)
                    .is_empty()
        });
        if done {
            recovered = true;
            break;
        }
    }
    FailoverRecovery {
        recovered,
        recovery_secs: (db.now() - killed_at).as_secs_f64(),
        rereplication_bytes: db.with_cluster(|c| c.rereplication_bytes),
        orphaned,
    }
}

/// Outcome of the drain-under-replication measurement.
#[derive(Debug, Clone, Copy)]
pub struct DrainUnderReplication {
    /// Did the autopilot drain and suspend a node inside the horizon?
    pub drained: bool,
    /// Simulated seconds from engagement to the node reaching standby.
    pub drain_secs: f64,
    /// Follower copies the drained node hosted before the drain — all of
    /// them must be re-homed onto survivors.
    pub rehomed_copies: usize,
    /// Bytes shipped re-homing and backfilling follower copies.
    pub rereplication_bytes: u64,
    /// Segments still under the replication factor once everything
    /// settled (the acceptance gate demands zero).
    pub under_replicated: usize,
    /// The replica-map invariants held after settling: no leader in its
    /// own follower set, no reference to a suspended node.
    pub invariants_ok: bool,
}

/// Run the drain-under-replication phase: three replicated data nodes
/// idle below the low-CPU bound, autopilot on a drain-only policy. The
/// coldest node hosts follower copies for the survivors' segments — the
/// scale-in must re-home those copies in the same decision, suspend the
/// node, and leave zero under-replicated segments once the backfill
/// copies land. Polls each simulated second until settled.
pub fn run_drain_under_replication(cfg: FailoverShootout) -> DrainUnderReplication {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(cfg.warehouses.max(6))
        .density(0.02)
        .segment_pages(16)
        .io_scale(cfg.io_scale)
        .costs(scaled_costs(40))
        .seed(cfg.seed)
        .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
        .replication(cfg.factor.max(1))
        .policy(wattdb_core::PolicyConfig {
            cpu_high: 1.1, // drain-only: the idle cluster breaches cpu_low at once
            cpu_low: 0.5,
            patience: 2,
            skew_threshold: 0.0,
            net_high: 2.0,
            ..Default::default()
        })
        .monitoring(SimDuration::from_secs(5))
        .autopilot(true)
        .build();
    let copies_at_start: std::collections::BTreeMap<NodeId, usize> = db.with_cluster(|c| {
        (0..4u16)
            .map(|n| (NodeId(n), c.replicas.followed_by(NodeId(n)).len()))
            .collect()
    });
    let engaged_at = db.now();
    let horizon = SimDuration::from_secs(600);
    let mut suspended: Vec<NodeId> = Vec::new();
    let mut drain_secs = horizon.as_secs_f64();
    while db.now() - engaged_at < horizon {
        db.run_for(SimDuration::from_secs(1));
        if suspended.is_empty() {
            suspended = db
                .events()
                .iter()
                .filter_map(|e| match &e.outcome {
                    wattdb_core::autopilot::Outcome::Suspended { nodes } if !nodes.is_empty() => {
                        Some(nodes.clone())
                    }
                    _ => None,
                })
                .flatten()
                .collect();
            if !suspended.is_empty() {
                drain_secs = (db.now() - engaged_at).as_secs_f64();
            }
            continue;
        }
        let settled = db.with_cluster(|c| c.mover.is_none() && c.rereplication_inflight == 0);
        if settled {
            break;
        }
    }
    let rehomed_copies = suspended
        .iter()
        .map(|n| copies_at_start.get(n).copied().unwrap_or(0))
        .sum();
    let (under_replicated, invariants_ok) = db.with_cluster(|c| {
        (
            c.replicas.under_replicated(c.cfg.replication.factor).len(),
            c.check_replica_invariants().is_none(),
        )
    });
    DrainUnderReplication {
        drained: !suspended.is_empty(),
        drain_secs,
        rehomed_copies,
        rereplication_bytes: db.with_cluster(|c| c.rereplication_bytes),
        under_replicated,
        invariants_ok,
    }
}

/// Run the telemetry-capture phase: the stationary scale-out scenario
/// with replication enabled, so the exported timeline carries every
/// observable the subsystem promises — rebalance/power-up spans, the
/// full window sample stream (throughput, percentiles, per-node
/// utilization, replica read share, watts, Wh-per-committed-txn), and a
/// decision record per monitoring window. Returns the JSONL export the
/// shootout writes to `BENCH_timeline.jsonl`.
pub fn run_timeline_capture(cfg: PlannerShootout) -> String {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(cfg.warehouses)
        .density(0.02)
        .segment_pages(16)
        .io_scale(cfg.io_scale)
        .costs(scaled_costs(40))
        .seed(cfg.seed)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .replication(1)
        .policy(wattdb_core::PolicyConfig {
            cpu_high: 0.8,
            cpu_low: 0.02,
            patience: 2,
            move_fraction: 0.5,
            planner: cfg.planner,
            heat_tolerance: 0.1,
            skew_threshold: 0.0,
            ..Default::default()
        })
        .monitoring(SimDuration::from_secs(5))
        .autopilot(true)
        .build();
    spawn_driven(
        &mut db,
        cfg.clients,
        cfg.think,
        cfg.hot_fraction,
        cfg.hot_warehouses,
    );
    db.with_runtime(|cl, sim| start_mixed_clients(cl, sim, cfg.update_pct));
    settle_and_measure(&mut db, cfg.planner, 80, SimDuration::from_secs(30));
    db.export_timeline_string()
}

/// One labelled row of the machine-readable shootout summary.
#[derive(Debug, Clone)]
pub struct BenchJsonRow {
    /// Shootout phase (`"stationary"`, `"advancing"`, `"mixed"`).
    pub phase: &'static str,
    /// Variant within the phase (planner or heat-signal label).
    pub variant: String,
    /// The measured row.
    pub row: PlannerShootoutRow,
    /// Extra JSON key/value pairs spliced verbatim into the row object
    /// (each must start with `, `); empty for the standard phases.
    pub extra: String,
}

/// Serialize the shootout summary as JSON (hand-rolled — the build is
/// offline, no serde) so CI can upload the perf trajectory as an
/// artifact and later PRs can diff it machine-readably.
pub fn shootout_json(rows: &[BenchJsonRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"planner_shootout\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            concat!(
                "    {{\"phase\": \"{}\", \"variant\": \"{}\", \"rebalanced\": {}, ",
                "\"segments_moved\": {}, \"bytes_moved\": {}, \"heat_planned\": {:.3}, ",
                "\"heat_moved\": {:.3}, \"post_max_cpu\": {:.4}, ",
                "\"post_max_heat_share\": {:.4}{}}}{}\n"
            ),
            r.phase,
            r.variant,
            r.row.rebalanced,
            r.row.segments_moved,
            r.row.bytes_moved,
            r.row.heat_planned,
            r.row.heat_moved,
            r.row.post_max_cpu,
            r.row.post_max_heat_share,
            r.extra,
            sep,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Outcome of one scheme run.
pub struct SchemeRun {
    /// Bucketed series relative to the trigger.
    pub series: Vec<SeriesRow>,
    /// Virtual seconds the rebalance took (if it finished in-window).
    pub rebalance_secs: Option<f64>,
    /// Completed transactions.
    pub completed: u64,
    /// Aborted attempts.
    pub aborted: u64,
    /// The deployment, for post-hoc inspection (Fig. 7 profiles).
    pub db: WattDb,
}

/// Run the §5.1 experiment: load on two nodes, warm up, then move 50 % of
/// the data to two fresh nodes under the configured scheme.
pub fn run_scheme_experiment(cfg: SchemeExperiment) -> SchemeRun {
    let mut db = WattDb::builder()
        .nodes(10)
        .scheme(cfg.scheme)
        .warehouses(cfg.warehouses)
        .density(cfg.density)
        .io_scale(cfg.io_scale)
        .costs(scaled_costs(cfg.cpu_scale))
        .segment_pages(16)
        .bucket(SimDuration::from_secs(5))
        .seed(cfg.seed)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .build();
    db.start_oltp(cfg.clients, cfg.think);
    db.run_for(cfg.warmup);
    let trigger = db.now();
    let sources = [NodeId(0), NodeId(1)];
    let targets = [NodeId(2), NodeId(3)];
    if cfg.helpers {
        // Fig. 8: the helpers wire up with the rebalance and detach when
        // it completes.
        let plan = db.with_cluster(|c| ControlPlan::fraction(c, 0.5, &sources, &targets));
        db.run(ControlPlan {
            attach: Some(HelperAttach::manual(&sources, &[NodeId(4), NodeId(5)])),
            ..plan
        });
    } else {
        db.rebalance(0.5, &sources, &targets);
    }
    db.run_for(cfg.window);
    db.stop_clients();
    let rebalance_secs = db
        .last_rebalance()
        .map(|r| r.finished.since(r.started).as_secs_f64());
    let series = db
        .timeseries()
        .into_iter()
        .map(|(at, qps, resp, watts, jpq)| SeriesRow {
            t_rel: at.as_secs_f64() - trigger.as_secs_f64(),
            qps,
            resp_ms: resp,
            watts,
            jpq,
        })
        .collect();
    let completed = db.completed();
    let aborted = db.aborted();
    SchemeRun {
        series,
        rebalance_secs,
        completed,
        aborted,
        db,
    }
}

/// Print a Fig. 6/8 series as aligned columns.
pub fn print_series(label: &str, run: &SchemeRun) {
    println!("# {label}");
    println!(
        "{:>8} {:>10} {:>10} {:>9} {:>9}",
        "t(s)", "qps", "resp(ms)", "W", "J/query"
    );
    for r in &run.series {
        println!(
            "{:>8.0} {:>10.1} {:>10.2} {:>9.1} {:>9.3}",
            r.t_rel, r.qps, r.resp_ms, r.watts, r.jpq
        );
    }
    match run.rebalance_secs {
        Some(s) => println!("# rebalance completed in {s:.1}s"),
        None => println!("# rebalance still running at window end"),
    }
    println!("# completed={} aborted={}", run.completed, run.aborted);
    println!();
}

/// Fig. 7: per-phase mean query-cost breakdown in ms.
pub fn print_breakdown(label: &str, db: &WattDb, phase: Phase) {
    let Some(profile) = db.with_cluster(|c| c.metrics.mean_profile(phase)) else {
        println!("{label:<24} (no samples)");
        return;
    };
    let ms = |cat: CostCategory| profile.get(cat).as_millis_f64();
    // "other" folds CPU and scheduling residue, as Fig. 7 does.
    println!(
        "{label:<24} logging={:>7.2} latching={:>7.2} locking={:>7.2} networkIO={:>7.2} diskIO={:>7.2} other={:>7.2} | total={:>7.2} (ms)",
        ms(CostCategory::Logging),
        ms(CostCategory::Latching),
        ms(CostCategory::Locking),
        ms(CostCategory::NetworkIo),
        ms(CostCategory::DiskIo),
        ms(CostCategory::Cpu) + ms(CostCategory::Other),
        profile.total().as_millis_f64(),
    );
}

// ------------------------------------------------------------------ Fig. 1

/// One Fig. 1 configuration.
pub struct Fig1Config {
    /// Bar label as in the paper.
    pub label: &'static str,
    /// Volcano batch size (1 = single record).
    pub batch: u64,
    /// Projection placed remotely?
    pub remote: bool,
    /// Projection present at all?
    pub project: bool,
    /// Buffering operator inserted at the boundary?
    pub buffered: bool,
}

/// The five bars of Fig. 1.
pub fn fig1_configs() -> Vec<Fig1Config> {
    vec![
        Fig1Config {
            label: "TBSCAN (local)",
            batch: 1,
            remote: false,
            project: false,
            buffered: false,
        },
        Fig1Config {
            label: "L PROJECT + TBSCAN (single record)",
            batch: 1,
            remote: false,
            project: true,
            buffered: false,
        },
        Fig1Config {
            label: "R PROJECT + TBSCAN (single record)",
            batch: 1,
            remote: true,
            project: true,
            buffered: false,
        },
        Fig1Config {
            label: "R PROJECT + TBSCAN (vectorized)",
            batch: 128,
            remote: true,
            project: true,
            buffered: false,
        },
        Fig1Config {
            label: "R BUFFER + R PROJECT + TBSCAN (vectorized)",
            batch: 128,
            remote: true,
            project: true,
            buffered: true,
        },
    ]
}

/// Run one Fig. 1 configuration; returns records/second.
pub fn fig1_throughput(cfg: &Fig1Config, rows: u64) -> f64 {
    let data = NodeId(1);
    let consumer = if cfg.remote { NodeId(2) } else { NodeId(1) };
    let scan = PlanNode::Scan {
        source: Box::new(SyntheticTable::new(rows, 200, 40)),
        on: data,
    };
    let inner: PlanNode = if cfg.buffered {
        PlanNode::Buffer {
            input: Box::new(scan),
        }
    } else {
        scan
    };
    let plan = if cfg.project {
        PlanNode::Project {
            input: Box::new(inner),
            keep_width: 50,
            on: consumer,
        }
    } else {
        inner
    };
    let (_, trace) = execute(
        &plan,
        &CostParams::default(),
        &ExecConfig {
            batch_size: cfg.batch,
            ..Default::default()
        },
    );
    let db = idle_cluster(3);
    let mut sim = wattdb_sim::Sim::new();
    let broker = Rc::new(RefCell::new(SortMemoryBroker::default()));
    let out: Rc<RefCell<Option<SimDuration>>> = Rc::new(RefCell::new(None));
    let o = out.clone();
    replay_trace(&db, &mut sim, trace, broker, move |sim, started| {
        *o.borrow_mut() = Some(sim.now().since(started));
    });
    sim.run_to_completion();
    let elapsed = out.borrow().expect("trace completes");
    rows as f64 / elapsed.as_secs_f64()
}

fn idle_cluster(nodes: u16) -> wattdb_core::ClusterRc {
    let active: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    wattdb_core::Cluster::new(
        wattdb_core::ClusterConfig {
            nodes,
            buffer_pages: 4096,
            ..Default::default()
        },
        &active,
    )
}

// ------------------------------------------------------------------ Fig. 2

/// Fig. 2: throughput of N concurrent scan+sort queries, local vs. remote
/// sort placement. Returns queries/second.
pub fn fig2_throughput(concurrent: u64, offload: bool, rows: u64) -> f64 {
    let db = idle_cluster(3);
    let mut sim = wattdb_sim::Sim::new();
    let broker = Rc::new(RefCell::new(SortMemoryBroker::default()));
    // Wimpy nodes: modest sort memory forces spills under concurrency.
    broker.borrow_mut().set_limit(NodeId(1), 24 * 1024 * 1024);
    broker.borrow_mut().set_limit(NodeId(2), 24 * 1024 * 1024);
    let done: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    for _ in 0..concurrent {
        let plan = PlanNode::Sort {
            input: Box::new(PlanNode::Scan {
                source: Box::new(SyntheticTable::new(rows, 100, 80)),
                on: NodeId(1),
            }),
            on: if offload { NodeId(2) } else { NodeId(1) },
        };
        let (_, trace) = execute(&plan, &CostParams::default(), &ExecConfig::default());
        let d = done.clone();
        replay_trace(&db, &mut sim, trace, broker.clone(), move |_, _| {
            *d.borrow_mut() += 1;
        });
    }
    sim.run_to_completion();
    assert_eq!(*done.borrow(), concurrent);
    let makespan = sim.now().as_secs_f64();
    concurrent as f64 / makespan
}

// ------------------------------------------------------------------ Fig. 3

/// Result of one Fig. 3 cell.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Point {
    /// Percentage of update transactions.
    pub update_pct: u32,
    /// Transactions per minute while records were on the move.
    pub ta_per_minute: f64,
    /// Storage footprint relative to live data (1.0 = no overhead).
    pub storage_ratio: f64,
}

/// Run the Fig. 3 micro-benchmark: a read/update mix at `update_pct`
/// percent updates, while a logical move relocates 50 % of the records,
/// under the given CC mode.
pub fn fig3_run(update_pct: u32, mode: CcMode) -> Fig3Point {
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Logical)
        .cc_mode(mode)
        .warehouses(2)
        .density(0.05)
        .io_scale(1200)
        .segment_pages(16)
        .bucket(SimDuration::from_secs(5))
        .seed(7)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .build();
    // Spawn clients; a custom driver loop submits the fixed mix.
    spawn_driven(&mut db, 24, SimDuration::from_millis(25), 0.0, 1);
    db.with_runtime(|cl, sim| start_mixed_clients(cl, sim, update_pct));
    db.run_for(SimDuration::from_secs(10));
    let move_start = db.now();
    let completed_before = db.completed();
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    // Track peak storage overhead during the move.
    let peak: Rc<RefCell<f64>> = Rc::new(RefCell::new(1.0));
    db.with_runtime(|cl, sim| {
        let cl = cl.clone();
        let peak = peak.clone();
        wattdb_sim::Repeater::every(sim, SimDuration::from_secs(2), move |_| {
            let c = cl.borrow();
            let (versions, live) = c.version_stats();
            let mut ratio = if live > 0 {
                versions as f64 / live as f64
            } else {
                1.0
            };
            // Locking mode keeps pending changes, not versions: a row
            // image held for undo is one more stored image of its row.
            ratio += c.txn.pending_changes() as f64 / live.max(1) as f64;
            let mut p = peak.borrow_mut();
            if ratio > *p {
                *p = ratio;
            }
            c.mover.is_some()
        });
    });
    // Run until the move finishes (bounded; MGL-RX may stall on its
    // pending-change locks — that *is* the measured effect).
    for _ in 0..60 {
        db.run_for(SimDuration::from_secs(5));
        if !db.rebalancing() {
            break;
        }
    }
    db.stop_clients();
    let move_minutes = db.now().since(move_start).as_secs_f64() / 60.0;
    let ta = (db.completed() - completed_before) as f64 / move_minutes.max(1e-9);
    let storage_ratio = *peak.borrow();
    Fig3Point {
        update_pct,
        ta_per_minute: ta,
        storage_ratio,
    }
}

/// Spawn `clients` closed-loop clients (`hot_fraction` of them homed in
/// the first `hot_warehouses` warehouses) for a custom driver loop: a
/// finished job does not resubmit by itself.
fn spawn_driven(
    db: &mut WattDb,
    clients: u32,
    think: SimDuration,
    hot_fraction: f64,
    hot_warehouses: u32,
) {
    db.with_runtime(|cl, _| {
        let mut c = cl.borrow_mut();
        c.auto_resubmit = false;
        let client_cfg = wattdb_tpcc::ClientConfig {
            think_time: think,
            ..Default::default()
        };
        c.spawn_clients_skewed(clients, client_cfg, hot_fraction, hot_warehouses);
    });
}

/// Custom closed-loop drivers with a fixed update fraction: updates are
/// Payments, reads OrderStatus. Each client keeps exactly one transaction
/// in flight, polling for completion.
fn start_mixed_clients(cl: &wattdb_core::ClusterRc, sim: &mut wattdb_sim::Sim, update_pct: u32) {
    let n = cl.borrow().clients.len();
    for client in 0..n {
        arm_mixed(cl, sim, client, update_pct);
    }
}

fn arm_mixed(
    cl: &wattdb_core::ClusterRc,
    sim: &mut wattdb_sim::Sim,
    client: usize,
    update_pct: u32,
) {
    let think = {
        let mut c = cl.borrow_mut();
        if c.stopped {
            return;
        }
        c.clients[client].think()
    };
    let handle = cl.clone();
    sim.after(think, move |sim| {
        let job = {
            let mut c = handle.borrow_mut();
            if c.stopped {
                None
            } else {
                let update = {
                    let r = c.clients[client].rng();
                    r.uniform(0, 99) < update_pct as u64
                };
                let profile = if update {
                    TxnProfile::Payment
                } else {
                    TxnProfile::OrderStatus
                };
                c.new_job_with(client, Some(profile), sim.now())
            }
        };
        let Some(job_id) = job else {
            return;
        };
        executor::step(&handle, sim, job_id);
        // Poll for completion, then re-arm.
        let poll = handle.clone();
        wattdb_sim::Repeater::every(sim, SimDuration::from_millis(25), move |sim| {
            if poll.borrow().jobs.get(job_id).is_some() {
                return true;
            }
            arm_mixed(&poll, sim, client, update_pct);
            false
        });
    });
}
