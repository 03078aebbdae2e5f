//! Experiment harnesses regenerating every figure of the paper.
//!
//! Each `cargo bench -p wattdb-bench --bench figN_*` target prints the
//! same rows/series the corresponding figure reports. Absolute numbers come
//! from the simulated substrate; the comparisons —
//! which scheme wins, where the crossovers fall — are the reproduction
//! target; `tests/paper_figures.rs` holds them as assertions.
//!
//! Every experiment is one fixed setup: its deployment, clients, windows
//! and seed are constants beside the runner that reads them, and a runner
//! takes only the value its bench compares.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use wattdb_common::{CostParams, HeatConfig, NodeId, Result, SimDuration};
use wattdb_core::api::{WattDb, WattDbBuilder};
use wattdb_core::cluster::Scheme;
use wattdb_core::metrics::Phase;
use wattdb_core::migration::{ControlPlan, HelperAttach};
use wattdb_core::replay::{replay_trace, SortMemoryBroker};
use wattdb_core::{replication, Cluster, Outcome, Planner, PolicyConfig};
use wattdb_query::{execute, ExecConfig, PlanNode, SyntheticTable};
use wattdb_sim::{Completion, CostCategory};
use wattdb_tpcc::TenantSpec;
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

/// Outcome of one shootout run.
#[derive(Debug, Clone, Copy)]
pub struct PlannerShootoutRow {
    /// Planner used.
    pub planner: Planner,
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

impl PlannerShootoutRow {
    /// A row that records only what a phase shipped: no heat planned or
    /// moved, no window measured.
    pub fn shipped(rebalanced: bool, bytes_moved: u64, segments_moved: u64) -> Self {
        Self {
            planner: Planner::HeatAware,
            rebalanced,
            bytes_moved,
            segments_moved,
            heat_planned: 0.0,
            heat_moved: 0.0,
            post_max_cpu: 0.0,
            post_max_heat_share: 0.0,
        }
    }
}

/// Mean think time of the shootout clients. The hot node saturates before
/// any rebalance and, in the stationary and advancing phases, still reads
/// 97–99 % CPU after it, so those rows compare what a plan ships more than
/// the balance it reaches.
const THINK: SimDuration = SimDuration::from_millis(10);
/// Percentage of Payment (update) transactions in the shootouts' mix; the
/// rest are OrderStatus reads. This mix keeps the hotspot on fixed
/// warehouse/district/customer ranges, where access history predicts
/// future load (insert-heavy mixes have a *moving* hotspot — see the
/// module docs of `wattdb_planner`).
const UPDATE_PCT: u32 = 20;
/// Clients of the stationary, advancing and telemetry runs.
const HOT_CLIENTS: u32 = 80;
/// Share of [`HOT_CLIENTS`] homed on the hot warehouse.
const HOT_FRACTION: f64 = 0.85;

/// The harness's one client tenant: `update_pct` percent Payments, the
/// rest OrderStatus reads, with `hot_fraction` of its clients homed on
/// warehouse 0.
fn mixed_tenant(hot_fraction: f64, update_pct: u32) -> TenantSpec {
    TenantSpec {
        txn_mix: [0, update_pct, 100 - update_pct, 0, 0],
        hot_fraction,
        ..TenantSpec::default()
    }
}

/// The shootouts' one deployment: physiological segments of 16 pages, a
/// TPC-C dataset of `warehouses` at density 0.02 on the `data` nodes,
/// bulk I/O ×10, the ×40 wimpy-core costs and seed 3.
fn shootout_cluster(nodes: u16, warehouses: u32, data: &[NodeId]) -> WattDbBuilder {
    WattDb::builder()
        .nodes(nodes)
        .scheme(Scheme::Physiological)
        .warehouses(warehouses)
        .density(0.02)
        .segment_pages(16)
        .io_scale(10)
        .costs(CostParams::scaled(40))
        .seed(3)
        .initial_data_nodes(data)
}

/// The shootouts' CPU-triggered scale-out with `planner`: out after two
/// windows above 80 % CPU and no scale-in during the measurement, so the
/// compared input alone shapes the plan.
fn cpu_scale_out(planner: Planner) -> PolicyConfig {
    PolicyConfig {
        cpu_high: 0.8,
        cpu_low: 0.02,
        patience: 2,
        planner,
    }
}

/// Run the planner shootout: one data node, skewed clients (the hot range
/// sits at the *bottom* of the key space, the worst case for the fraction
/// heuristic), autopilot engaged with `planner`, one standby target.
pub fn run_planner_shootout(planner: Planner) -> PlannerShootoutRow {
    let mut db = shootout_cluster(2, 4, &[NodeId(0)])
        .policy(cpu_scale_out(planner))
        .autopilot(true)
        .build();
    db.start_tenant(HOT_CLIENTS, THINK, mixed_tenant(HOT_FRACTION, UPDATE_PCT));
    settle_and_measure(&mut db, planner, 80, SimDuration::from_secs(30))
}

/// The shared tail of every shootout phase: run until the autopilot's
/// rebalance completes (bounded poll), settle, then measure the
/// post-rebalance max node CPU and heat share over a fresh status
/// window.
fn settle_and_measure(
    db: &mut WattDb,
    planner: Planner,
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
    let (post_max_cpu, post_max_heat_share) = measure_window(db, settle);
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

/// Run `window` on a fresh status window and read the max active-node
/// CPU and the hottest node's share of total heat over it.
fn measure_window(db: &mut WattDb, window: SimDuration) -> (f64, f64) {
    let _ = db.status();
    db.run_for(window);
    let status = db.status();
    let max_cpu = status
        .nodes
        .iter()
        .filter(|n| n.state == wattdb_energy::NodeState::Active)
        .map(|n| n.cpu)
        .fold(0.0, f64::max);
    let total_heat: f64 = status.nodes.iter().map(|n| n.heat).sum();
    let max_heat_share = if total_heat > 0.0 {
        status.nodes.iter().map(|n| n.heat).fold(0.0, f64::max) / total_heat
    } else {
        0.0
    };
    (max_cpu, max_heat_share)
}

/// Re-home the first `hot` clients onto warehouse `wh`.
fn rehome(c: &mut Cluster, hot: usize, wh: u32) {
    for client in c.clients.iter_mut().take(hot) {
        client.home_warehouse = wh;
    }
}

/// Run the advancing-hotspot (drift) shootout: one data node, the hot
/// client population re-homing to the next of 8 warehouses every 60 s
/// (TPC-C's insert-advancing ORDER/ORDER-LINE/NEW-ORDER front), one
/// standby target, and the heat-aware planner fed historical heat
/// (`horizon` zero) or heat projected `horizon` ahead along each
/// segment's velocity.
///
/// Sequencing matters: the cluster first runs monitor-only (the CPU
/// ceiling out of reach) while warehouse 0 accumulates 20 s of history;
/// then the front advances to warehouse 1 and, a couple of windows later,
/// the real thresholds are engaged. The scale-out plan therefore forms
/// exactly in the regime the ROADMAP describes — history pointing at a
/// warehouse the front has already left — and the post-rebalance window
/// is measured inside the new warehouse's dwell. Reports the same row as
/// the stationary shootout so both phases print side by side.
pub fn run_drift_shootout(horizon: SimDuration) -> PlannerShootoutRow {
    const WAREHOUSES: u32 = 8;
    const DWELL: SimDuration = SimDuration::from_secs(60);
    let mut db = shootout_cluster(2, WAREHOUSES, &[NodeId(0)])
        .policy(PolicyConfig {
            cpu_high: 1.1, // monitor-only during warm-up: drift observes, nothing fires
            cpu_low: 0.0,
            ..Default::default()
        })
        .heat_tracking(HeatConfig {
            velocity_half_life: SimDuration::from_secs(5),
            horizon,
            ..Default::default()
        })
        .autopilot(true)
        .build();
    let hot_n = (HOT_CLIENTS as f64 * HOT_FRACTION).round() as usize;
    db.start_tenant(HOT_CLIENTS, THINK, mixed_tenant(HOT_FRACTION, UPDATE_PCT));
    // Warm up on warehouse 0, then advance the front to warehouse 1 (and
    // keep it advancing every dwell thereafter).
    db.run_for(SimDuration::from_secs(20));
    db.with_runtime(|cl, sim| {
        rehome(&mut cl.borrow_mut(), hot_n, 1);
        let handle = cl.clone();
        let mut front = 1u32;
        sim.every(DWELL, move |_| {
            front = (front + 1) % WAREHOUSES;
            rehome(&mut handle.borrow_mut(), hot_n, front);
            true
        });
    });
    // Two windows on the new warehouse: history still favours warehouse
    // 0, velocity favours warehouse 1. Now arm the real thresholds.
    db.run_for(SimDuration::from_secs(10));
    db.engage_autopilot(cpu_scale_out(Planner::HeatAware));
    // The settle window stays inside the current warehouse's dwell.
    settle_and_measure(&mut db, Planner::HeatAware, 40, SimDuration::from_secs(25))
}

/// The mixed-operator shootout's costs: light SQL point operations (the
/// wimpy-core recipe at ×8) sharing a node with genuinely heavy
/// scan/aggregation queries (the analytic operators ×40). Both heat
/// signals in the comparison run with the *same* calibration — only the
/// signal differs.
fn mixed_costs() -> CostParams {
    let c = CostParams::scaled(8);
    CostParams {
        scan_per_record: c.scan_per_record * 40,
        agg_per_record: c.agg_per_record * 40,
        project_per_record: c.project_per_record * 40,
        sort_per_record_level: c.sort_per_record_level * 40,
        ..c
    }
}

/// The warehouses the mixed-operator shootout scans. The scanned table is
/// ORDER-LINE: the most rows per warehouse (most operator CPU) at the
/// smallest row width (fewest bytes to ship) — maximum contrast between
/// access-count heat and cost heat.
pub const MIXED_SCAN_WAREHOUSES: Range<u32> = 2..3;

/// Run the mixed-operator shootout: 32 point-read-hot clients on
/// warehouse 0 share the one data node with a scan+aggregation over
/// [`MIXED_SCAN_WAREHOUSES`] every 3 s, one standby target, autopilot
/// scale-out on the CPU ceiling. Count-based heat (`cost_based` false)
/// sees only access counts (the point segments), cost-based heat sees
/// the *work* (the scan segments). Scans re-resolve each segment's
/// storage node at dispatch, so whichever segments the planner ships take
/// their scan CPU with them.
pub fn run_mixed_shootout(cost_based: bool) -> PlannerShootoutRow {
    let mut builder = shootout_cluster(2, 4, &[NodeId(0)])
        .costs(mixed_costs())
        .policy(cpu_scale_out(Planner::HeatAware))
        .autopilot(true);
    if !cost_based {
        builder = builder.cost_model(None);
    }
    let mut db = builder.build();
    db.start_tenant(32, THINK, mixed_tenant(1.0, UPDATE_PCT));
    let scan_table = wattdb_tpcc::TpccTable::OrderLine.table_id();
    let scan_range =
        wattdb_tpcc::warehouse_range(MIXED_SCAN_WAREHOUSES.start, MIXED_SCAN_WAREHOUSES.end);
    db.with_runtime(|cl, sim| {
        let handle = cl.clone();
        sim.every(SimDuration::from_secs(3), move |sim| {
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
    settle_and_measure(&mut db, Planner::HeatAware, 80, SimDuration::from_secs(30))
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

/// Warm-up of the read-scaling and node-kill runs.
const REPLICA_WARM: SimDuration = SimDuration::from_secs(30);

/// The read-scaling and node-kill load: a read-heavy population (10 %
/// Payments), 90 % of it on one hot warehouse. Hot but unsaturated: the
/// baseline's hot node must sit below 100 % CPU, or the fan-out's split
/// hides inside the clip.
fn start_replica_load(db: &mut WattDb) {
    db.start_tenant(16, SimDuration::from_millis(60), mixed_tenant(0.9, 10));
}

/// Run the replication shootout's read-scaling phase: two data nodes, the
/// hot warehouse on the first, served with (`factor` 1) or without
/// (`factor` 0) follower replicas, and no autopilot (nothing rebalances —
/// the comparison isolates what read fan-out alone buys). With replicas,
/// the executor's read rotation takes turns across the leader and its
/// caught-up follower, splitting the hot node's CPU;
/// the wire cost is bounded by the WAL itself (each flushed record ships
/// at most once per follower). Measures max active-node CPU over 60 s.
pub fn run_failover_shootout(factor: usize) -> FailoverShootoutRow {
    let mut db = shootout_cluster(4, 4, &[NodeId(0), NodeId(1)])
        .replication(factor)
        .build();
    start_replica_load(&mut db);
    db.run_for(REPLICA_WARM);
    let (post_max_cpu, post_max_heat_share) = measure_window(&mut db, SimDuration::from_secs(60));
    let shipped = db.with_cluster(|c| c.replication.shipped_bytes());
    FailoverShootoutRow {
        row: PlannerShootoutRow {
            post_max_cpu,
            post_max_heat_share,
            ..PlannerShootoutRow::shipped(false, shipped, 0)
        },
        replica_reads: db.with_cluster(|c| c.replication.reads()),
        replica_shipped_bytes: shipped,
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

/// Run the node-kill phase: three data nodes holding 6 warehouses under
/// factor 1, the read-scaling load, autopilot on a failover-only policy,
/// the middle node killed after warm-up. Polls each simulated second
/// until the factor is restored.
pub fn run_failover_recovery() -> FailoverRecovery {
    let mut db = shootout_cluster(4, 6, &[NodeId(0), NodeId(1), NodeId(2)])
        .replication(1)
        .policy(PolicyConfig {
            cpu_high: 1.1, // failover-only: every elasticity trigger inert
            cpu_low: 0.0,
            ..Default::default()
        })
        .autopilot(true)
        .build();
    start_replica_load(&mut db);
    db.run_for(REPLICA_WARM);
    let victim = NodeId(1);
    let orphaned = db.with_cluster(|c| replication::orphans(c, victim).len());
    db.fail_node(victim);
    let killed_at = db.now();
    let horizon = SimDuration::from_secs(600);
    let mut recovered = false;
    while db.now() - killed_at < horizon {
        db.run_for(SimDuration::from_secs(1));
        let done = db.with_cluster(|c| {
            !replication::references(c, victim) && c.replication.under_replicated().is_empty()
        });
        if done {
            recovered = true;
            break;
        }
    }
    FailoverRecovery {
        recovered,
        recovery_secs: (db.now() - killed_at).as_secs_f64(),
        rereplication_bytes: db.with_cluster(|c| c.replication.rereplicated_bytes),
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

/// Run the drain-under-replication phase: three data nodes holding 6
/// warehouses under factor 1, idle below the low-CPU bound, autopilot on
/// a drain-only policy. The coldest node hosts follower copies for the
/// survivors' segments — the scale-in must re-home those copies in the
/// same decision, suspend the node, and leave zero under-replicated
/// segments once the backfill copies land. Polls each simulated second
/// until settled.
pub fn run_drain_under_replication() -> DrainUnderReplication {
    let mut db = shootout_cluster(4, 6, &[NodeId(0), NodeId(1), NodeId(2)])
        .replication(1)
        .policy(PolicyConfig {
            cpu_high: 1.1, // drain-only: the idle cluster breaches cpu_low at once
            cpu_low: 0.5,
            patience: 2,
            ..Default::default()
        })
        .autopilot(true)
        .build();
    let copies_at_start: std::collections::BTreeMap<NodeId, usize> = db.with_cluster(|c| {
        (0..4u16)
            .map(|n| (NodeId(n), c.replication.followed_by(NodeId(n)).len()))
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
                    Outcome::Suspended { nodes } if !nodes.is_empty() => Some(nodes.clone()),
                    _ => None,
                })
                .flatten()
                .collect();
            if !suspended.is_empty() {
                drain_secs = (db.now() - engaged_at).as_secs_f64();
            }
            continue;
        }
        if !db.rebalancing() {
            break;
        }
    }
    let rehomed_copies = suspended
        .iter()
        .map(|n| copies_at_start.get(n).copied().unwrap_or(0))
        .sum();
    let (under_replicated, invariants_ok) = db.with_cluster(|c| {
        (
            c.replication.under_replicated().len(),
            replication::check_invariants(c).is_none(),
        )
    });
    DrainUnderReplication {
        drained: !suspended.is_empty(),
        drain_secs,
        rehomed_copies,
        rereplication_bytes: db.with_cluster(|c| c.replication.rereplicated_bytes),
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
pub fn run_timeline_capture() -> String {
    let mut db = shootout_cluster(4, 4, &[NodeId(0), NodeId(1)])
        .replication(1)
        .policy(cpu_scale_out(Planner::HeatAware))
        .autopilot(true)
        .build();
    db.start_tenant(HOT_CLIENTS, THINK, mixed_tenant(HOT_FRACTION, UPDATE_PCT));
    settle_and_measure(&mut db, Planner::HeatAware, 80, SimDuration::from_secs(30));
    db.export_timeline_string()
}

/// One labelled row of the machine-readable shootout summary.
#[derive(Debug, Clone)]
pub struct BenchJsonRow {
    /// Shootout phase (`"stationary"`, `"advancing"`, `"mixed"`, …).
    pub phase: &'static str,
    /// Variant within the phase (planner or heat-signal label).
    pub variant: &'static str,
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

/// Run the §5.1 experiment: 80 OLTP clients on two loaded nodes, 40 s of
/// warm-up, then move 50 % of the data to two fresh nodes under `scheme`
/// and observe 180 s. With `helpers`, two helper nodes attach during the
/// rebalance (Fig. 8).
pub fn run_scheme_experiment(scheme: Scheme, helpers: bool) -> SchemeRun {
    let mut db = WattDb::builder()
        .nodes(10)
        .scheme(scheme)
        .warehouses(8)
        .density(0.05)
        // Bulk I/O ×800: Fig. 6-class rebalance durations from the
        // scaled-down dataset.
        .io_scale(800)
        // ×40 puts the two initial nodes near saturation, as in the
        // paper's runs.
        .costs(CostParams::scaled(40))
        .segment_pages(16)
        .bucket(SimDuration::from_secs(5))
        .seed(42)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .build();
    db.start_oltp(80, SimDuration::from_millis(50));
    db.run_for(SimDuration::from_secs(40));
    let trigger = db.now();
    let sources = [NodeId(0), NodeId(1)];
    let targets = [NodeId(2), NodeId(3)];
    if helpers {
        // Fig. 8: the helpers wire up with the rebalance and detach when
        // it completes.
        let plan = db.with_runtime(|cl, sim| {
            ControlPlan::fraction(&cl.borrow(), sim.now(), 0.5, &sources, &targets)
        });
        db.run(ControlPlan {
            attach: Some(HelperAttach::manual(&sources, &[NodeId(4), NodeId(5)])),
            ..plan
        });
    } else {
        db.rebalance(0.5, &sources, &targets);
    }
    db.run_for(SimDuration::from_secs(180));
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
    let (o, started) = (out.clone(), sim.now());
    let done = Completion::call(move |sim| *o.borrow_mut() = Some(sim.now().since(started)));
    replay_trace(&db, &mut sim, trace, broker, done);
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
        let counted = Completion::call(move |_| *d.borrow_mut() += 1);
        replay_trace(&db, &mut sim, trace, broker.clone(), counted);
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
/// under the given CC mode. Fails with the first version chain that does
/// not resolve while the storage line is sampled.
pub fn fig3_run(update_pct: u32, mode: CcMode) -> Result<Fig3Point> {
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
    let tenant = mixed_tenant(0.0, update_pct);
    db.start_tenant(24, SimDuration::from_millis(25), tenant);
    db.run_for(SimDuration::from_secs(10));
    let move_start = db.now();
    let completed_before = db.completed();
    db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
    // Track peak storage overhead during the move; a chain that does not
    // resolve ends the sampling and the run.
    let peak: Rc<RefCell<Result<f64>>> = Rc::new(RefCell::new(Ok(1.0)));
    db.with_runtime(|cl, sim| {
        let cl = cl.clone();
        let peak = peak.clone();
        sim.every(SimDuration::from_secs(2), move |_| {
            let c = cl.borrow();
            let mut peak = peak.borrow_mut();
            let (versions, live) = match c.version_stats() {
                Ok(stats) => stats,
                Err(e) => {
                    *peak = Err(e);
                    return false;
                }
            };
            let mut ratio = if live > 0 {
                versions as f64 / live as f64
            } else {
                1.0
            };
            // Locking mode keeps pending changes, not versions: a row
            // image held for undo is one more stored image of its row.
            ratio += c.txn.pending_changes() as f64 / live.max(1) as f64;
            if let Ok(p) = peak.as_mut() {
                *p = p.max(ratio);
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
    let storage_ratio = peak.borrow().clone()?;
    Ok(Fig3Point {
        update_pct,
        ta_per_minute: ta,
        storage_ratio,
    })
}
