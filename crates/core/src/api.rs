//! The high-level WattDB facade: build a cluster, drive a workload, let
//! the autopilot resize it, read out the experiment series.
//!
//! The facade owns the simulator and the cluster outright, and offers one
//! entry point per operation, in three verb groups:
//!
//! * **lifecycle** — [`WattDb::builder`] / [`WattDbBuilder::build`], the
//!   `start_*` workload calls, [`WattDb::run_for`], [`WattDb::now`],
//!   [`WattDb::stop_clients`], [`WattDb::engage_autopilot`];
//! * **act** — [`WattDb::plan`] turns a [`Decision`] into a
//!   [`ControlPlan`] (or names the guard that refused) and
//!   [`WattDb::run`] carries a plan out, exactly as the autopilot does;
//!   a scripted helper run fills in `ControlPlan { attach / detach, .. }`
//!   by hand. [`WattDb::rebalance`], [`WattDb::rebalance_planned`],
//!   [`WattDb::fail_node`] and [`WattDb::scan`] are the scripted
//!   shorthands that keep a name;
//! * **read** — [`WattDb::status`] (per-node state, CPU, segments, heat,
//!   power), [`WattDb::events`], [`WattDb::export_timeline_string`],
//!   [`WattDb::timeseries`], [`WattDb::last_rebalance`] and the run
//!   counters. Anything else is one scoped [`WattDb::with_cluster`]
//!   closure over the raw engine state ([`WattDb::with_runtime`] adds the
//!   simulator and mutable access) — never `Rc<RefCell<…>>` internals.
//!
//! ```
//! use wattdb_core::api::WattDb;
//! use wattdb_core::cluster::Scheme;
//! use wattdb_common::{NodeId, SimDuration};
//!
//! let mut db = WattDb::builder()
//!     .nodes(4)
//!     .scheme(Scheme::Physiological)
//!     .warehouses(2)
//!     .density(0.01)
//!     .initial_data_nodes(&[NodeId(0), NodeId(1)])
//!     .autopilot(true)
//!     .build();
//! db.start_oltp(8, SimDuration::from_millis(100));
//! db.run_for(SimDuration::from_secs(5));
//! assert!(db.completed() > 0);
//! let status = db.status();
//! assert_eq!(status.nodes.len(), 4);
//! ```

use wattdb_common::{
    CostModel, DriftConfig, HeatConfig, KeyRange, NodeId, SimDuration, SimTime, TableId, Watts,
};
use wattdb_energy::NodeState;
use wattdb_planner::Plan;
use wattdb_sim::Sim;
use wattdb_tpcc::{ClientConfig, LoadTrace, TpccConfig};
use wattdb_txn::CcMode;

use crate::autopilot::{AutoPilot, AutoPilotConfig, ControlEvent};
use crate::cluster::{Cluster, ClusterConfig, ClusterRc, Scheme};
use crate::executor;
use crate::heat;
use crate::migration::{self, Applied, ControlPlan, RebalanceReport};
use crate::policy::{self, Decision, PolicyConfig};

/// Builder for a ready-to-run WattDB deployment.
pub struct WattDbBuilder {
    cfg: ClusterConfig,
    tpcc: TpccConfig,
    initial: Vec<NodeId>,
    policy: PolicyConfig,
    monitoring: SimDuration,
    autopilot: bool,
    telemetry: bool,
}

impl Default for WattDbBuilder {
    fn default() -> Self {
        Self {
            cfg: ClusterConfig::default(),
            tpcc: TpccConfig::default(),
            initial: vec![NodeId(0), NodeId(1)],
            policy: PolicyConfig::default(),
            monitoring: SimDuration::from_secs(5),
            autopilot: false,
            telemetry: false,
        }
    }
}

impl WattDbBuilder {
    /// Total cluster size.
    pub fn nodes(mut self, n: u16) -> Self {
        self.cfg.nodes = n;
        self
    }

    /// Repartitioning scheme.
    pub fn scheme(mut self, s: Scheme) -> Self {
        self.cfg.scheme = s;
        self
    }

    /// Concurrency control mode.
    pub fn cc_mode(mut self, m: CcMode) -> Self {
        self.cfg.cc_mode = m;
        self
    }

    /// TPC-C scale factor.
    pub fn warehouses(mut self, w: u32) -> Self {
        self.tpcc.warehouses = w;
        self
    }

    /// TPC-C cardinality density.
    pub fn density(mut self, d: f64) -> Self {
        self.tpcc.density = d;
        self
    }

    /// Bulk-I/O scale multiplier. Segment copies and migration scans
    /// charge `bytes × io_scale`, so a memory-friendly scaled-down dataset
    /// still produces the transfer times of the paper's 100 GB deployment;
    /// leave at 1 for functional tests, raise into the hundreds to
    /// reproduce Fig. 6-class rebalance durations.
    pub fn io_scale(mut self, s: u64) -> Self {
        self.cfg.io_scale = s;
        self
    }

    /// Pages per segment.
    pub fn segment_pages(mut self, p: u32) -> Self {
        self.cfg.segment_pages = p;
        self
    }

    /// Metric bucket width.
    pub fn bucket(mut self, b: SimDuration) -> Self {
        self.cfg.bucket = b;
        self
    }

    /// Override the CPU cost calibration (e.g. scaled-up per-op costs to
    /// model heavier SQL-layer work per transaction).
    pub fn costs(mut self, c: wattdb_common::CostParams) -> Self {
        self.cfg.costs = c;
        self
    }

    /// Heat-tracking parameters: decay half-life and per-access weights.
    pub fn heat_tracking(mut self, h: HeatConfig) -> Self {
        self.cfg.heat = h;
        self
    }

    /// The heat signal's cost model. `Some` (the default) makes heat
    /// **cost-based**: every access charges its scalarized CPU/page/
    /// network demand, so CPU-heavy operators weigh more than cheap point
    /// reads. `None` disables cost tracing; heat falls back to the flat
    /// per-access weights of [`WattDbBuilder::heat_tracking`] (weighted
    /// counts).
    pub fn cost_model(mut self, m: impl Into<Option<CostModel>>) -> Self {
        self.cfg.cost_model = m.into();
        self
    }

    /// Heat-drift parameters: how fast per-segment velocity estimates
    /// adapt and how far ahead the planner projects heat. A zero
    /// [`DriftConfig::horizon`] makes every plan use historical heat
    /// (the pre-drift behaviour).
    pub fn drift(mut self, d: DriftConfig) -> Self {
        self.cfg.drift = d;
        self
    }

    /// Per-segment replication: `factor` log-shipped follower copies per
    /// segment (0, the default, is the paper's single-copy behaviour).
    /// Followers are placed by the heat-aware planner at build time —
    /// coldest nodes first, never the leader's own node — fed from the
    /// leader's WAL, and serve caught-up reads when
    /// [`wattdb_common::ReplicaConfig::read_routing`] allows.
    pub fn replication(mut self, factor: usize) -> Self {
        self.cfg.replication.factor = factor;
        self
    }

    /// Experiment seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self.tpcc.seed = s;
        self
    }

    /// Client arrival batching: per-client think timers, the pooled
    /// aggregated arrival process, or `Auto` (the default — pooled above
    /// [`wattdb_tpcc::POOL_AUTO_THRESHOLD`] modeled clients). Forcing
    /// either mode pins the spawn path regardless of population size.
    pub fn client_batching(mut self, b: wattdb_tpcc::ClientBatching) -> Self {
        self.cfg.client_batching = b;
        self
    }

    /// Nodes that host the initial data (and start powered).
    pub fn initial_data_nodes(mut self, nodes: &[NodeId]) -> Self {
        self.initial = nodes.to_vec();
        self
    }

    /// Elasticity thresholds the autopilot enforces (§3.4; the paper's
    /// 80 % CPU ceiling by default).
    pub fn policy(mut self, p: PolicyConfig) -> Self {
        self.policy = p;
        self
    }

    /// Monitoring cadence: how often nodes report utilization to the
    /// master (paper: "every few seconds"; default 5 s).
    pub fn monitoring(mut self, period: SimDuration) -> Self {
        self.monitoring = period;
        self
    }

    /// Engage the elasticity autopilot at build time: the cluster then
    /// monitors itself and powers nodes up/down autonomously, logging
    /// every decision to [`WattDb::events`].
    pub fn autopilot(mut self, enabled: bool) -> Self {
        self.autopilot = enabled;
        self
    }

    /// Sample telemetry windows even without the autopilot: a
    /// monitoring-cadence loop freezes the metrics registry every window.
    /// Redundant (and ignored) when the autopilot is engaged — its
    /// control loop already samples each window, and two loops must never
    /// both drive the stateful utilization probes.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Build, load TPC-C, start the power sampler, and — when requested —
    /// engage the autopilot.
    pub fn build(self) -> WattDb {
        let cluster = Cluster::new(self.cfg, &self.initial);
        let mut sim = Sim::new();
        executor::install(&cluster, &mut sim);
        {
            let mut c = cluster.borrow_mut();
            c.load_tpcc(self.tpcc, &self.initial)
                .expect("dataset loads");
            c.bootstrap_replicas(sim.now());
        }
        Cluster::start_power_sampler(&cluster, &mut sim);
        let autopilot = self.autopilot.then(|| {
            AutoPilot::engage(
                &cluster,
                &mut sim,
                AutoPilotConfig {
                    policy: self.policy,
                    period: self.monitoring,
                },
            )
        });
        if self.telemetry && autopilot.is_none() {
            // Sampling-only loop: the autopilot's loop does this itself,
            // and the stateful utilization probes tolerate exactly one
            // sampler.
            crate::monitor::start_monitoring(
                &cluster,
                &mut sim,
                self.monitoring,
                |cl, sim, view| {
                    let at = sim.now();
                    crate::telemetry_sink::sample_window(
                        &mut cl.borrow_mut(),
                        view,
                        at,
                        sim.events_executed(),
                    );
                    true
                },
            );
        }
        WattDb {
            sim,
            cluster,
            autopilot,
            policy: self.policy,
        }
    }
}

/// One node's line in a [`ClusterStatus`].
#[derive(Debug, Clone)]
pub struct NodeStatus {
    /// Node id.
    pub node: NodeId,
    /// Power state.
    pub state: NodeState,
    /// CPU utilization since the previous `status()` call, in \[0,1\].
    pub cpu: f64,
    /// Segments stored on the node.
    pub segments: usize,
    /// Total decayed access heat of the node's segments.
    pub heat: f64,
    /// Node power draw (CPU-proportional plus drives).
    pub power: Watts,
}

/// Point-in-time snapshot of the whole deployment.
#[derive(Debug, Clone)]
pub struct ClusterStatus {
    /// Virtual time of the snapshot.
    pub at: SimTime,
    /// Per-node state, indexed by `NodeId::raw()`.
    pub nodes: Vec<NodeStatus>,
    /// Total cluster power including the interconnect switch.
    pub total_power: Watts,
    /// Nodes currently active.
    pub active_nodes: usize,
    /// Segments across the cluster.
    pub segments: usize,
    /// Is a rebalance in flight?
    pub rebalancing: bool,
    /// Which heat signal drives placement: `"cost"` (scalarized access
    /// cost, the default) or `"count"` (flat weighted access counts).
    pub heat_signal: &'static str,
    /// Kernel events executed so far, by kind (see
    /// [`wattdb_sim::EVENT_KINDS`]): where the engine's event budget goes.
    pub events_by_kind: [(&'static str, u64); wattdb_sim::EVENT_KINDS.len()],
}

/// A running WattDB deployment under simulation.
pub struct WattDb {
    sim: Sim,
    cluster: ClusterRc,
    autopilot: Option<AutoPilot>,
    /// Policy in force — facade-side planning (`plan`, `plan_scale_out`)
    /// reads its thresholds so scripted plans match what the autopilot
    /// would produce.
    policy: PolicyConfig,
}

impl Drop for WattDb {
    /// A request queued on a CPU, drive or NIC holds a continuation that
    /// holds the cluster, and the cluster holds the resource: dropping a
    /// deployment with work queued would otherwise never free it.
    fn drop(&mut self) {
        let Ok(c) = self.cluster.try_borrow() else {
            return;
        };
        for n in &c.nodes {
            let nic = [c.net.tx_resource(n.id), c.net.rx_resource(n.id)];
            let drives = n.disks.iter().map(|d| d.resource());
            for r in drives.chain(nic).chain([&n.cpu]) {
                if let Ok(mut r) = r.try_borrow_mut() {
                    r.abandon_queue();
                }
            }
        }
    }
}

impl WattDb {
    /// Start building a deployment.
    pub fn builder() -> WattDbBuilder {
        WattDbBuilder::default()
    }

    // ----------------------------------------------------------- lifecycle

    /// Spawn `n` closed-loop clients with the given mean think time,
    /// homed round-robin over all warehouses, and start them:
    /// [`WattDb::start_oltp_skewed`] with no hot range.
    pub fn start_oltp(&mut self, n: u32, think: SimDuration) {
        self.start_oltp_skewed(n, think, 0.0, 1);
    }

    /// Spawn `n` closed-loop clients with the given mean think time and
    /// start them, with a hot-range skew: `hot_fraction` of the clients
    /// are homed inside the first `hot_warehouses` warehouses,
    /// concentrating access heat on the low end of the key space
    /// (`0.0` homes every client round-robin over all warehouses).
    ///
    /// # Panics
    /// When `n == 0`: an empty population would silently generate no
    /// load and every downstream reading (throughput, heat, autopilot
    /// decisions) would be measuring an idle cluster. Use
    /// [`WattDb::run_for`] without a workload for idle experiments.
    pub fn start_oltp_skewed(
        &mut self,
        n: u32,
        think: SimDuration,
        hot_fraction: f64,
        hot_warehouses: u32,
    ) {
        assert!(
            n > 0,
            "start_oltp: n == 0 clients would spawn no workload — \
             run_for() alone measures an idle cluster"
        );
        {
            let mut c = self.cluster.borrow_mut();
            c.spawn_clients_skewed(
                n,
                ClientConfig {
                    think_time: think,
                    ..Default::default()
                },
                hot_fraction,
                hot_warehouses,
            );
        }
        executor::start_clients(&self.cluster, &mut self.sim);
    }

    /// Start a trace-driven workload: spawn the [`LoadTrace`]'s carrier
    /// population (one pooled carrier group per tenant, homed by each
    /// tenant's hot-warehouse rule) and schedule the trace's breakpoints
    /// to resize the offered load over sim-time, beginning now. Trace
    /// runs are always pooled; `think` is every carrier's mean think
    /// time, so a target of `n` clients offers `n / think` transactions
    /// per second.
    pub fn start_traced_oltp(&mut self, trace: LoadTrace, think: SimDuration) {
        assert!(
            trace.total_peak() > 0,
            "start_traced_oltp: the trace never targets a single client — \
             an all-zero schedule would spawn no workload"
        );
        {
            let mut c = self.cluster.borrow_mut();
            c.spawn_traced_clients(
                &trace,
                ClientConfig {
                    think_time: think,
                    ..Default::default()
                },
            );
        }
        executor::start_clients(&self.cluster, &mut self.sim);
        executor::schedule_trace(&self.cluster, &mut self.sim, &trace);
    }

    /// Advance virtual time by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.sim.now() + d;
        self.sim.run_until(until);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Stop clients from submitting further transactions.
    pub fn stop_clients(&mut self) {
        self.cluster.borrow_mut().stopped = true;
    }

    /// Engage the elasticity control loop on a running deployment.
    /// Replaces (and disengages) any previous loop; [`WattDb::plan`] and
    /// [`WattDb::plan_scale_out`] follow the new policy from here on.
    pub fn engage_autopilot(&mut self, config: AutoPilotConfig) {
        if let Some(old) = self.autopilot.take() {
            old.disengage();
        }
        self.policy = config.policy;
        self.autopilot = Some(AutoPilot::engage(&self.cluster, &mut self.sim, config));
    }

    // ----------------------------------------------------------------- act

    /// Turn a [`Decision`] into the [`ControlPlan`] that carries it out
    /// under the policy in force, or name the guard that refused it —
    /// [`policy::plan`], the planning step of every autopilot window.
    /// Pure: reads the cluster, changes nothing.
    pub fn plan(&self, decision: &Decision) -> Result<ControlPlan, &'static str> {
        let c = self.cluster.borrow();
        policy::plan(&c, self.sim.now(), decision, &self.policy)
    }

    /// Carry out a [`ControlPlan`] — from [`WattDb::plan`], or filled in
    /// by hand (a scripted helper run sets `attach` / `detach`) — through
    /// [`migration::run`], the runner the autopilot's decisions go
    /// through. Returns what was started.
    pub fn run(&mut self, plan: ControlPlan) -> Applied {
        migration::run(&self.cluster, &mut self.sim, plan)
    }

    /// Kick off a manual rebalance moving `fraction` of each source's
    /// data with the fraction heuristic (the autopilot's fallback
    /// planner; this remains for scripted experiments). A no-op while
    /// another rebalance is in flight.
    pub fn rebalance(&mut self, fraction: f64, sources: &[NodeId], targets: &[NodeId]) {
        let plan = ControlPlan::fraction(&self.cluster.borrow(), fraction, sources, targets);
        self.run(plan);
    }

    /// Plan (but do not start) a heat-aware scale-out from the current
    /// heat table, using the configured policy's heat tolerance — the
    /// same plan the autopilot would produce. Returns the full plan —
    /// moves, bytes, and the predicted per-node heat — for inspection or
    /// for [`WattDb::rebalance_planned`].
    pub fn plan_scale_out(&self, sources: &[NodeId], targets: &[NodeId]) -> Plan {
        let c = self.cluster.borrow();
        heat::plan_scale_out(
            &c,
            self.sim.now(),
            self.policy.heat_tolerance,
            sources,
            targets,
        )
    }

    /// Execute an externally produced plan (see
    /// [`WattDb::plan_scale_out`]): power on `targets` and start the
    /// moves. Requires a segment scheme (physical/physiological). A no-op
    /// when the plan is empty or another rebalance is already in flight.
    pub fn rebalance_planned(&mut self, plan: &Plan, targets: &[NodeId]) {
        self.run(ControlPlan::planned(plan, targets));
    }

    /// Fault injection: kill `node` mid-anything. The node stops serving
    /// immediately (routing to it spins until failover re-points), its
    /// pending migration moves are dropped, and — with an autopilot
    /// engaged — the next monitoring window detects the loss, promotes
    /// the most-caught-up follower for every segment it led, and
    /// schedules re-replication. Idempotent.
    pub fn fail_node(&mut self, node: NodeId) {
        self.cluster.borrow_mut().fail_node(node);
    }

    /// Dispatch an analytic range scan of `table` over `range`, optionally
    /// topped by a group-aggregation on the storage node. The scan's
    /// operator cost (priced by `wattdb_query` from the shared
    /// [`wattdb_common::CostParams`]) is charged to each covered
    /// segment's heat at dispatch, and its hardware demands replay
    /// through the cluster's shared resources as virtual time advances —
    /// call [`WattDb::run_for`] to let them drain.
    pub fn scan(
        &mut self,
        table: TableId,
        range: KeyRange,
        agg: Option<wattdb_query::AggFunc>,
    ) -> crate::scan::ScanReport {
        crate::scan::submit_scan(&self.cluster, &mut self.sim, table, range, agg)
    }

    // ---------------------------------------------------------------- read

    /// The controller's decision log (empty when no autopilot ran).
    pub fn events(&self) -> Vec<ControlEvent> {
        self.autopilot
            .as_ref()
            .map(|a| a.events())
            .unwrap_or_default()
    }

    /// Serialize the full flight-recorder state — spans, window samples,
    /// decision records — as JSONL. Byte-identical across fixed-seed runs.
    pub fn export_timeline_string(&self) -> String {
        self.cluster.borrow().telemetry.export_jsonl()
    }

    /// Is a rebalance still running?
    pub fn rebalancing(&self) -> bool {
        self.cluster.borrow().mover.is_some()
    }

    /// Summary of the last completed rebalance, manual or autopiloted
    /// (the whole run's reports are `metrics.rebalances`).
    pub fn last_rebalance(&self) -> Option<RebalanceReport> {
        self.cluster.borrow().metrics.rebalances.last().copied()
    }

    /// Completed transactions so far.
    pub fn completed(&self) -> u64 {
        self.cluster.borrow().metrics.completed
    }

    /// Aborted transaction attempts so far.
    pub fn aborted(&self) -> u64 {
        self.cluster.borrow().metrics.aborted
    }

    /// Events the simulator has executed so far (engine-speed readout for
    /// benchmarks; deterministic, sim-domain).
    pub fn events_executed(&self) -> u64 {
        self.sim.events_executed()
    }

    /// Nodes currently active.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.cluster.borrow().active_nodes()
    }

    /// Live record keys across every segment index.
    pub fn live_records(&self) -> usize {
        self.cluster
            .borrow()
            .indexes
            .values()
            .map(|i| i.len())
            .sum()
    }

    /// Per-node state/CPU/segments/power snapshot. CPU utilizations are
    /// measured over the window since the previous `status()` call, on a
    /// probe independent of the monitoring loop's.
    pub fn status(&mut self) -> ClusterStatus {
        let now = self.sim.now();
        let mut c = self.cluster.borrow_mut();
        let c = &mut *c;
        let mut nodes = Vec::with_capacity(c.nodes.len());
        let mut total = c.power_model.switch_power();
        for n in &mut c.nodes {
            let cpu_res = n.cpu.clone();
            let cpu = n.status_probe.sample(&cpu_res, now);
            let state = n.life.power();
            let mut power = c.power_model.node_power(state, cpu);
            for d in &n.disks {
                power += c.power_model.disk_power(d.kind(), state);
            }
            total += power;
            nodes.push(NodeStatus {
                node: n.id,
                state,
                cpu,
                segments: c.seg_dir.on_node(n.id).count(),
                heat: c.heat.node_heat(&c.seg_dir, n.id, now).value(),
                power,
            });
        }
        ClusterStatus {
            at: now,
            active_nodes: nodes
                .iter()
                .filter(|n| n.state == NodeState::Active)
                .count(),
            segments: c.seg_dir.len(),
            rebalancing: c.mover.is_some(),
            heat_signal: c.heat.signal_label(),
            events_by_kind: self.sim.events_by_kind(),
            nodes,
            total_power: total,
        }
    }

    /// The experiment time series, resolved against the power meter:
    /// `(bucket start, qps, mean response ms, mean power W, J/query)`.
    pub fn timeseries(&self) -> Vec<(SimTime, f64, f64, f64, f64)> {
        let c = self.cluster.borrow();
        let bucket = c.metrics.qps.width();
        let bucket_secs = bucket.as_secs_f64();
        // Aggregate the 1 Hz power samples into metric buckets.
        let mut power_sum: std::collections::HashMap<u64, (f64, u64)> =
            std::collections::HashMap::new();
        for s in c.meter.series() {
            let b = s.at.as_micros() / bucket.as_micros();
            let e = power_sum.entry(b).or_insert((0.0, 0));
            e.0 += s.power.0;
            e.1 += 1;
        }
        c.metrics
            .qps
            .iter()
            .zip(c.metrics.response.iter())
            .map(|((at, count, _), (_, _, resp_sum))| {
                let b = at.as_micros() / bucket.as_micros();
                let power = power_sum
                    .get(&b)
                    .map(|(sum, n)| sum / *n as f64)
                    .unwrap_or(0.0);
                let qps = count as f64 / bucket_secs;
                let resp = if count > 0 {
                    resp_sum / count as f64
                } else {
                    0.0
                };
                let jpq = if count > 0 {
                    power * bucket_secs / count as f64
                } else {
                    0.0
                };
                (at, qps, resp, power, jpq)
            })
            .collect()
    }

    /// The deployment's rated peak power `P_peak`: every node active at
    /// 100 % CPU with all drives spinning, plus the switch — the
    /// denominator of the ideal `P(u) = u · P_peak` proportionality line
    /// (use with [`wattdb_energy::proportionality_index_rated`]).
    /// Normalizing by this, not by the *observed* peak, keeps a trace
    /// that never reaches full load from inflating its score.
    pub fn rated_peak_watts(&self) -> Watts {
        let c = self.cluster.borrow();
        let mut total = c.power_model.switch_power();
        for n in &c.nodes {
            total += c.power_model.node_power(NodeState::Active, 1.0);
            for d in &n.disks {
                total += c.power_model.disk_power(d.kind(), NodeState::Active);
            }
        }
        total
    }

    // ------------------------------------------------------- escape hatch

    /// Scoped read access to the engine state, for assertions and
    /// analyses the typed surface does not cover.
    pub fn with_cluster<R>(&self, f: impl FnOnce(&Cluster) -> R) -> R {
        f(&self.cluster.borrow())
    }

    /// Scoped access to the shared cluster handle *and* the simulator, for
    /// research drivers that schedule their own events (custom workload
    /// loops, probes, repeaters) or mutate engine state
    /// (`cl.borrow_mut()`). The closure must not hold the handle beyond
    /// its own scope.
    pub fn with_runtime<R>(&mut self, f: impl FnOnce(&ClusterRc, &mut Sim) -> R) -> R {
        f(&self.cluster, &mut self.sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Phase;

    fn small() -> WattDb {
        WattDb::builder()
            .nodes(4)
            .warehouses(2)
            .density(0.01)
            .segment_pages(8)
            .initial_data_nodes(&[NodeId(0), NodeId(1)])
            .seed(7)
            .build()
    }

    #[test]
    fn oltp_completes_transactions() {
        let mut db = small();
        db.start_oltp(4, SimDuration::from_millis(50));
        db.run_for(SimDuration::from_secs(10));
        assert!(db.completed() > 50, "completed {}", db.completed());
        db.with_cluster(|c| {
            assert!(c.txn.commit_count() > 0);
            // All completions attributed to the normal phase.
            assert!(c.metrics.mean_profile(Phase::Normal).is_some());
        });
    }

    #[test]
    fn physiological_rebalance_moves_ownership() {
        let mut db = small();
        db.start_oltp(4, SimDuration::from_millis(50));
        db.run_for(SimDuration::from_secs(5));
        assert_eq!(db.status().nodes[2].segments, 0);
        db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        db.run_for(SimDuration::from_secs(120));
        assert!(!db.rebalancing(), "rebalance finished");
        assert!(db.status().nodes[2].segments > 0, "segments arrived");
        let r = db.last_rebalance().expect("report recorded");
        assert!(r.segments_moved > 0);
    }

    #[test]
    fn no_records_lost_across_physiological_move() {
        let mut db = small();
        // No OLTP load: the record population must be identical.
        let before = db.live_records();
        db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        db.run_for(SimDuration::from_secs(120));
        assert!(!db.rebalancing());
        assert_eq!(db.live_records(), before, "no records lost or duplicated");
    }

    #[test]
    fn timeseries_has_power_column() {
        let mut db = small();
        db.start_oltp(2, SimDuration::from_millis(50));
        db.run_for(SimDuration::from_secs(15));
        let ts = db.timeseries();
        assert!(!ts.is_empty());
        let (_, qps, _resp, power, _jpq) = ts[0];
        assert!(qps > 0.0);
        assert!(power > 40.0, "cluster draws real power: {power}");
    }

    #[test]
    fn stop_clients_quiesces() {
        let mut db = small();
        db.start_oltp(2, SimDuration::from_millis(50));
        db.run_for(SimDuration::from_secs(5));
        db.stop_clients();
        let at_stop = db.completed();
        db.run_for(SimDuration::from_secs(5));
        let after = db.completed();
        // In-flight work may finish but no flood of new transactions.
        assert!(after - at_stop < 20, "drained: {at_stop} -> {after}");
    }

    #[test]
    fn status_reports_states_and_power() {
        let mut db = small();
        db.start_oltp(4, SimDuration::from_millis(50));
        db.run_for(SimDuration::from_secs(10));
        let s = db.status();
        assert_eq!(s.nodes.len(), 4);
        assert_eq!(s.active_nodes, 2, "initial data nodes active");
        assert_eq!(s.nodes[0].state, NodeState::Active);
        assert_eq!(s.nodes[3].state, NodeState::Standby);
        assert!(s.nodes[0].cpu > 0.0, "loaded node shows CPU use");
        assert!(s.nodes[0].segments > 0);
        assert_eq!(s.nodes[3].segments, 0);
        assert!(s.total_power.0 > 40.0, "real power: {}", s.total_power.0);
        assert!(!s.rebalancing);
        assert_eq!(
            s.segments,
            s.nodes.iter().map(|n| n.segments).sum::<usize>()
        );
    }

    #[test]
    #[should_panic(expected = "start_oltp: n == 0 clients would spawn no workload")]
    fn start_oltp_rejects_zero_clients() {
        let mut db = small();
        db.start_oltp(0, SimDuration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "n == 0 clients would spawn no workload")]
    fn start_oltp_skewed_rejects_zero_clients() {
        let mut db = small();
        db.start_oltp_skewed(0, SimDuration::from_millis(50), 0.8, 1);
    }

    #[test]
    fn traced_workload_tracks_the_schedule() {
        use wattdb_tpcc::{DiurnalConfig, LoadTrace};
        let trace = LoadTrace::diurnal(DiurnalConfig {
            min_clients: 20,
            max_clients: 400,
            period: SimDuration::from_secs(60),
            phase: 0.0,
            step: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(60),
            ..Default::default()
        });
        let mut db = small();
        db.start_traced_oltp(trace.clone(), SimDuration::from_millis(200));
        let target = |db: &WattDb| db.with_cluster(|c| c.pool.as_ref().map(|p| p.current_target()));
        assert_eq!(
            target(&db),
            Some(20),
            "trace runs are always pooled, and start in the trough"
        );
        db.run_for(SimDuration::from_secs(32));
        let mid = target(&db).unwrap();
        assert_eq!(
            mid,
            trace.total_at(SimDuration::from_secs(32)),
            "pool target follows the breakpoint schedule"
        );
        assert!(mid > 300, "half a period in, near the peak: {mid}");
        assert!(db.completed() > 0, "traced clients commit work");
    }

    #[test]
    fn rated_peak_covers_every_node_at_full_tilt() {
        let mut db = small();
        let rated = db.rated_peak_watts().0;
        // 4 nodes × (26 W CPU-max + drives) + 20 W switch, per the §3.1
        // defaults — comfortably above anything a 2-active-node run draws.
        assert!(rated > 100.0, "rated peak {rated} W");
        db.start_oltp(4, SimDuration::from_millis(50));
        db.run_for(SimDuration::from_secs(10));
        assert!(
            db.status().total_power.0 < rated,
            "observed power stays under rated"
        );
    }

    #[test]
    fn events_empty_without_autopilot() {
        let mut db = small();
        db.run_for(SimDuration::from_secs(10));
        assert!(db.events().is_empty());
    }

    #[test]
    fn engage_autopilot_after_build() {
        let mut db = small();
        db.run_for(SimDuration::from_secs(20));
        let windows = |db: &WattDb| db.with_cluster(|c| c.telemetry.timeline.len());
        assert_eq!(windows(&db), 0, "no loop, no decision records");
        db.engage_autopilot(AutoPilotConfig::default());
        db.run_for(SimDuration::from_secs(20));
        assert!(
            windows(&db) >= 3,
            "one record per 5 s window, holds included"
        );
    }
}
