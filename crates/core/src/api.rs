//! The high-level WattDB facade: build a cluster, drive a workload, let
//! the autopilot resize it, read out the experiment series.
//!
//! The facade owns the simulator and the cluster outright. Everyday
//! operation goes through typed methods — [`WattDb::status`],
//! [`WattDb::events`], [`WattDb::timeseries`], [`WattDb::rebalance`] —
//! and research code that needs the raw engine state borrows it through
//! the scoped [`WattDb::with_cluster`] family instead of reaching into
//! `Rc<RefCell<…>>` internals.
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
    CostModel, DriftConfig, HeatConfig, HelperPolicyConfig, KeyRange, NodeId, SimDuration, SimTime,
    TableId, Watts,
};
use wattdb_energy::NodeState;
use wattdb_planner::{HelperPlan, Plan, Planner};
use wattdb_replica::ReplicaMap;
use wattdb_sim::Sim;
use wattdb_tpcc::{ClientConfig, LoadTrace, TpccConfig};
use wattdb_txn::CcMode;

use crate::autopilot::{AutoPilot, AutoPilotConfig, ControlEvent};
use crate::cluster::{Cluster, ClusterConfig, ClusterRc, Scheme};
use crate::executor;
use crate::heat::{self, SegmentHeatStat};
use crate::migration::{self, ControlPlan, HelperAttach, HelperReport, RebalanceReport};
use crate::policy::PolicyConfig;

/// Builder for a ready-to-run WattDB deployment.
pub struct WattDbBuilder {
    cfg: ClusterConfig,
    tpcc: TpccConfig,
    initial: Vec<NodeId>,
    policy: PolicyConfig,
    monitoring: SimDuration,
    autopilot: bool,
    telemetry: bool,
    trace: Option<(LoadTrace, SimDuration)>,
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
            trace: None,
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

    /// Which planner turns elasticity decisions into segment moves
    /// (default: the heat-aware planner).
    pub fn planner(mut self, p: Planner) -> Self {
        self.policy.planner = p;
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

    /// Shorthand for setting only the projection horizon (see
    /// [`WattDbBuilder::drift`]). `SimDuration::ZERO` disables projection.
    pub fn drift_horizon(mut self, horizon: SimDuration) -> Self {
        self.cfg.drift.horizon = horizon;
        self
    }

    /// Helper-escalation policy: after how many skew fires without
    /// subsidence the policy attaches Fig. 8 helpers instead of shipping
    /// segments, how many helpers at most, and the net-heat floor below
    /// which a source gets none. `escalation_fires: 0` disables helper
    /// escalation (every skew fire rebalances, the pre-helper behaviour).
    pub fn helper_policy(mut self, h: HelperPolicyConfig) -> Self {
        self.policy.helper = h;
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

    /// Start a trace-driven workload at build time: the
    /// [`LoadTrace`]'s target-client schedule begins at t = 0 with the
    /// default mean think time ([`ClientConfig::default`]). Equivalent
    /// to calling [`WattDb::start_traced_oltp`] right after `build()`;
    /// use the facade call to pick a different think time or a later
    /// start.
    pub fn workload_trace(mut self, trace: LoadTrace) -> Self {
        self.trace = Some((trace, ClientConfig::default().think_time));
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
        let mut db = WattDb {
            sim,
            cluster,
            autopilot,
            policy: self.policy,
        };
        if let Some((trace, think)) = self.trace {
            db.start_traced_oltp(trace, think);
        }
        db
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
    /// Policy in force — facade-side planning (`plan_scale_out`,
    /// `plan_helpers`) reads its thresholds so manual plans match what
    /// the autopilot would produce.
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

    // ------------------------------------------------------------ workload

    /// Spawn `n` closed-loop clients with the given mean think time and
    /// start them.
    ///
    /// # Panics
    /// When `n == 0`: an empty population would silently generate no
    /// load and every downstream reading (throughput, heat, autopilot
    /// decisions) would be measuring an idle cluster. Use
    /// [`WattDb::run_for`] without a workload for idle experiments.
    pub fn start_oltp(&mut self, n: u32, think: SimDuration) {
        assert!(
            n > 0,
            "start_oltp: n == 0 clients would spawn no workload — \
             run_for() alone measures an idle cluster"
        );
        {
            let mut c = self.cluster.borrow_mut();
            c.spawn_clients(
                n,
                ClientConfig {
                    think_time: think,
                    ..Default::default()
                },
            );
        }
        executor::start_clients(&self.cluster, &mut self.sim);
    }

    /// Like [`WattDb::start_oltp`], but with a hot-range skew:
    /// `hot_fraction` of the clients are homed inside the first
    /// `hot_warehouses` warehouses, concentrating access heat on the low
    /// end of the key space.
    ///
    /// # Panics
    /// When `n == 0`, for the same reason as [`WattDb::start_oltp`].
    pub fn start_oltp_skewed(
        &mut self,
        n: u32,
        think: SimDuration,
        hot_fraction: f64,
        hot_warehouses: u32,
    ) {
        assert!(
            n > 0,
            "start_oltp_skewed: n == 0 clients would spawn no workload — \
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

    /// The modeled-client target the pooled workload is currently
    /// holding (the sum of per-tenant trace targets), or `None` in
    /// per-client mode. Exported per window as the
    /// `workload.target_clients` gauge.
    pub fn workload_target(&self) -> Option<u64> {
        self.cluster
            .borrow()
            .pool
            .as_ref()
            .map(|p| p.current_target())
    }

    /// Advance virtual time by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.sim.now() + d;
        self.sim.run_until(until);
    }

    /// Advance to absolute time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Stop clients from submitting further transactions.
    pub fn stop_clients(&mut self) {
        self.cluster.borrow_mut().stopped = true;
    }

    // ---------------------------------------------------------- elasticity

    /// The autopilot handle, when engaged.
    pub fn autopilot(&self) -> Option<&AutoPilot> {
        self.autopilot.as_ref()
    }

    /// Engage the elasticity control loop on a running deployment.
    /// Replaces (and disengages) any previous loop; facade-side planning
    /// follows the new policy from here on.
    pub fn engage_autopilot(&mut self, config: AutoPilotConfig) {
        if let Some(old) = self.autopilot.take() {
            old.disengage();
        }
        self.policy = config.policy;
        self.autopilot = Some(AutoPilot::engage(&self.cluster, &mut self.sim, config));
    }

    /// The controller's decision log (empty when no autopilot ran).
    pub fn events(&self) -> Vec<ControlEvent> {
        self.autopilot
            .as_ref()
            .map(|a| a.events())
            .unwrap_or_default()
    }

    /// Borrow the cluster's telemetry recorder: tracing spans, the
    /// per-window metrics registry, and the decision timeline.
    pub fn telemetry(&self) -> std::cell::Ref<'_, wattdb_telemetry::Telemetry> {
        std::cell::Ref::map(self.cluster.borrow(), |c| &c.telemetry)
    }

    /// Serialize the full flight-recorder state — spans, window samples,
    /// decision records — as JSONL. Byte-identical across fixed-seed runs.
    pub fn export_timeline_string(&self) -> String {
        self.cluster.borrow().telemetry.export_jsonl()
    }

    /// Render the explainable autopilot timeline: one line per monitoring
    /// window with the signal values, the decision, and its
    /// predicted-vs-realized outcome. Derived *purely from the exported
    /// form* — the recorder state is serialized to JSONL and re-parsed, so
    /// this output is exactly what an offline reader of the artifact
    /// would reconstruct.
    pub fn explain(&self) -> Vec<String> {
        wattdb_telemetry::parse_jsonl(&self.export_timeline_string())
            .expect("own export parses")
            .explain()
    }

    /// Carry out a scripted [`ControlPlan`] — the same runner the
    /// autopilot's decisions go through.
    fn run(&mut self, plan: ControlPlan) {
        migration::run(&self.cluster, &mut self.sim, plan);
    }

    /// Kick off a manual rebalance moving `fraction` of each source's
    /// data with the fraction heuristic (the autopilot's fallback
    /// planner; this remains for scripted experiments). A no-op while
    /// another rebalance is in flight.
    pub fn rebalance(&mut self, fraction: f64, sources: &[NodeId], targets: &[NodeId]) {
        let plan = ControlPlan::fraction(&self.cluster.borrow(), fraction, sources, targets);
        self.run(plan);
    }

    /// Rebalance with helper nodes attached for the duration (Fig. 8):
    /// `sources[i]` pairs with `helpers[i % helpers.len()]`, and the
    /// helpers detach automatically when the rebalance completes. For a
    /// planner-chosen set, start the rebalance and attach
    /// [`WattDb::plan_helpers`]' plan with [`WattDb::attach_helpers`].
    pub fn rebalance_with_helpers(
        &mut self,
        fraction: f64,
        sources: &[NodeId],
        targets: &[NodeId],
        helpers: &[NodeId],
    ) {
        let plan = ControlPlan {
            attach: Some(HelperAttach::manual(sources, helpers)),
            ..ControlPlan::fraction(&self.cluster.borrow(), fraction, sources, targets)
        };
        self.run(plan);
    }

    /// Plan (but do not attach) helper placements for `sources`, using the
    /// configured helper policy: sources ranked by the net/remote-heavy
    /// component of their heat, helpers drawn from standbys and the
    /// coldest actives — never a node entangled in the in-flight
    /// migration, never one already helping, never the master while an
    /// alternative exists. The same plan the autopilot attaches when the
    /// skew trigger escalates.
    pub fn plan_helpers(&self, sources: &[NodeId]) -> HelperPlan {
        let c = self.cluster.borrow();
        heat::plan_helpers(&c, self.sim.now(), &self.policy.helper, sources)
    }

    /// Attach an externally produced helper plan (see
    /// [`WattDb::plan_helpers`]); false (and nothing attached) on an
    /// empty plan. Facade attachments are scripted: the helpers detach
    /// when the next rebalance completes, or on
    /// [`WattDb::detach_helpers`]. (Helpers the autopilot attaches for
    /// transient skew instead stay until the skew subsides.)
    pub fn attach_helpers(&mut self, plan: &HelperPlan) -> bool {
        self.run(ControlPlan {
            attach: Some(HelperAttach::planned(plan, true)),
            ..Default::default()
        });
        !plan.is_empty()
    }

    /// Detach every attached helper now; returns the nodes released.
    pub fn detach_helpers(&mut self) -> Vec<NodeId> {
        let detach = self.helpers_active();
        self.run(ControlPlan {
            detach: detach.clone(),
            ..Default::default()
        });
        detach
    }

    /// Helper nodes currently attached (Fig. 8), in attachment order.
    pub fn helpers_active(&self) -> Vec<NodeId> {
        self.cluster.borrow().helpers.nodes()
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

    /// Is a rebalance still running?
    pub fn rebalancing(&self) -> bool {
        self.cluster.borrow().mover.is_some()
    }

    /// Summary of the last completed rebalance, manual or autopiloted.
    pub fn last_rebalance(&self) -> Option<RebalanceReport> {
        self.cluster.borrow().last_rebalance
    }

    /// Every completed rebalance of the run, in completion order.
    pub fn rebalance_history(&self) -> Vec<RebalanceReport> {
        self.cluster.borrow().metrics.rebalances.clone()
    }

    // --------------------------------------------------------- replication

    /// Fault injection: kill `node` mid-anything. The node stops serving
    /// immediately (routing to it spins until failover re-points), its
    /// pending migration moves are dropped, and — with an autopilot
    /// engaged — the next monitoring window detects the loss, promotes
    /// the most-caught-up follower for every segment it led, and
    /// schedules re-replication. Idempotent.
    pub fn fail_node(&mut self, node: NodeId) {
        self.cluster.borrow_mut().fail_node(node);
    }

    /// Nodes killed by [`WattDb::fail_node`], in id order.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.cluster.borrow().failed_nodes().collect()
    }

    /// Snapshot of the per-segment replica map (leader + follower set,
    /// epoch-versioned).
    pub fn replica_map(&self) -> ReplicaMap {
        self.cluster.borrow().replicas.clone()
    }

    /// Reads served by a follower instead of the leader so far.
    pub fn replica_reads(&self) -> u64 {
        self.cluster.borrow().replica_reads
    }

    /// Total bytes of WAL shipped leader → follower for replication (the
    /// wire cost of read fan-out and durability; helper log shipping is
    /// counted separately).
    pub fn replica_shipped_bytes(&self) -> u64 {
        self.cluster.borrow().replica_shipped_bytes()
    }

    /// Total bytes shipped to rebuild follower copies after failures.
    pub fn rereplication_bytes(&self) -> u64 {
        self.cluster.borrow().rereplication_bytes
    }

    /// Predicted-vs-realized relief for the last completed helper
    /// engagement (first attach to last detach): the planner's predicted
    /// net-heat relief next to the bytes actually shipped and the remote
    /// buffer hits actually served.
    pub fn last_helper_report(&self) -> Option<HelperReport> {
        self.cluster.borrow().helpers.last_report.clone()
    }

    // ------------------------------------------------------------- readout

    /// Completed transactions so far.
    pub fn completed(&self) -> u64 {
        self.cluster.borrow().metrics.completed
    }

    /// Aborted transaction attempts so far.
    pub fn aborted(&self) -> u64 {
        self.cluster.borrow().metrics.aborted
    }

    /// Completed transactions by TPC-C profile (modeled counts — pooled
    /// carriers contribute their full weight).
    pub fn mix(&self) -> Vec<(wattdb_tpcc::TxnProfile, u64)> {
        let c = self.cluster.borrow();
        let mut v: Vec<_> = c.metrics.mix.iter().map(|(p, n)| (*p, *n)).collect();
        v.sort_by_key(|(p, _)| format!("{p:?}"));
        v
    }

    /// Modeled completions per home warehouse: the observed workload
    /// skew, in the same units for per-client and pooled runs.
    pub fn completions_by_warehouse(&self) -> Vec<(u32, u64)> {
        let c = self.cluster.borrow();
        let mut by: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for cl in &c.clients {
            *by.entry(cl.home_warehouse).or_insert(0) += cl.completed();
        }
        by.into_iter().collect()
    }

    /// Is the client workload running pooled (aggregated arrivals over
    /// carrier clients) rather than one think timer per client?
    pub fn pooled_clients(&self) -> bool {
        self.cluster.borrow().pool.is_some()
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

    /// Segments stored on `node`.
    pub fn segments_on(&self, node: NodeId) -> usize {
        self.cluster.borrow().seg_dir.on_node(node).count()
    }

    /// Segments across the cluster.
    pub fn segment_count(&self) -> usize {
        self.cluster.borrow().seg_dir.len()
    }

    /// Per-segment access-heat snapshot, hottest first: decayed heat,
    /// lifetime read/write/remote counters, placement, and footprint.
    pub fn heat(&self) -> Vec<SegmentHeatStat> {
        let c = self.cluster.borrow();
        c.heat.snapshot(&c.seg_dir, self.sim.now())
    }

    /// Total decayed access heat of the segments stored on `node`.
    pub fn node_heat(&self, node: NodeId) -> f64 {
        let c = self.cluster.borrow();
        c.heat.node_heat(&c.seg_dir, node, self.sim.now()).value()
    }

    /// The cost model scalarizing access cost into heat, if heat runs
    /// cost-based (`None` = weighted counts).
    pub fn cost_model(&self) -> Option<CostModel> {
        self.cluster.borrow().heat.cost_model().copied()
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

    /// Live record keys across every segment index.
    pub fn live_records(&self) -> usize {
        self.cluster
            .borrow()
            .indexes
            .values()
            .map(|i| i.len())
            .sum()
    }

    /// Vacuum every segment at the current GC horizon; returns versions
    /// reclaimed.
    pub fn vacuum(&mut self) -> usize {
        self.cluster.borrow_mut().vacuum_all()
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

    /// Current total cluster power (fresh sample on the power probe).
    pub fn power_now(&mut self) -> f64 {
        let now = self.sim.now();
        self.cluster.borrow_mut().sample_power(now).0
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

    /// Scoped mutable access to the engine state.
    pub fn with_cluster_mut<R>(&mut self, f: impl FnOnce(&mut Cluster) -> R) -> R {
        f(&mut self.cluster.borrow_mut())
    }

    /// Scoped access to the shared cluster handle *and* the simulator, for
    /// research drivers that schedule their own events (custom workload
    /// loops, probes, repeaters). The closure must not hold the handle
    /// beyond its own scope.
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
        assert_eq!(db.segments_on(NodeId(2)), 0);
        db.rebalance(0.5, &[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        db.run_for(SimDuration::from_secs(120));
        assert!(!db.rebalancing(), "rebalance finished");
        assert!(db.segments_on(NodeId(2)) > 0, "segments arrived");
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
    #[should_panic(expected = "start_oltp_skewed: n == 0 clients would spawn no workload")]
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
        assert!(db.pooled_clients(), "trace runs are always pooled");
        assert_eq!(db.workload_target(), Some(20), "starts in the trough");
        db.run_for(SimDuration::from_secs(32));
        let mid = db.workload_target().unwrap();
        assert_eq!(
            mid,
            trace.total_at(SimDuration::from_secs(32)),
            "pool target follows the breakpoint schedule"
        );
        assert!(mid > 300, "half a period in, near the peak: {mid}");
        assert!(db.completed() > 0, "traced clients commit work");
    }

    #[test]
    fn builder_workload_trace_starts_at_build() {
        use wattdb_tpcc::{DiurnalConfig, LoadTrace};
        let trace = LoadTrace::diurnal(DiurnalConfig {
            min_clients: 10,
            max_clients: 80,
            period: SimDuration::from_secs(40),
            phase: 0.0,
            step: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(40),
            ..Default::default()
        });
        let mut db = WattDb::builder()
            .nodes(4)
            .warehouses(2)
            .density(0.01)
            .segment_pages(8)
            .initial_data_nodes(&[NodeId(0), NodeId(1)])
            .seed(9)
            .workload_trace(trace)
            .build();
        assert!(db.pooled_clients());
        db.run_for(SimDuration::from_secs(20));
        assert!(db.completed() > 0);
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
        assert!(db.power_now() < rated, "observed power stays under rated");
    }

    #[test]
    fn events_empty_without_autopilot() {
        let mut db = small();
        db.run_for(SimDuration::from_secs(10));
        assert!(db.autopilot().is_none());
        assert!(db.events().is_empty());
    }

    #[test]
    fn engage_autopilot_after_build() {
        let mut db = small();
        assert!(db.autopilot().is_none());
        db.engage_autopilot(AutoPilotConfig::default());
        assert!(db.autopilot().is_some());
        db.run_for(SimDuration::from_secs(20));
        assert!(db.autopilot().unwrap().is_engaged());
    }
}
