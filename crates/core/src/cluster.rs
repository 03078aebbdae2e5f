//! The WattDB cluster: nodes, partitions, catalog, power, and loading.
//!
//! This is the stateful heart of the reproduction. A [`Cluster`] owns the
//! per-node runtimes (CPU/disk resources, buffer pool, WAL), the storage
//! and index layers, the transaction manager, the master's routing table,
//! and the experiment metrics. The executor ([`crate::executor`]) and the
//! migration engine ([`crate::migration`]) drive it through the
//! discrete-event simulator.
//!
//! # Node lifecycle
//!
//! "Is this node usable" has one answer, [`NodeRuntime::life`], and five
//! writers — nothing else assigns it:
//!
//! ```text
//!           power_on                 begin_drain
//! Standby ───────────▶ Active ─────────────────────▶ Draining
//!    ▲                   │  ▲        end_drain          │
//!    │     power_off     │  └───────────────────────────┘
//!    └───────────────────┴──────────── power_off ───────┘
//!                fail_node (from any state) ─▶ Failed (absorbing)
//! ```
//!
//! * [`Cluster::power_on`] — [`crate::migration::run`] (rebalance targets
//!   and attached helpers). A no-op on a node that is up, and on a failed
//!   one.
//! * [`Cluster::power_off`] — post-drain suspension
//!   ([`crate::migration::settle`]) and [`crate::helpers::detach`];
//!   panics on segments or follower copies.
//! * [`Cluster::begin_drain`] — [`crate::migration::run`] of a scale-in's
//!   plan.
//! * [`Cluster::end_drain`] — [`crate::migration::settle`], when a drain
//!   episode ends and the node could not suspend.
//! * [`Cluster::fail_node`] — fault injection (it also releases the
//!   node from helper duty through [`crate::helpers::detach`]).
//!
//! Readers speak [`Lifecycle::is_up`] (powered and serving: routing,
//! monitoring, drain targets), `== Lifecycle::Active` (the replica
//! placement pools, which must skip a draining node) and
//! [`Lifecycle::power`] (what the power model bills).
//!
//! # One routine per protocol step
//!
//! The §4.3 ownership switch is [`Cluster::hand_over`] (physiological
//! mover and failover promotion), which moves leadership too: a segment's
//! leader is its catalog node. [`crate::replication::follow_owner`] then
//! consumes the new owner's follower copy. The SSD a moved or followed segment uses is
//! [`Cluster::data_disk`], and the bytes a segment copy costs are
//! [`Cluster::copy_bytes`] (mover, follower copies, planner statistics).

use std::cell::RefCell;
use std::rc::Rc;

use wattdb_common::{
    ByteSize, CostModel, CostParams, DenseMap, DetRng, DiskId, HardwareSpec, HeatConfig, IdMap,
    Key, KeyRange, Lsn, NetworkSpec, NodeId, PartitionId, PowerSpec, Rank, Result, SegmentId,
    SimDuration, SimTime, TableId, Watts,
};
use wattdb_energy::{EnergyMeter, NodeState, PowerModel};
use wattdb_index::{GlobalRouter, SegmentIndex, TopIndex};
use wattdb_net::Network;
use wattdb_sim::{Resource, ResourceHandle, Sim, UtilizationProbe};
use wattdb_storage::{BufferPool, PageStore, RecordHeader, SegmentDirectory, SimDisk, PAGE_SIZE};
use wattdb_tpcc::{
    carrier_split_within, Client, ClientBatching, ClientPool, GenRow, TenantSpec, TpccConfig,
    TpccTable, TpccWorkload, MAX_CARRIERS,
};
use wattdb_txn::{CcMode, IndexMap, TxnManager};
use wattdb_wal::LogManager;

use crate::autopilot::ControlEvent;
use crate::heat::HeatTable;
use crate::jobs::JobSlab;
use crate::metrics::{Metrics, Phase};
use crate::migration::MoveController;
use crate::policy::ElasticityPolicy;
use crate::replication::Replication;

/// The repartitioning scheme in force (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// §4.1: move segments between disks/nodes; logical ownership stays.
    Physical,
    /// §4.2: move records between key-range partitions via transactions.
    Logical,
    /// §4.3: move segments carrying their own PK indexes; ownership moves.
    Physiological,
}

impl Scheme {
    /// Display label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Physical => "physical",
            Scheme::Logical => "logical",
            Scheme::Physiological => "physiological",
        }
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total nodes (paper: 10). Node 0 is the master.
    pub nodes: u16,
    /// CPU cost calibration.
    pub costs: CostParams,
    /// Concurrency control (MVCC unless benchmarking the MGL-RX baseline).
    pub cc_mode: CcMode,
    /// Repartitioning scheme.
    pub scheme: Scheme,
    /// Pages per segment (paper: 4096; experiments default smaller so the
    /// scaled dataset still spans many segments).
    pub segment_pages: u32,
    /// Buffer-pool frames per node. The paper's data:memory ratio is
    /// ~10:1; loaders pick this from the dataset size when zero.
    pub buffer_pages: usize,
    /// Bulk-I/O scale: segment copies and migration scans charge
    /// `bytes × io_scale` so a memory-friendly dataset produces the I/O
    /// volume of the paper's 100 GB deployment (see
    /// [`crate::api::WattDbBuilder::io_scale`]).
    pub io_scale: u64,
    /// Metric bucket width.
    pub bucket: SimDuration,
    /// Per-segment heat tracking: decay half-life, and the velocity
    /// half-life and projection horizon the planner plans on (zero
    /// horizon = historical heat).
    pub heat: HeatConfig,
    /// Scalarization of per-access cost vectors into heat. `Some` (the
    /// default) makes heat **cost-based** — every access weighs its
    /// actual CPU/page/network demand; `None` disables cost tracing and
    /// heat falls back to the flat per-access weights
    /// ([`crate::heat::READ_WEIGHT`] and its siblings: the weighted-count
    /// signal).
    pub cost_model: Option<CostModel>,
    /// Follower copies per segment (0: the paper's single copy).
    pub replication: usize,
    /// Per-client think timers vs. the pooled aggregated arrival process
    /// (see [`wattdb_tpcc::ClientBatching`]; `Auto` pools above
    /// [`wattdb_tpcc::POOL_AUTO_THRESHOLD`] modeled clients).
    pub client_batching: ClientBatching,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 10,
            costs: CostParams::default(),
            cc_mode: CcMode::Mvcc,
            scheme: Scheme::Physiological,
            segment_pages: 64,
            buffer_pages: 0,
            io_scale: 1,
            bucket: SimDuration::from_secs(10),
            heat: HeatConfig::default(),
            cost_model: Some(CostModel::default()),
            replication: 0,
            client_batching: ClientBatching::default(),
            seed: 42,
        }
    }
}

/// Where a node stands in its life: the one answer to "is this node
/// usable". Written only by the five transition methods on [`Cluster`]
/// (see the module docs for who may move a node where); everything else
/// reads it, usually through [`Lifecycle::is_up`] or
/// [`Lifecycle::power`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// Powered down; may be powered on as a scale-out target or helper.
    Standby,
    /// Powered and in every planning pool.
    Active,
    /// Powered and still serving, but an applied scale-in is emptying it:
    /// out of the replica-placement pools, about to suspend.
    Draining,
    /// Killed by fault injection: out of every pool, never returns.
    Failed,
}

impl Lifecycle {
    /// Is the node powered and serving (`Active` or `Draining`)?
    pub fn is_up(self) -> bool {
        matches!(self, Lifecycle::Active | Lifecycle::Draining)
    }

    /// The state the power model bills the node at. A failed node draws
    /// standby power.
    pub fn power(self) -> NodeState {
        if self.is_up() {
            NodeState::Active
        } else {
            NodeState::Standby
        }
    }
}

/// Per-node runtime state.
pub struct NodeRuntime {
    /// Node id.
    pub id: NodeId,
    /// Lifecycle state; written only by [`Cluster`]'s transition methods.
    pub life: Lifecycle,
    /// CPU cores as a queueing resource.
    pub cpu: ResourceHandle,
    /// Attached drives (0 = HDD for WAL + data, 1.. = SSDs for data).
    pub disks: Vec<SimDisk>,
    /// Buffer pool (created at load time when sized automatically).
    pub buffer: BufferPool,
    /// Write-ahead log.
    pub log: LogManager,
    /// Jobs waiting on this node's next group-commit flush.
    pub commit_queue: Vec<u64>,
    /// Flushes on their way to the disk or a helper, by the batch index
    /// a [`wattdb_sim::Signal::FlushDone`] carries. A finished batch keeps
    /// its emptied list, which the next flush swaps with `commit_queue`.
    pub flushes: Vec<FlushBatch>,
    /// A flush of this node's log is scheduled or in its commit window.
    pub flush_scheduled: bool,
    /// Probe for power sampling windows.
    pub power_probe: UtilizationProbe,
    /// CPU probe of the monitoring window (independent of power sampling).
    pub monitor_probe: UtilizationProbe,
    /// Probe for facade status snapshots (independent of both, so
    /// [`crate::api::WattDb::status`] never disturbs the control loop).
    pub status_probe: UtilizationProbe,
    /// NIC egress probe of the monitoring window; like `monitor_probe`,
    /// sampled only by [`crate::monitor::sample_node`].
    pub net_probe: UtilizationProbe,
}

/// One group-commit flush in flight (`jobs` empty: the slot is free).
#[derive(Debug, Default)]
pub struct FlushBatch {
    /// Jobs whose commit records the flush carries.
    pub jobs: Vec<u64>,
    /// The log's end when the flush was issued.
    pub last_lsn: Lsn,
}

impl NodeRuntime {
    /// `total` plus this node's draw in `state` at CPU `util`: the node,
    /// then each disk in turn — the summation order every metered sample
    /// is pinned to.
    pub fn draw(&self, model: &PowerModel, state: NodeState, util: f64, total: Watts) -> Watts {
        let mut total = total + model.node_power(state, util);
        for d in &self.disks {
            total += model.disk_power(d.kind(), state);
        }
        total
    }

    fn new(id: NodeId, hw: &HardwareSpec, buffer_pages: usize) -> Self {
        Self {
            id,
            life: Lifecycle::Standby,
            cpu: Resource::new(format!("{id}-cpu"), hw.cpu_cores),
            disks: hw
                .disks
                .iter()
                .enumerate()
                .map(|(i, spec)| SimDisk::new(DiskId::new(id, i as u8), *spec))
                .collect(),
            buffer: BufferPool::new(buffer_pages.max(64)),
            log: LogManager::new(),
            commit_queue: Vec::new(),
            flushes: Vec::new(),
            flush_scheduled: false,
            power_probe: UtilizationProbe::new(),
            monitor_probe: UtilizationProbe::new(),
            status_probe: UtilizationProbe::new(),
            net_probe: UtilizationProbe::new(),
        }
    }
}

/// A partition: one table's presence on one node, owning a set of segments
/// through its top index (Fig. 4 / §4.3).
#[derive(Debug)]
pub struct Partition {
    /// Partition id.
    pub id: PartitionId,
    /// Owning table.
    pub table: TableId,
    /// Node evaluating queries for this partition.
    pub node: NodeId,
    /// Key-range → segment top index.
    pub top: TopIndex,
}

/// Shared handle to the cluster.
pub type ClusterRc = Rc<RefCell<Cluster>>;

/// The whole simulated WattDB deployment.
pub struct Cluster {
    /// Configuration.
    pub cfg: ClusterConfig,
    /// Per-node runtimes, indexed by `NodeId::raw()`.
    pub nodes: Vec<NodeRuntime>,
    /// Interconnect.
    pub net: Network,
    /// All page data.
    pub store: PageStore,
    /// Segment catalog.
    pub seg_dir: SegmentDirectory,
    /// Per-segment PK indexes.
    pub indexes: IndexMap,
    /// Partitions by id. Ordered: planners and failover walk it, and the
    /// order they meet partitions in decides what moves first.
    pub partitions: DenseMap<PartitionId, Partition>,
    /// Master's routing table.
    pub router: GlobalRouter,
    /// Transactions.
    pub txn: TxnManager,
    /// OLTP clients. In pooled mode these are the *carrier* clients of
    /// [`Cluster::pool`], each standing in for `pool.weight()` modeled
    /// clients.
    pub clients: Vec<Client>,
    /// Aggregated client arrival process (`Some` when the population runs
    /// pooled): one repeater drives batched Binomial arrivals over the
    /// carriers instead of one think timer per client.
    pub pool: Option<ClientPool>,
    /// Transaction generator (shared key high-water marks).
    pub workload: Option<TpccWorkload>,
    /// In-flight executor jobs.
    pub jobs: JobSlab,
    /// Lock waiter → job/mover mapping.
    pub lock_waiters: IdMap<wattdb_common::TxnId, crate::executor::Waiter>,
    /// Migration controller (present while rebalancing).
    pub mover: Option<MoveController>,
    /// Per-segment access heat and heat velocity (the planner's workload
    /// signal; velocity is fed by the monitoring loop).
    pub heat: HeatTable,
    /// Metrics.
    pub metrics: Metrics,
    /// Power/energy meter.
    pub meter: EnergyMeter,
    /// Power model.
    pub power_model: PowerModel,
    /// Experiment randomness.
    pub rng: DetRng,
    /// Next partition id.
    pub next_partition: u64,
    /// Stop flag: clients cease submitting.
    pub stopped: bool,
    /// The helper deployment (Fig. 8): wires, members and the response in
    /// progress, written only through [`crate::helpers::attach`] and
    /// [`crate::helpers::detach`].
    pub helpers: crate::helpers::Helpers,
    /// Follower replication (inert while `cfg.replication == 0`).
    pub replication: Replication,
    /// Control-plane flight recorder: tracing spans, per-window metric
    /// samples, and the autopilot decision timeline — the one log of
    /// every window's [`ControlEvent`]. Always on; every ring inside is
    /// bounded.
    pub telemetry: wattdb_telemetry::Telemetry<ControlEvent>,
    /// The policy slot of the monitoring window: the engaged policy, its
    /// thresholds and its streak state, put in by
    /// [`crate::api::WattDb::engage_autopilot`]. Empty, the window
    /// decides nothing.
    pub policy: Option<ElasticityPolicy>,
    /// Span of the failover in progress (detection → promotion → factor
    /// restored), if one is being worked.
    pub failover_span: Option<wattdb_telemetry::SpanId>,
    /// Span of the scale-in power transition in flight (drain applied,
    /// nodes not yet suspended), if any.
    pub powerdown_span: Option<wattdb_telemetry::SpanId>,
}

impl Cluster {
    /// Build a cluster; all nodes start in standby except those in
    /// `initially_active`. Every node is the §3.1 testbed's
    /// ([`HardwareSpec`], [`PowerSpec`] and [`NetworkSpec`] defaults).
    pub fn new(cfg: ClusterConfig, initially_active: &[NodeId]) -> ClusterRc {
        let hardware = HardwareSpec::default();
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let mut n = NodeRuntime::new(NodeId(i), &hardware, cfg.buffer_pages);
                if initially_active.contains(&NodeId(i)) {
                    n.life = Lifecycle::Active;
                }
                n
            })
            .collect();
        let net = Network::new(cfg.nodes as usize, NetworkSpec::default());
        let rng = DetRng::new(cfg.seed);
        let metrics = Metrics::new(SimTime::ZERO, cfg.bucket);
        let power_model = PowerModel::new(PowerSpec::default());
        let cc = cfg.cc_mode;
        let heat = HeatTable::with_cost_model(cfg.heat, cfg.cost_model);
        let replication = Replication::new(cfg.replication, cfg.nodes as usize);
        Rc::new(RefCell::new(Cluster {
            cfg,
            nodes,
            net,
            store: PageStore::new(),
            seg_dir: SegmentDirectory::new(),
            indexes: IndexMap::default(),
            partitions: DenseMap::new(),
            router: GlobalRouter::new(),
            txn: TxnManager::new(cc),
            clients: Vec::new(),
            pool: None,
            workload: None,
            jobs: JobSlab::default(),
            lock_waiters: IdMap::default(),
            mover: None,
            heat,
            metrics,
            meter: EnergyMeter::new(SimTime::ZERO),
            power_model,
            rng,
            next_partition: 1,
            stopped: false,
            helpers: Default::default(),
            replication,
            telemetry: wattdb_telemetry::Telemetry::new(),
            policy: None,
            failover_span: None,
            powerdown_span: None,
        }))
    }

    /// Nodes currently powered and serving (draining ones included).
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.life.is_up())
            .map(|n| n.id)
            .collect()
    }

    /// `node`'s lifecycle state.
    pub fn life(&self, node: NodeId) -> Lifecycle {
        self.nodes[node.raw() as usize].life
    }

    /// True if the node has been killed by fault injection.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.life(node) == Lifecycle::Failed
    }

    /// Nodes killed by fault injection, in id order.
    pub fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let failed = self.nodes.iter().filter(|n| n.life == Lifecycle::Failed);
        failed.map(|n| n.id)
    }

    /// Nodes an applied scale-in is currently emptying, in id order.
    pub fn draining_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.life == Lifecycle::Draining)
            .map(|n| n.id)
            .collect()
    }

    /// Power on a standby node (instantaneous state flip; boot latency is
    /// modelled by the caller scheduling work later). A node already up
    /// keeps its state, and a failed node stays failed — nothing
    /// resurrects a corpse.
    pub fn power_on(&mut self, node: NodeId) {
        let life = &mut self.nodes[node.raw() as usize].life;
        if *life == Lifecycle::Standby {
            *life = Lifecycle::Active;
        }
    }

    /// Power a node down to standby. Panics if it still stores segments
    /// ("nodes still having data on disk must not shut down", §4) — and,
    /// since followers extend "data on disk", if it still hosts follower
    /// copies: suspending a live follower host silently drops redundancy.
    /// A failed node stays failed.
    pub fn power_off(&mut self, node: NodeId) {
        assert!(
            self.seg_dir.on_node(node).next().is_none(),
            "cannot power off {node}: segments present"
        );
        assert!(
            self.replication.followed_by(node).is_empty(),
            "cannot power off {node}: follower copies present"
        );
        let life = &mut self.nodes[node.raw() as usize].life;
        if life.is_up() {
            *life = Lifecycle::Standby;
        }
    }

    /// An applied scale-in starts emptying `node`: replica placement
    /// (bootstrap, background repair, drain re-homes) must never put a
    /// follower copy on it from here on — it is about to suspend. Only an
    /// active node can drain.
    pub fn begin_drain(&mut self, node: NodeId) {
        let life = &mut self.nodes[node.raw() as usize].life;
        if *life == Lifecycle::Active {
            *life = Lifecycle::Draining;
        }
    }

    /// The drain episode is over and `node` could not suspend (a segment
    /// whose move was voided, helper duty): it rejoins the plannable pool
    /// rather than staying excluded forever.
    pub fn end_drain(&mut self, node: NodeId) {
        let life = &mut self.nodes[node.raw() as usize].life;
        if *life == Lifecycle::Draining {
            *life = Lifecycle::Active;
        }
    }

    /// Fault injection: kill `node` mid-anything. The node drops out of
    /// every planning pool, it is released from helper duty the way a
    /// detach releases it (its wires go, and the response closes with its
    /// last helper; nothing powers off), and any queued migration moves
    /// touching it are cancelled. Unlike [`Cluster::power_off`] this
    /// deliberately bypasses the "no segments on disk" invariant — that is
    /// the whole point of a failure: the segments it led are orphaned until
    /// the autopilot promotes their most-caught-up followers. The dead
    /// node's own replica shipping cursors are *kept* — promotion reads
    /// them to find the follower that loses the least committed history.
    pub fn fail_node(&mut self, node: NodeId, reader: Rank) {
        if self.is_failed(node) {
            return;
        }
        self.nodes[node.raw() as usize].life = Lifecycle::Failed;
        self.replication.fail(node, reader);
        crate::helpers::detach(self, &[node], reader.at);
        if let Some(m) = &mut self.mover {
            m.drop_node(node);
        }
    }

    /// The SSD a segment lands on when it moves to (or is served from a
    /// copy on) `node`: data goes on the SSDs (disk 1..) by segment id;
    /// the HDD (disk 0) carries the WAL, as in the testbed layout.
    pub fn data_disk(&self, node: NodeId, seg: SegmentId) -> DiskId {
        let n_disks = self.nodes[node.raw() as usize].disks.len();
        let index = if n_disks > 1 {
            1 + (seg.raw() as usize % (n_disks - 1))
        } else {
            0
        };
        DiskId::new(node, index as u8)
    }

    /// Bytes a full copy of `seg` puts on the wire and the disks: its disk
    /// footprint (at least one page) scaled by `cfg.io_scale`, so a
    /// memory-friendly dataset produces the paper's bulk-I/O volume.
    pub fn copy_bytes(&self, seg: SegmentId) -> Result<u64> {
        let footprint = self.seg_dir.get(seg)?.disk_footprint().as_u64();
        Ok(footprint.max(PAGE_SIZE as u64) * self.cfg.io_scale)
    }

    /// §4.3 step 4, the ownership switch: detach `seg` from its source
    /// partition's top index, attach it to `to`'s partition of the table
    /// (the per-segment PK index travels untouched), place the storage on
    /// `to`'s SSD (shared nothing: storage follows ownership), and have
    /// the master drop the old pointer. The caller has already updated
    /// the master first ([`GlobalRouter::begin_move`]). Shared by the
    /// physiological mover and failover promotion, which differ only in
    /// whether bytes were shipped beforehand.
    pub fn hand_over(
        &mut self,
        seg: SegmentId,
        table: TableId,
        range: KeyRange,
        src_partition: PartitionId,
        to: NodeId,
    ) -> Result<()> {
        let dst_partition = self.partition_on(table, to);
        self.partitions
            .get_mut(&src_partition)
            .ok_or(wattdb_common::Error::UnknownPartition(src_partition))?
            .top
            .detach(seg)?;
        self.partitions
            .get_mut(&dst_partition)
            .ok_or(wattdb_common::Error::UnknownPartition(dst_partition))?
            .top
            .attach(seg, range)?;
        let disk = self.data_disk(to, seg);
        self.seg_dir.relocate(seg, to, disk)?;
        self.router.complete_move(table, range)
    }

    /// Current operating phase (Fig. 7 attribution).
    pub fn phase(&self) -> Phase {
        match (&self.mover, self.helpers.is_empty()) {
            (None, _) => Phase::Normal,
            (Some(_), true) => Phase::Rebalancing,
            (Some(_), false) => Phase::RebalancingImproved,
        }
    }

    /// The partition of `table` on `node`, creating it on demand (used by
    /// migrations targeting fresh nodes).
    pub fn partition_on(&mut self, table: TableId, node: NodeId) -> PartitionId {
        if let Some(p) = self
            .partitions
            .values()
            .find(|p| p.table == table && p.node == node)
        {
            return p.id;
        }
        let id = PartitionId(self.next_partition);
        self.next_partition += 1;
        let top = TopIndex::new();
        let fresh = Partition {
            id,
            table,
            node,
            top,
        };
        self.partitions.insert(id, fresh);
        id
    }

    /// Instantaneous total cluster power, given per-node CPU utilizations
    /// sampled over the last window.
    pub fn sample_power(&mut self, now: SimTime) -> Watts {
        let mut total = self.power_model.switch_power();
        for n in &mut self.nodes {
            let cpu = n.cpu.clone();
            let util = n.power_probe.sample(&cpu, now);
            total = n.draw(&self.power_model, n.life.power(), util, total);
        }
        total
    }

    /// Bulk-load a generated TPC-C row into the right partition/segment,
    /// creating segments that tile each partition's key range on the fly.
    fn load_row(
        &mut self,
        row: &GenRow,
        loaded_segments: &mut IdMap<(TableId, NodeId), SegmentId>,
    ) -> Result<()> {
        let table = row.table.table_id();
        let route = self.router.route(table, row.key)?;
        let node = route.primary.node;
        let partition = route.primary.partition;
        let seg_key = (table, node);
        let seg = match loaded_segments.get(&seg_key) {
            Some(&seg) if self.segment_has_room(seg, row) => seg,
            _ => {
                // Close the previous fill segment's range and open a new one
                // starting at this key.
                let part_range = self.partition_entry_range(table, row.key)?;
                if let Some(&prev) = loaded_segments.get(&seg_key) {
                    self.close_fill_segment(prev, row.key)?;
                }
                let start = match loaded_segments.get(&seg_key) {
                    Some(_) => row.key,
                    None => part_range.start,
                };
                let seg = self.open_segment(
                    table,
                    node,
                    partition,
                    KeyRange::new(start, part_range.end),
                )?;
                loaded_segments.insert(seg_key, seg);
                seg
            }
        };
        let rec = RecordHeader::new(row.key, 1, row.width);
        let (rid, allocated) = self.store.insert_version(seg, &rec, u32::MAX)?;
        if allocated {
            let meta = self.seg_dir.get_mut(seg)?;
            meta.allocated_pages += 1;
            let disk = meta.disk;
            self.nodes[disk.node.raw() as usize].disks[disk.index as usize]
                .reserve(ByteSize::bytes(PAGE_SIZE as u64));
        }
        let meta = self.seg_dir.get_mut(seg)?;
        meta.records += 1;
        meta.logical_bytes += ByteSize::bytes(rec.logical_footprint() as u64);
        self.indexes
            .get_mut(&seg)
            .expect("segment index exists")
            .insert(row.key, rid);
        Ok(())
    }

    fn segment_has_room(&self, seg: SegmentId, _row: &GenRow) -> bool {
        let meta = self.seg_dir.get(seg).expect("segment exists");
        (self.store.page_count(seg) as u32) < self.cfg.segment_pages
            || self
                .store
                .logical_bytes(seg)
                .map(|b| b < meta.capacity().as_u64())
                .unwrap_or(false)
    }

    fn partition_entry_range(&self, table: TableId, key: Key) -> Result<KeyRange> {
        let entries = self
            .router
            .prune(table, KeyRange::new(key, Key(key.raw() + 1)))?;
        Ok(entries
            .first()
            .map(|e| e.range)
            .unwrap_or_else(KeyRange::all))
    }

    fn close_fill_segment(&mut self, seg: SegmentId, next_start: Key) -> Result<()> {
        // Narrow the previous fill segment's range to end where the next
        // one begins, keeping the partition's top index tiling exact.
        let meta = self.seg_dir.get(seg)?;
        let old_range = meta.key_range.expect("fill segments have ranges");
        let table = meta.table;
        let node = meta.node;
        if next_start >= old_range.end || next_start <= old_range.start {
            return Ok(());
        }
        let new_range = KeyRange::new(old_range.start, next_start);
        let pid = self.partition_on(table, node);
        let part = self.partitions.get_mut(&pid).expect("partition exists");
        part.top.detach(seg)?;
        part.top.attach(seg, new_range)?;
        self.seg_dir.get_mut(seg)?.key_range = Some(new_range);
        self.indexes
            .get_mut(&seg)
            .expect("index exists")
            .set_range(new_range);
        Ok(())
    }

    /// Create an empty segment covering `range` on `node`, attached to
    /// `partition`'s top index.
    pub fn open_segment(
        &mut self,
        table: TableId,
        node: NodeId,
        partition: PartitionId,
        range: KeyRange,
    ) -> Result<SegmentId> {
        // Data segments go on the SSDs round-robin (disk 1..); the HDD
        // (disk 0) carries the WAL, as in the testbed layout.
        let n_disks = self.nodes[node.raw() as usize].disks.len();
        let disk_idx = if n_disks > 1 {
            1 + (self.seg_dir.len() % (n_disks - 1))
        } else {
            0
        };
        let disk = DiskId::new(node, disk_idx as u8);
        let seg = self
            .seg_dir
            .create(table, node, disk, Some(range), self.cfg.segment_pages);
        self.store.add_segment(seg);
        self.indexes.insert(seg, SegmentIndex::new(seg, range));
        let part = self.partitions.get_mut(&partition).expect("partition");
        part.top.attach(seg, range)?;
        Ok(seg)
    }

    /// Load the TPC-C dataset, range-partitioned by warehouse across
    /// `data_nodes`. Also sizes buffer pools to ~1/10 of the per-node data
    /// when `cfg.buffer_pages == 0`, matching the paper's data:memory
    /// ratio.
    pub fn load_tpcc(&mut self, tpcc: TpccConfig, data_nodes: &[NodeId]) -> Result<()> {
        assert!(!data_nodes.is_empty());
        let w = tpcc.warehouses;
        // One chunk of whole warehouses per data node.
        let per = (w as usize).div_ceil(data_nodes.len()) as u32;
        let mut ranges = Vec::new();
        for (i, _) in data_nodes.iter().enumerate() {
            let lo = (i as u32) * per;
            let hi = ((i as u32 + 1) * per).min(w);
            if lo < hi {
                ranges.push(wattdb_tpcc::warehouse_range(lo, hi));
            }
        }
        // Register tables and initial routing.
        for t in TpccTable::ALL {
            let table = t.table_id();
            self.router.create_table(table);
            for (i, node) in data_nodes.iter().enumerate() {
                if i >= ranges.len() {
                    break;
                }
                let pid = self.partition_on(table, *node);
                // Extend the edge partitions to cover the full key space so
                // out-of-range probes (ITEM spreading etc.) still route.
                let mut r = ranges[i];
                if i == 0 {
                    r.start = Key::MIN;
                }
                if i == ranges.len() - 1 {
                    r.end = Key::MAX;
                }
                self.router.assign(table, r, pid, *node)?;
            }
        }
        // Generate and load rows warehouse by warehouse (keys ascend within
        // each warehouse, so fill segments stay range-contiguous).
        let mut fill: IdMap<(TableId, NodeId), SegmentId> = IdMap::default();
        for wh in 0..w {
            let mut rows = wattdb_tpcc::warehouse_rows(&tpcc, wh);
            rows.sort_by_key(|r| (r.table.table_id(), r.key));
            for row in &rows {
                self.load_row(row, &mut fill)?;
            }
        }
        let mut items = wattdb_tpcc::item_rows(&tpcc);
        items.sort_by_key(|r| r.key);
        // ITEM rows are scattered across the warehouse-major space; load
        // them individually (each creates/extends segments as needed).
        let mut item_fill: IdMap<(TableId, NodeId), SegmentId> = IdMap::default();
        for row in &items {
            self.load_row(row, &mut item_fill)?;
        }
        self.workload = Some(TpccWorkload::new(tpcc));
        // Auto-size buffer pools: data bytes per node / 10 (paper ratio).
        if self.cfg.buffer_pages == 0 {
            let logical = tpcc.logical_dataset_bytes();
            let per_node = logical / data_nodes.len() as u64;
            let pages = ((per_node / 10) / PAGE_SIZE as u64).max(64) as usize;
            self.cfg.buffer_pages = pages;
            for n in &mut self.nodes {
                n.buffer = BufferPool::new(pages);
            }
        }
        Ok(())
    }

    /// Spawn the deployment's one client population with mean think time
    /// `think`: for each `(tenant, n)`, `n` closed-loop clients homed and
    /// mixed by the tenant's [`TenantSpec`]. Per-client, every client runs
    /// its own think timer. Pooled, each tenant is one carrier group of the one
    /// aggregated arrival process: the groups share
    /// [`wattdb_tpcc::MAX_CARRIERS`] evenly, a group's weight folds its
    /// `n` onto its share, and the group targets `n` modeled clients
    /// until a trace retargets it (see
    /// [`crate::executor::schedule_trace`]).
    ///
    /// # Panics
    /// When a population was already spawned: its in-flight jobs and
    /// its arrival loop would run on against the new clients.
    pub fn spawn_clients(
        &mut self,
        tenants: &[(TenantSpec, u64)],
        think: SimDuration,
        pooled: bool,
    ) {
        assert!(
            self.clients.is_empty(),
            "start_*: a client population is already running — \
             a deployment runs one population, started once"
        );
        let w = self
            .workload
            .as_ref()
            .map(|wl| wl.config().warehouses)
            .unwrap_or(1);
        let budget = MAX_CARRIERS / tenants.len() as u32;
        let mut groups: Vec<(u32, u64)> = Vec::with_capacity(tenants.len());
        let mut clients = Vec::new();
        for &(tenant, n) in tenants {
            assert!(
                tenant.txn_mix.iter().any(|&w| w > 0),
                "start_*: a tenant's txn_mix needs a positive weight"
            );
            let (carriers, weight) = if pooled {
                carrier_split_within(n, budget)
            } else {
                (n as u32, 1)
            };
            groups.push((carriers, weight));
            for home in tenant.homes(carriers, w) {
                let id = wattdb_common::ClientId(clients.len() as u32);
                clients.push(Client::new(id, home, think, tenant.txn_mix, &self.rng));
            }
        }
        self.pool = pooled.then(|| {
            let mut pool = ClientPool::new_grouped(&groups, think, self.rng.derive(0xC11E_47B0));
            for (g, &(_, n)) in tenants.iter().enumerate() {
                pool.set_target(g, n);
            }
            pool
        });
        self.clients = clients;
    }

    /// Vacuum every segment at the current GC horizon: reclaims committed
    /// superseded versions and old tombstones. Returns versions reclaimed,
    /// or the error of the first segment whose chains do not resolve.
    pub fn vacuum_all(&mut self) -> Result<usize> {
        let horizon = self.txn.gc_horizon();
        let mut reclaimed = 0;
        for idx in self.indexes.values_mut() {
            reclaimed += wattdb_txn::mvcc::vacuum(idx, &mut self.store, horizon)?;
        }
        Ok(reclaimed)
    }

    /// Where a `table` key lives (§4.3's dual pointers): the routed
    /// owner's partition, node and segment covering the key, else the
    /// second pointer's. `Err`: the key routes nowhere; `Ok(None)`: neither
    /// pointer's top index covers it (a moving window's edge).
    pub fn home_of(
        &self,
        table: TableId,
        key: Key,
    ) -> Result<Option<(PartitionId, NodeId, SegmentId)>> {
        let route = self.router.route(table, key)?;
        let covering = |loc: wattdb_index::Location| {
            let part = self.partitions.get(&loc.partition)?;
            Some((loc.partition, loc.node, part.top.segment_for(key)?))
        };
        Ok(covering(route.primary).or_else(|| route.also.and_then(covering)))
    }

    /// Visit every index entry as `(key, head version, at home)`: a key is
    /// at home in the segment [`Cluster::home_of`] resolves it to.
    fn walk_homes(
        &self,
        mut visit: impl FnMut(Key, wattdb_common::RecordId, bool) -> Result<()>,
    ) -> Result<()> {
        for (seg, idx) in self.indexes.iter() {
            let table = self.seg_dir.get(seg)?.table;
            for (key, head) in idx.entries() {
                let home = self.home_of(table, key).ok().flatten();
                visit(key, head, home.is_some_and(|(.., s)| s == seg))?;
            }
        }
        Ok(())
    }

    /// Reachability: every key whose head version is live is stored in the
    /// segment it routes to. The first stranded key is the error.
    pub fn check_reachable(&self) -> Result<()> {
        self.walk_homes(|key, head, home| {
            if home || self.store.peek(head)?.is_tombstone() {
                Ok(())
            } else {
                Err(wattdb_common::Error::KeyNotFound(key))
            }
        })
    }

    /// Stored record versions and live keys (Fig. 3 storage line), counted
    /// at each key's routed home only: once routing has flipped, no reader
    /// can reach a moved record's source copy, so it is not a version. The
    /// error of the first chain that does not resolve fails the count — a
    /// chain skipped would drop out of the line unseen.
    pub fn version_stats(&self) -> Result<(usize, usize)> {
        let (mut versions, mut live) = (0, 0);
        self.walk_homes(|_, head, home| {
            if home {
                live += 1;
                versions += wattdb_txn::mvcc::chain_len(&self.store, head)?;
            }
            Ok(())
        })?;
        Ok((versions, live))
    }

    /// Start the periodic power sampler (1 s cadence).
    pub fn start_power_sampler(cl: &ClusterRc, sim: &mut Sim) {
        let handle = cl.clone();
        sim.every(SimDuration::from_secs(1), move |sim| {
            let mut c = handle.borrow_mut();
            let now = sim.now();
            let p = c.sample_power(now);
            c.meter.sample(now, p);
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ClusterConfig {
        ClusterConfig {
            nodes: 4,
            segment_pages: 16,
            buffer_pages: 256,
            ..Default::default()
        }
    }

    fn tpcc_cfg() -> TpccConfig {
        TpccConfig {
            warehouses: 4,
            density: 0.01,
            seed: 7,
        }
    }

    #[test]
    fn load_routes_all_tables() {
        let cl = Cluster::new(small_cfg(), &[NodeId(0), NodeId(1)]);
        let mut c = cl.borrow_mut();
        c.load_tpcc(tpcc_cfg(), &[NodeId(0), NodeId(1)]).unwrap();
        // Every table routes every warehouse's keys.
        for t in TpccTable::ALL {
            let table = t.table_id();
            let r0 = c
                .router
                .route(table, wattdb_tpcc::keys::warehouse(0))
                .unwrap();
            let r3 = c
                .router
                .route(table, wattdb_tpcc::keys::warehouse(3))
                .unwrap();
            assert_eq!(r0.primary.node, NodeId(0));
            assert_eq!(r3.primary.node, NodeId(1));
        }
        assert!(c.seg_dir.len() > 4, "several segments created");
    }

    #[test]
    fn loaded_records_are_readable() {
        let cl = Cluster::new(small_cfg(), &[NodeId(0), NodeId(1)]);
        let mut c = cl.borrow_mut();
        c.load_tpcc(tpcc_cfg(), &[NodeId(0), NodeId(1)]).unwrap();
        // Look up a customer through router → partition → top → index.
        let key = wattdb_tpcc::keys::customer(1, 3, 5);
        let table = TpccTable::Customer.table_id();
        let route = c.router.route(table, key).unwrap();
        let part = c
            .partitions
            .values()
            .find(|p| p.id == route.primary.partition)
            .unwrap();
        let seg = part.top.segment_for(key).expect("segment covers key");
        let idx = &c.indexes[&seg];
        let (rid, _) = idx.get(key);
        let rec = c.store.read_record(rid.expect("customer loaded")).unwrap();
        assert_eq!(rec.key, key);
        assert_eq!(rec.logical_width, TpccTable::Customer.row_width());
    }

    #[test]
    fn segments_tile_partition_ranges() {
        let cl = Cluster::new(small_cfg(), &[NodeId(0), NodeId(1)]);
        let mut c = cl.borrow_mut();
        c.load_tpcc(tpcc_cfg(), &[NodeId(0), NodeId(1)]).unwrap();
        for part in c.partitions.values() {
            let segs = part.top.segments();
            if segs.is_empty() {
                continue;
            }
            for w in segs.windows(2) {
                assert_eq!(w[0].1.end, w[1].1.start, "contiguous tiling");
            }
        }
    }

    #[test]
    fn power_envelope_minimal_vs_loaded() {
        let cl = Cluster::new(small_cfg(), &[NodeId(0)]);
        let mut c = cl.borrow_mut();
        // 1 active of 4 + switch + drives.
        let p = c.sample_power(SimTime::from_secs(1)).0;
        // 22 (idle) + 3×2.5 + 20 (switch) + 9 (drives) = 58.5.
        assert!((55.0..62.0).contains(&p), "{p}");
        c.power_on(NodeId(1));
        c.power_on(NodeId(2));
        let p2 = c.sample_power(SimTime::from_secs(2)).0;
        assert!(p2 > p + 30.0, "two more active nodes: {p2}");
    }

    #[test]
    fn power_off_requires_empty_node() {
        let cl = Cluster::new(small_cfg(), &[NodeId(0), NodeId(1)]);
        let mut c = cl.borrow_mut();
        c.load_tpcc(tpcc_cfg(), &[NodeId(0), NodeId(1)]).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.power_off(NodeId(1));
        }));
        assert!(result.is_err(), "node with segments must not power off");
    }

    #[test]
    fn lifecycle_has_five_writers_and_no_resurrection() {
        let cl = Cluster::new(small_cfg(), &[NodeId(0), NodeId(1)]);
        let mut c = cl.borrow_mut();
        let (n1, n2) = (NodeId(1), NodeId(2));
        // Only an active node can drain.
        c.begin_drain(n2);
        assert_eq!(c.life(n2), Lifecycle::Standby);
        // A draining node is still up and billed as active, but no longer
        // `Active` — the state every placement pool filters on.
        c.begin_drain(n1);
        assert_eq!(c.life(n1), Lifecycle::Draining);
        assert!(c.life(n1).is_up());
        assert_eq!(c.life(n1).power(), NodeState::Active);
        assert_eq!(c.active_nodes(), vec![NodeId(0), n1]);
        assert_eq!(c.draining_nodes(), vec![n1]);
        c.power_on(n1);
        assert_eq!(c.life(n1), Lifecycle::Draining, "power_on keeps a drain");
        // The episode ends without a suspension: back into the pool.
        c.end_drain(n1);
        assert_eq!(c.life(n1), Lifecycle::Active);
        c.end_drain(n2);
        assert_eq!(
            c.life(n2),
            Lifecycle::Standby,
            "end_drain only undoes a drain"
        );
        // A draining node can die; nothing brings a dead node back.
        c.begin_drain(n1);
        c.fail_node(n1, Rank::end_of(SimTime::ZERO));
        assert_eq!(c.life(n1), Lifecycle::Failed);
        assert!(c.draining_nodes().is_empty());
        for transition in [
            Cluster::power_on,
            Cluster::power_off,
            Cluster::begin_drain,
            Cluster::end_drain,
            |c: &mut Cluster, n| c.fail_node(n, Rank::end_of(SimTime::ZERO)),
        ] {
            transition(&mut c, n1);
            assert_eq!(c.life(n1), Lifecycle::Failed);
        }
        assert!(!c.life(n1).is_up());
        assert_eq!(c.life(n1).power(), NodeState::Standby);
        assert_eq!(c.active_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn follower_hosts_neither_power_off_nor_drain_unnoticed() {
        let cfg = ClusterConfig {
            replication: 1,
            ..small_cfg()
        };
        let cl = Cluster::new(cfg, &[NodeId(0), NodeId(1), NodeId(2)]);
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        c.load_tpcc(tpcc_cfg(), &[NodeId(0), NodeId(1)]).unwrap();
        let plan = crate::heat::plan_replicas(c, SimTime::ZERO);
        crate::replication::place(c, &plan);
        assert_eq!(crate::replication::check_invariants(c), None);
        // n2 stores no segment, but the planner spread follower copies
        // onto it: it is still "data on disk".
        let host = NodeId(2);
        assert!(c.seg_dir.on_node(host).next().is_none());
        assert!(!c.replication.followed_by(host).is_empty());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.power_off(host);
        }));
        assert!(result.is_err(), "a follower host must not power off");
        assert_eq!(c.life(host), Lifecycle::Active);
        // A drain that leaves follower copies behind is a reported
        // violation until the copies are re-homed or the drain ends.
        c.begin_drain(host);
        let violation = crate::replication::check_invariants(c).expect("draining follower");
        assert!(violation.contains("is draining"), "{violation}");
        c.end_drain(host);
        assert_eq!(crate::replication::check_invariants(c), None);
    }

    #[test]
    fn partition_on_is_idempotent() {
        let cl = Cluster::new(small_cfg(), &[NodeId(0)]);
        let mut c = cl.borrow_mut();
        let a = c.partition_on(TableId(1), NodeId(2));
        let b = c.partition_on(TableId(1), NodeId(2));
        let other = c.partition_on(TableId(2), NodeId(2));
        assert_eq!(a, b);
        assert_ne!(a, other);
    }
}
