//! Follower replication, one owner: each segment's leader ships its durable
//! WAL tail to `factor` followers, which serve caught-up reads and take
//! over when it dies ([`crate::failover`]). [`Replication`] holds the
//! [`ReplicaMap`], the shipping cursors, the catch-up bars, the read router
//! and its counters; node liveness and logs, heat and the segment directory
//! are borrowed per call. Every map mutation re-syncs the cursors here, so
//! a leader always ships to exactly the followers of its segments.

use std::collections::BTreeMap;
use std::fmt::Write;

use wattdb_common::{ByteSize, DenseMap, Heat, Lsn, NodeId, SegmentId, SimTime};
use wattdb_net::Network;
use wattdb_planner::ReplicaPlan;
use wattdb_replica::ReplicaMap;
use wattdb_storage::SegmentDirectory;
use wattdb_telemetry::MetricsRegistry;
use wattdb_wal::LogShipper;

use crate::cluster::{Lifecycle, NodeRuntime};
use crate::heat::HeatTable;

/// One node's lifetime counters at its last [`Replication::sample_window`].
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    shipped: u64,
    at: SimTime,
    served: u64,
    routed: u64,
}

/// The cluster's follower replication (see the module docs).
#[derive(Debug, Default)]
pub struct Replication {
    /// Followers per segment; zero turns replication off.
    factor: usize,
    /// Per-segment leader/follower placement (empty at factor 0).
    map: ReplicaMap,
    /// Each leader's cursors to its followers, by node id.
    shippers: Vec<LogShipper>,
    /// Per-segment last write in the leader's log: the catch-up bar.
    seg_last_write: DenseMap<SegmentId, Lsn>,
    /// Per-segment round-robin cursor over read-eligible copies.
    replica_rr: DenseMap<SegmentId, usize>,
    /// The read router's scratch, kept for its capacity only.
    read_pool: Vec<(NodeId, Heat)>,
    /// Follower-served reads per serving node (lifetime).
    replica_reads_by: BTreeMap<NodeId, u64>,
    windows: Vec<Window>,
    /// Routed reads that found a caught-up follower (lifetime).
    pub routed_reads: u64,
    /// Last heat-weighted routing weight per pool host.
    pub route_weights: BTreeMap<NodeId, u64>,
    /// Bytes shipped to seed new follower copies (lifetime).
    pub rereplicated_bytes: u64,
}

fn is_failed(nodes: &[NodeRuntime], node: NodeId) -> bool {
    nodes[node.raw() as usize].life == Lifecycle::Failed
}

/// `num / den`, zero over an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den > 0 {
        num as f64 / den as f64
    } else {
        0.0
    }
}

impl Replication {
    /// `factor` followers per segment on `nodes` nodes, nothing placed.
    pub fn new(factor: usize, nodes: usize) -> Self {
        Self {
            factor,
            shippers: (0..nodes).map(|_| LogShipper::new()).collect(),
            windows: vec![Window::default(); nodes],
            ..Self::default()
        }
    }

    /// The replica map, read-only: every mutation goes through this owner.
    pub fn map(&self) -> &ReplicaMap {
        &self.map
    }

    /// `leader`'s shipping cursors.
    pub fn shipper(&self, leader: NodeId) -> &LogShipper {
        &self.shippers[leader.raw() as usize]
    }

    /// Segments below the factor with their deficit, in id order.
    pub fn under_replicated(&self) -> Vec<(SegmentId, usize)> {
        self.map.under_replicated(self.factor)
    }

    /// Bytes shipped to followers by all leaders.
    pub fn shipped_bytes(&self) -> u64 {
        self.shippers.iter().map(LogShipper::shipped_bytes).sum()
    }

    /// Follower-served reads (lifetime, in modeled reads).
    pub fn reads(&self) -> u64 {
        self.replica_reads_by.values().sum()
    }

    /// The copy to serve a read of `seg` for a job at `at` (`weight`
    /// modeled reads), `None` to stay on `leader`. Live, **caught-up**
    /// followers (acked LSN ≥ last write) share the load with the leader;
    /// a job already on one stays (no ping-pong), else the copies rotate.
    #[allow(clippy::too_many_arguments)]
    pub fn route_read(
        &mut self,
        seg: SegmentId,
        leader: NodeId,
        at: NodeId,
        weight: u64,
        now: SimTime,
        heat: &HeatTable,
        dir: &SegmentDirectory,
        nodes: &[NodeRuntime],
    ) -> Option<NodeId> {
        if self.map.leader_of(seg) != Some(leader) {
            return None; // map out of step with routing: serve the owner
        }
        let floor = self.seg_last_write.get(&seg).copied().unwrap_or(Lsn::ZERO);
        let shipper = &self.shippers[leader.raw() as usize];
        let pool = &mut self.read_pool;
        pool.clear();
        pool.push((leader, Heat::ZERO));
        let eligible = |f| !is_failed(nodes, f) && shipper.acked_lsn(f).is_some_and(|a| a >= floor);
        let followers = self.map.followers_of(seg).iter().filter(|&&f| eligible(f));
        pool.extend(followers.map(|&f| (f, Heat::ZERO)));
        if pool.len() == 1 {
            return None;
        }
        // In modeled reads, the units of the weighted served counts.
        self.routed_reads += weight;
        if pool[1..].iter().any(|&(f, _)| f == at) {
            return Some(at);
        }
        // Each copy's rotation weight scales 1..=4 with how much *colder*
        // its host is than the hottest member's (one directory pass sums
        // node heat in segment-id order, like `HeatTable::node_heat`).
        for m in dir.iter() {
            if let Some((_, h)) = pool.iter_mut().find(|(n, _)| *n == m.node) {
                *h += heat.heat_of(m.id, now);
            }
        }
        let heats = pool.iter().map(|(_, h)| h.value());
        let max_h = heats.clone().fold(f64::MIN, f64::max);
        let spread = max_h - heats.fold(f64::MAX, f64::min);
        let weight_of = |h: Heat| {
            if spread > 0.0 {
                1 + (3.0 * (max_h - h.value()) / spread).round() as u64
            } else {
                1
            }
        };
        let mut total = 0u64;
        for &(n, h) in pool.iter() {
            self.route_weights.insert(n, weight_of(h));
            total += weight_of(h);
        }
        let rr = self.replica_rr.get_or_insert_with(seg, || 0);
        let slot = (*rr as u64) % total;
        *rr = rr.wrapping_add(1);
        let mut cum = 0u64;
        for &(n, h) in pool.iter() {
            cum += weight_of(h);
            if slot < cum {
                return Some(n);
            }
        }
        Some(leader)
    }

    /// Count a read of `seg` on `node` (`weight` reads) if off the leader.
    pub fn record_read(&mut self, seg: SegmentId, node: NodeId, weight: u64) {
        if self.map.leader_of(seg).is_some_and(|l| l != node) {
            *self.replica_reads_by.entry(node).or_insert(0) += weight;
        }
    }

    /// A write to `seg` logged at `lsn`: the segment's new catch-up bar.
    pub fn record_write(&mut self, seg: SegmentId, lsn: Lsn) {
        if self.factor > 0 {
            self.seg_last_write.insert(seg, lsn);
        }
    }

    /// Ship a live `leader`'s log tail to each live follower with records
    /// pending: `send(follower, bytes, through)` puts one batch on the
    /// wire, to be acknowledged through `through` on delivery.
    pub fn ship(
        &mut self,
        leader: NodeId,
        nodes: &[NodeRuntime],
        mut send: impl FnMut(NodeId, usize, Lsn),
    ) {
        if is_failed(nodes, leader) {
            return;
        }
        let log = &nodes[leader.raw() as usize].log;
        let shipper = &mut self.shippers[leader.raw() as usize];
        // By position: the loop ships through the cursors it walks.
        let mut next = 0;
        while let Some(f) = shipper.follower_at(next) {
            next += 1;
            if is_failed(nodes, f) {
                continue;
            }
            if let Some(bytes) = shipper.take_batch(f, log) {
                send(f, bytes, log.last_lsn());
            }
        }
    }

    /// A batch reached follower `f`: it persisted `leader`'s log through
    /// `through`. An endpoint that failed mid-flight voids the delivery.
    pub fn acknowledge(&mut self, leader: NodeId, f: NodeId, through: Lsn, nodes: &[NodeRuntime]) {
        if !is_failed(nodes, leader) && !is_failed(nodes, f) {
            self.shippers[leader.raw() as usize].acknowledge(f, through);
        }
    }

    /// Place the initial map's planned followers (at build time).
    pub fn place(&mut self, plan: &ReplicaPlan, nodes: &[NodeRuntime]) {
        for p in &plan.placements {
            self.map.set(p.seg, p.leader, p.followers.clone());
        }
        self.sync_cursors(nodes);
    }

    /// Leadership follows ownership: `to` now owns `seg` (a landed move or
    /// a promotion) and its log is the catch-up reference. Returns whether
    /// a follower copy on `to` was consumed, for the caller to backfill.
    /// Without `keep_followers` the old set is history.
    pub fn follow_owner(
        &mut self,
        seg: SegmentId,
        to: NodeId,
        keep_followers: bool,
        nodes: &[NodeRuntime],
    ) -> bool {
        let Some(set) = self.map.get(seg) else {
            return false;
        };
        let consumed = set.followers.contains(&to);
        if keep_followers {
            self.map.set_leader(seg, to);
        } else {
            self.map.set(seg, to, Vec::new());
        }
        let lsn = nodes[to.raw() as usize].log.last_lsn();
        self.seg_last_write.insert(seg, lsn);
        self.sync_cursors(nodes);
        consumed
    }

    /// The map names a dead leader for `seg` whose ownership moved on
    /// before the failure was noticed: point it at the actual `owner`, or
    /// forget the segment when it has none.
    pub fn repoint(&mut self, seg: SegmentId, owner: Option<NodeId>, nodes: &[NodeRuntime]) {
        match owner {
            Some(n) => self.map.set_leader(seg, n),
            None => self.map.remove(seg),
        }
        self.sync_cursors(nodes);
    }

    /// The live follower of `seg` to promote now that its leader `failed`:
    /// the most-caught-up per the dead leader's own cursors (which survive
    /// `Cluster::fail_node` for this read). `None` when all died too.
    pub fn winner(&self, seg: SegmentId, failed: NodeId, nodes: &[NodeRuntime]) -> Option<NodeId> {
        let shipper = &self.shippers[failed.raw() as usize];
        let acked = |f| shipper.acked_lsn(f).unwrap_or(Lsn::ZERO);
        let followers = self.map.followers_of(seg);
        let live = followers.iter().filter(|&&f| !is_failed(nodes, f));
        wattdb_replica::pick_promotion(live.map(|&f| (f, acked(f))))
    }

    /// Erase the failed node from every follower set (after promotion).
    pub fn drop_node(&mut self, failed: NodeId, nodes: &[NodeRuntime]) {
        self.map.drop_follower_node(failed);
        self.sync_cursors(nodes);
    }

    /// Take a drain's `(segment, follower)` copies out of the map: a node
    /// must shed replica duty before it may suspend.
    pub fn remove_followers(
        &mut self,
        copies: impl IntoIterator<Item = (SegmentId, NodeId)>,
        nodes: &[NodeRuntime],
    ) {
        for (seg, node) in copies {
            self.map.remove_follower(seg, node);
        }
        self.sync_cursors(nodes);
    }

    /// A follower copy of `seg` (`bytes` on the wire) landed on `to`.
    pub fn add_copy(&mut self, seg: SegmentId, to: NodeId, bytes: u64, nodes: &[NodeRuntime]) {
        self.map.add_follower(seg, to);
        self.rereplicated_bytes += bytes;
        self.sync_cursors(nodes);
    }

    /// Make each leader ship to exactly its segments' followers, in place
    /// (a cursor attaches at its leader's log end, in any order).
    fn sync_cursors(&mut self, nodes: &[NodeRuntime]) {
        let Self { map, shippers, .. } = self;
        for (leader, shipper) in (0..).map(NodeId).zip(shippers.iter_mut()) {
            let mut i = 0;
            while let Some(f) = shipper.follower_at(i) {
                if map.ships(leader, f) {
                    i += 1;
                } else {
                    shipper.detach(f);
                }
            }
        }
        for (_, set) in map.iter() {
            let i = set.leader.raw() as usize;
            for &f in &set.followers {
                shippers[i].attach(f, &nodes[i].log);
            }
        }
    }

    /// Close `node`'s monitoring window at `now`: its shipping egress as
    /// NIC utilization, and its share of the window's routed reads.
    pub fn sample_window(&mut self, node: NodeId, now: SimTime, net: &Network) -> (f64, f64) {
        let idx = node.raw() as usize;
        let w = &mut self.windows[idx];
        let shipped = self.shippers[idx].shipped_bytes();
        let ship_delta = shipped.saturating_sub(std::mem::replace(&mut w.shipped, shipped));
        let window = now.since(std::mem::replace(&mut w.at, now));
        let ship_tx = if ship_delta > 0 && window.as_micros() > 0 {
            let wire = net.wire_time(ByteSize::bytes(ship_delta));
            (wire.as_micros() as f64 / window.as_micros() as f64).min(1.0)
        } else {
            0.0
        };
        let served = self.replica_reads_by.get(&node).copied().unwrap_or(0);
        let served_delta = served.saturating_sub(std::mem::replace(&mut w.served, served));
        let total = self.routed_reads;
        let routed_delta = total.saturating_sub(std::mem::replace(&mut w.routed, total));
        (ship_tx, ratio(served_delta, routed_delta))
    }

    /// Export the `replica.*` / `rereplication.*` metrics into `r`
    /// (`name` is a reused buffer for the per-node gauge names).
    pub fn export(&self, r: &mut MetricsRegistry, nodes: &[NodeRuntime], name: &mut String) {
        let mut lag_max = 0u64;
        for (shipper, node) in self.shippers.iter().zip(nodes) {
            for f in (0..).map_while(|i| shipper.follower_at(i)) {
                lag_max = lag_max.max(shipper.lag(f, &node.log).unwrap_or(0));
            }
        }
        r.set_counter("replica.shipped_bytes", self.shipped_bytes());
        r.set_gauge("replica.lag_max", lag_max as f64);
        let (reads, routed) = (self.reads(), self.routed_reads);
        r.set_counter("replica.reads", reads);
        r.set_counter("replica.routed_reads", routed);
        r.set_gauge("replica.read_share", ratio(reads, routed));
        r.set_counter("rereplication.bytes", self.rereplicated_bytes);
        for (&node, &w) in &self.route_weights {
            name.clear();
            let _ = write!(name, "replica.route_weight.{}", node.raw());
            r.set_gauge(name, w as f64);
        }
    }

    /// The first violated invariant, `None` when clean: no leader follows
    /// itself; referenced nodes are up (failed ones until promotion) and
    /// followers not draining; each leader's cursors are exactly its
    /// segments' followers, with `acked ≤ shipped ≤` its last LSN.
    pub fn check_invariants(&self, nodes: &[NodeRuntime]) -> Option<String> {
        let life = |n: NodeId| nodes[n.raw() as usize].life;
        for (seg, set) in self.map.iter() {
            let leader = set.leader;
            if set.followers.contains(&leader) {
                return Some(format!("{seg}: leader {leader} in its own follower set"));
            }
            let mut referenced = std::iter::once(&leader).chain(&set.followers);
            if let Some(n) = referenced.find(|&&n| life(n) == Lifecycle::Standby) {
                return Some(format!("{seg}: references suspended node {n}"));
            }
            for &f in &set.followers {
                if life(f) == Lifecycle::Draining {
                    return Some(format!("{seg}: follower {f} is draining"));
                }
                if self.shipper(leader).acked_lsn(f).is_none() {
                    return Some(format!("{seg}: leader {leader} ships nothing to {f}"));
                }
            }
        }
        for ((leader, shipper), node) in (0..).map(NodeId).zip(&self.shippers).zip(nodes) {
            for f in (0..).map_while(|i| shipper.follower_at(i)) {
                if !self.map.ships(leader, f) {
                    return Some(format!("{leader} ships to {f}, a follower of none"));
                }
                let (shipped, acked) = (shipper.shipped_lsn(f), shipper.acked_lsn(f));
                let last = Some(node.log.last_lsn());
                if acked > shipped || shipped > last {
                    let lsns = format!("acked {acked:?}, shipped {shipped:?}, log end {last:?}");
                    return Some(format!("{leader} → {f}: {lsns}"));
                }
            }
        }
        None
    }

    /// Panic on a [`Replication::check_invariants`] violation, in every
    /// build profile (after each [`crate::migration::run`] and suspension).
    pub fn assert_invariants(&self, nodes: &[NodeRuntime]) {
        if let Some(violation) = self.check_invariants(nodes) {
            panic!("replica-map invariant violated: {violation}");
        }
    }
}
