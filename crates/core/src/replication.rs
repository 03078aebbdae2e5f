//! Follower replication, one owner. The paper's cluster keeps one copy of
//! each segment; here each segment's leader ships its durable WAL tail to
//! `factor` followers, which serve caught-up reads and take over when it
//! dies ([`crate::failover`]). [`Replication`] holds the follower set of
//! each *tracked* segment (the replica map), the shipping cursors, the
//! catch-up bars, the read rotation and its counters. A segment's leader
//! is its catalog node, the one owner record, so what reads a leader or
//! writes the map here takes the cluster. Every map write re-syncs the
//! cursors, so a leader always ships to exactly the followers of the
//! tracked segments it owns.
//!
//! Acknowledgements are booked when a batch is sent, at the rank its
//! delivery would have fired at; whatever reads an acked LSN first lands
//! those ranked at or before its reader ([`LogShipper::settle`]).

use wattdb_common::{ByteSize, DenseMap, Lsn, NodeId, Rank, SegmentId};
use wattdb_net::Network;
use wattdb_planner::ReplicaPlan;
use wattdb_sim::{Completion::Detached, Sim};
use wattdb_telemetry::MetricsRegistry;
use wattdb_wal::LogShipper;

use crate::cluster::{Cluster, Lifecycle, NodeRuntime};

/// The cluster's follower replication (see the module docs).
#[derive(Debug, Default)]
pub struct Replication {
    /// Followers per segment; zero turns replication off.
    factor: usize,
    /// Each tracked segment's followers, in attachment order (none at
    /// factor 0). By id: the read path asks for them per operation.
    followers: DenseMap<SegmentId, Vec<NodeId>>,
    /// Each leader's cursors to its followers, by node id.
    shippers: Vec<LogShipper>,
    /// Per-segment last write in the leader's log: the catch-up bar.
    seg_last_write: DenseMap<SegmentId, Lsn>,
    /// Per-segment round-robin cursor over read-eligible copies.
    replica_rr: DenseMap<SegmentId, usize>,
    /// The read router's scratch, kept for its capacity only.
    read_pool: Vec<NodeId>,
    /// Follower-served reads (lifetime, in modeled reads).
    reads: u64,
    /// Routed reads that found a caught-up follower (lifetime).
    pub routed_reads: u64,
    /// Bytes shipped to seed new follower copies (lifetime).
    pub rereplicated_bytes: u64,
}

fn is_failed(nodes: &[NodeRuntime], node: NodeId) -> bool {
    nodes[node.raw() as usize].life == Lifecycle::Failed
}

impl Replication {
    /// `factor` followers per segment on `nodes` nodes, nothing placed.
    pub fn new(factor: usize, nodes: usize) -> Self {
        Self {
            factor,
            shippers: (0..nodes).map(|_| LogShipper::new()).collect(),
            ..Self::default()
        }
    }

    /// The segment's followers, `None` when it is not tracked.
    pub fn followers(&self, seg: SegmentId) -> Option<&[NodeId]> {
        self.followers.get(&seg).map(Vec::as_slice)
    }

    /// The segment's followers (empty when untracked).
    pub fn followers_of(&self, seg: SegmentId) -> &[NodeId] {
        self.followers(seg).unwrap_or(&[])
    }

    /// The tracked segments `node` follows, in id order.
    pub fn followed_by(&self, node: NodeId) -> Vec<SegmentId> {
        (self.followers.iter())
            .filter(|(_, f)| f.contains(&node))
            .map(|(s, _)| s)
            .collect()
    }

    /// `leader`'s shipping cursors.
    pub fn shipper(&self, leader: NodeId) -> &LogShipper {
        &self.shippers[leader.raw() as usize]
    }

    /// Segments below the factor with their deficit, in id order.
    pub fn under_replicated(&self) -> Vec<(SegmentId, usize)> {
        (self.followers.iter())
            .filter(|(_, f)| f.len() < self.factor)
            .map(|(s, f)| (s, self.factor - f.len()))
            .collect()
    }

    /// Bytes shipped to followers by all leaders.
    pub fn shipped_bytes(&self) -> u64 {
        self.shippers.iter().map(LogShipper::shipped_bytes).sum()
    }

    /// Follower-served reads (lifetime, in modeled reads).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// The copy to serve a read of `seg` for a job at `at` (`weight`
    /// modeled reads), read at `reader`; `None` to stay on the routed owner
    /// `leader`. It and its live, **caught-up** followers (acked LSN ≥ last
    /// write) take turns; a job already on such a follower stays.
    pub fn route_read(
        &mut self,
        seg: SegmentId,
        leader: NodeId,
        at: NodeId,
        weight: u64,
        reader: Rank,
        nodes: &[NodeRuntime],
    ) -> Option<NodeId> {
        let floor = self.seg_last_write.get(&seg).copied().unwrap_or(Lsn::ZERO);
        self.shippers[leader.raw() as usize].settle(reader);
        let shipper = &self.shippers[leader.raw() as usize];
        let pool = &mut self.read_pool;
        pool.clear();
        pool.push(leader);
        let eligible = |f| !is_failed(nodes, f) && shipper.acked_lsn(f).is_some_and(|a| a >= floor);
        let followers = self.followers.get(&seg).map_or(&[][..], Vec::as_slice);
        pool.extend(followers.iter().filter(|&&f| eligible(f)));
        if pool.len() == 1 {
            return None;
        }
        // In modeled reads, the units of the weighted served counts.
        self.routed_reads += weight;
        if pool[1..].contains(&at) {
            return Some(at);
        }
        let rr = self.replica_rr.get_or_insert_with(seg, || 0);
        let copy = pool[*rr % pool.len()];
        *rr = rr.wrapping_add(1);
        Some(copy)
    }

    /// Count a read on `node` (`weight` reads) if off its routed `leader`.
    pub fn record_read(&mut self, node: NodeId, leader: NodeId, weight: u64) {
        if node != leader {
            self.reads += weight;
        }
    }

    /// A write to `seg` logged at `lsn`: the segment's new catch-up bar.
    pub fn record_write(&mut self, seg: SegmentId, lsn: Lsn) {
        if self.factor > 0 {
            self.seg_last_write.insert(seg, lsn);
        }
    }

    /// Ship a live `leader`'s log tail to each live follower with records
    /// pending, one batch each, booking its acknowledgement through the
    /// log's end at the batch's delivery. A batch past one network piece,
    /// whose arrival is not known when it is sent, books none: the
    /// follower reads as behind until a later acknowledgement covers it.
    pub fn ship(&mut self, leader: NodeId, nodes: &[NodeRuntime], net: &Network, sim: &mut Sim) {
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
            let wire = shipper
                .take_batch(f, log)
                .map(|b| ByteSize::bytes(b as u64));
            if let Some((at, as_of)) = wire.and_then(|b| net.send(sim, leader, f, b, Detached)) {
                shipper.book_ack(f, log.last_lsn(), sim.book(at, as_of));
            }
        }
    }

    /// Land every acknowledgement ranked at or before `reader`.
    pub(crate) fn settle(&mut self, reader: Rank) {
        self.shippers.iter_mut().for_each(|s| s.settle(reader));
    }

    /// `node` failed, read at `reader`: what landed before counts, and
    /// the acknowledgements still in flight to or from it never land.
    pub(crate) fn fail(&mut self, node: NodeId, reader: Rank) {
        for (leader, shipper) in (0..).map(NodeId).zip(&mut self.shippers) {
            shipper.settle(reader);
            shipper.void(|f| leader == node || f == node);
        }
    }

    /// The live follower of `seg` to promote now that its leader `failed`:
    /// the most-caught-up per the dead leader's own cursors (which survive
    /// `Cluster::fail_node` for this read). `None` when all died too.
    pub fn winner(&self, seg: SegmentId, failed: NodeId, nodes: &[NodeRuntime]) -> Option<NodeId> {
        let shipper = &self.shippers[failed.raw() as usize];
        let acked = |f| shipper.acked_lsn(f).unwrap_or(Lsn::ZERO);
        let followers = self.followers_of(seg);
        let live = followers.iter().filter(|&&f| !is_failed(nodes, f));
        pick_promotion(live.map(|&f| (f, acked(f))))
    }

    /// Export the `replica.*` / `rereplication.*` metrics into `r`.
    pub fn export(&self, r: &mut MetricsRegistry, nodes: &[NodeRuntime]) {
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
        let share = if routed > 0 {
            reads as f64 / routed as f64
        } else {
            0.0
        };
        r.set_gauge("replica.read_share", share);
        r.set_counter("rereplication.bytes", self.rereplicated_bytes);
    }
}

/// Pick the promotion winner among `candidates` — `(follower,
/// acknowledged LSN)` pairs read off the dead leader's shipping cursors:
/// the **most-caught-up** follower wins (highest acked LSN), ties broken
/// by lowest node id for determinism. `None` when there is no candidate.
pub fn pick_promotion(candidates: impl IntoIterator<Item = (NodeId, Lsn)>) -> Option<NodeId> {
    (candidates.into_iter())
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(n, _)| n)
}

/// Each tracked segment with its leader, the catalog node, and its
/// followers, in id order.
pub fn sites(c: &Cluster) -> impl Iterator<Item = (SegmentId, NodeId, &[NodeId])> {
    let tracked = c.replication.followers.iter();
    tracked.filter_map(|(s, f)| Some((s, c.seg_dir.get(s).ok()?.node, f.as_slice())))
}

/// The tracked segments `node` owns in the catalog, in id order: orphaned
/// when it fails.
pub fn orphans(c: &Cluster, node: NodeId) -> Vec<SegmentId> {
    (sites(c).filter(|&(_, l, _)| l == node))
        .map(|(s, ..)| s)
        .collect()
}

/// True if `node` owns or follows a tracked segment.
pub fn references(c: &Cluster, node: NodeId) -> bool {
    sites(c).any(|(_, l, f)| l == node || f.contains(&node))
}

/// Place the initial map's planned followers (at build time). A follower
/// on the leader it is placed for is a placement bug and panics.
pub fn place(c: &mut Cluster, plan: &ReplicaPlan) {
    for p in &plan.placements {
        let (seg, leader) = (p.seg, p.leader);
        let co_located = p.followers.contains(&leader);
        assert!(
            !co_located,
            "{seg}: follower set co-locates with leader {leader}"
        );
        c.replication.followers.insert(seg, p.followers.clone());
    }
    sync_cursors(c);
}

/// The catalog handed `seg` to `to` (a landed move or a promotion): a
/// follower copy on `to` is consumed and `to`'s log is the catch-up
/// reference. Returns whether a copy was consumed, for the caller to
/// backfill. Without `keep_followers` the old set is history.
pub fn follow_owner(c: &mut Cluster, seg: SegmentId, to: NodeId, keep_followers: bool) -> bool {
    let r = &mut c.replication;
    let Some(followers) = r.followers.get_mut(&seg) else {
        return false;
    };
    let consumed = followers.contains(&to);
    followers.retain(|&n| n != to);
    if !keep_followers {
        *followers = Vec::new();
    }
    let lsn = c.nodes[to.raw() as usize].log.last_lsn();
    r.seg_last_write.insert(seg, lsn);
    sync_cursors(c);
    consumed
}

/// Take `(segment, follower)` copies out of the map: a drain's copies (a
/// node must shed replica duty before it may suspend) or a dead node's.
pub fn remove_followers(c: &mut Cluster, copies: impl IntoIterator<Item = (SegmentId, NodeId)>) {
    for (seg, node) in copies {
        if let Some(f) = c.replication.followers.get_mut(&seg) {
            f.retain(|&n| n != node);
        }
    }
    sync_cursors(c);
}

/// A follower copy of `seg` (`bytes` on the wire) landed on `to`.
pub fn add_copy(c: &mut Cluster, seg: SegmentId, to: NodeId, bytes: u64) {
    if let Some(f) = (c.replication.followers.get_mut(&seg)).filter(|f| !f.contains(&to)) {
        f.push(to);
    }
    c.replication.rereplicated_bytes += bytes;
    sync_cursors(c);
}

/// Make each leader ship to exactly its tracked segments' followers, in
/// place (a cursor attaches at its leader's log end, in any order).
fn sync_cursors(c: &mut Cluster) {
    let mut shippers = std::mem::take(&mut c.replication.shippers);
    for (leader, shipper) in (0..).map(NodeId).zip(shippers.iter_mut()) {
        let mut i = 0;
        while let Some(f) = shipper.follower_at(i) {
            if sites(c).any(|(_, l, fs)| l == leader && fs.contains(&f)) {
                i += 1;
            } else {
                shipper.detach(f);
            }
        }
    }
    for (_, leader, followers) in sites(c) {
        let i = leader.raw() as usize;
        for &f in followers {
            shippers[i].attach(f, &c.nodes[i].log);
        }
    }
    c.replication.shippers = shippers;
}

/// The first violated invariant, `None` when clean: no leader (catalog
/// node) follows its own segment; referenced nodes are up (failed ones
/// until promotion) and followers not draining; each leader's cursors are
/// exactly its tracked segments' followers, with `acked ≤ shipped ≤` its
/// last LSN.
pub fn check_invariants(c: &Cluster) -> Option<String> {
    let life = |n: NodeId| c.nodes[n.raw() as usize].life;
    for (seg, leader, followers) in sites(c) {
        if followers.contains(&leader) {
            return Some(format!("{seg}: leader {leader} in its own follower set"));
        }
        let mut referenced = std::iter::once(&leader).chain(followers);
        if let Some(n) = referenced.find(|&&n| life(n) == Lifecycle::Standby) {
            return Some(format!("{seg}: references suspended node {n}"));
        }
        for &f in followers {
            if life(f) == Lifecycle::Draining {
                return Some(format!("{seg}: follower {f} is draining"));
            }
            if c.replication.shipper(leader).acked_lsn(f).is_none() {
                return Some(format!("{seg}: leader {leader} ships nothing to {f}"));
            }
        }
    }
    let shippers = (0..).map(NodeId).zip(&c.replication.shippers);
    for ((leader, shipper), node) in shippers.zip(&c.nodes) {
        for f in (0..).map_while(|i| shipper.follower_at(i)) {
            if !sites(c).any(|(_, l, fs)| l == leader && fs.contains(&f)) {
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

/// Panic on a [`check_invariants`] violation, in every build profile
/// (after each [`crate::migration::run`] and suspension).
pub fn assert_invariants(c: &Cluster) {
    if let Some(violation) = check_invariants(c) {
        panic!("replica-map invariant violated: {violation}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig, ClusterRc};
    use wattdb_common::{DiskId, SimDuration, SimTime, TableId, TxnId};
    use wattdb_planner::ReplicaSite;
    use wattdb_wal::LogPayload;

    const SEG: SegmentId = SegmentId(0);
    const LEADER: NodeId = NodeId(0);

    /// Four live nodes and one segment: led by n0, which holds all the
    /// heat, with caught-up followers on n1–n3.
    fn hot_leader_three_followers() -> ClusterRc {
        let cfg = ClusterConfig {
            nodes: 4,
            replication: 3,
            ..Default::default()
        };
        let cl = Cluster::new(cfg, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        {
            let c = &mut *cl.borrow_mut();
            let seg = c
                .seg_dir
                .create(TableId(0), LEADER, DiskId::new(LEADER, 1), None, 8);
            assert_eq!(seg, SEG);
            for _ in 0..100 {
                c.heat.record_read(SEG, SimTime::ZERO);
            }
            let followers = vec![NodeId(1), NodeId(2), NodeId(3)];
            let placements = vec![ReplicaSite {
                seg: SEG,
                leader: LEADER,
                followers,
            }];
            place(c, &ReplicaPlan { placements });
        }
        cl
    }

    /// Route `n` reads of the segment for a job on `at`, read at `reader`:
    /// reads per node.
    fn route(c: &mut Cluster, at: NodeId, reader: Rank, n: usize) -> [usize; 4] {
        let mut served = [0; 4];
        for _ in 0..n {
            let to = c
                .replication
                .route_read(SEG, LEADER, at, 1, reader, &c.nodes);
            served[to.unwrap_or(LEADER).raw() as usize] += 1;
        }
        served
    }

    /// Log a write to the segment on its leader and ship it at the sim's
    /// clock: an 11 700-byte record, 100 µs on the wire. Returns its LSN.
    fn ship_write(c: &mut Cluster, sim: &mut Sim) -> Lsn {
        let write = LogPayload::Change {
            segment: SEG,
            image_bytes: 11_668,
        };
        let lsn = c.nodes[0].log.append(TxnId(1), write);
        c.replication.record_write(SEG, lsn);
        c.replication.ship(LEADER, &c.nodes, &c.net, sim);
        lsn
    }

    /// Where the `k`-th batch (from 1) of a [`ship_write`] at `t` on idle
    /// links lands, and the instant it clears them: the batches share the
    /// leader's egress, one after another.
    fn lands(c: &Cluster, t: SimTime, k: u64) -> (SimTime, SimTime) {
        let clear = t + SimDuration::from_micros(100 * k);
        (clear + c.net.spec().hop_latency, clear)
    }

    #[test]
    fn caught_up_copies_take_turns_and_the_rest_never_serve() {
        let cl = hot_leader_three_followers();
        let c = &mut *cl.borrow_mut();
        // k eligible copies, a job on the leader: each copy serves ⌊n/k⌋
        // or ⌈n/k⌉ of n reads, however hot the leader's host is.
        let (n, k) = (10, 4);
        let served = route(c, LEADER, Rank::end_of(SimTime::ZERO), n);
        let fair = (n / k)..=n.div_ceil(k);
        assert!(served.iter().all(|s| fair.contains(s)), "{served:?}");
        assert_eq!(c.replication.routed_reads, n as u64);
        // A failed follower, and one whose acked LSN is below the last
        // write, never serve: n1's acknowledgement of the write has landed,
        // n2's, a batch behind on the leader's egress, has not.
        c.fail_node(NodeId(3), Rank::end_of(SimTime::ZERO));
        ship_write(c, &mut Sim::new());
        let (n1_lands, _) = lands(c, SimTime::ZERO, 1);
        let reader = Rank::end_of(n1_lands);
        assert_eq!(route(c, LEADER, reader, 10), [5, 5, 0, 0]);
        // A job already on an eligible follower stays there.
        assert_eq!(route(c, NodeId(1), reader, 4), [0, 4, 0, 0]);
    }

    #[test]
    fn an_acknowledgement_lands_for_readers_ranked_at_or_after_its_delivery() {
        let cl = hot_leader_three_followers();
        let c = &mut *cl.borrow_mut();
        let mut sim = Sim::new();
        // An event posted before the batch is sent.
        sim.post_after(SimDuration::ZERO, Detached);
        let lsn = ship_write(c, &mut sim);
        let (arrival, clear) = lands(c, SimTime::ZERO, 1);
        let acked = |c: &mut Cluster, reader: Rank, f: u16| {
            c.replication.settle(reader);
            c.replication.shipper(LEADER).acked_lsn(NodeId(f))
        };
        let early = |t: SimTime| SimTime::from_micros(t.as_micros() - 1);
        let (at, none) = (arrival, Some(Lsn::ZERO));
        // Ranked before its delivery: a µs early, settled earlier in the
        // same µs, or posted before the batch was sent.
        assert_eq!(acked(c, Rank::end_of(early(arrival)), 1), none);
        let as_of = early(clear);
        assert_eq!(acked(c, Rank { at, as_of, seq: 9 }, 1), none);
        let as_of = clear;
        assert_eq!(acked(c, Rank { at, as_of, seq: 0 }, 1), none);
        // Posted after it: landed. n2's lands a batch later.
        assert_eq!(acked(c, Rank { at, as_of, seq: 1 }, 1), Some(lsn));
        assert_eq!(acked(c, Rank::end_of(arrival), 2), none);
        assert_eq!(
            acked(c, Rank::end_of(lands(c, SimTime::ZERO, 2).0), 2),
            Some(lsn)
        );
    }

    #[test]
    fn an_acknowledgement_in_flight_when_an_endpoint_fails_never_lands() {
        let cl = hot_leader_three_followers();
        let c = &mut *cl.borrow_mut();
        let mut sim = Sim::new();
        let acked = |c: &Cluster, f: u16| c.replication.shipper(LEADER).acked_lsn(NodeId(f));
        let by = |ms: u64| Rank::end_of(SimTime::from_millis(ms));
        // Every acknowledgement of a first write lands.
        let w1 = ship_write(c, &mut sim);
        c.replication.settle(by(5));
        // Follower n1 fails with its acknowledgement of a second in flight.
        sim.run_until(SimTime::from_millis(10));
        let w2 = ship_write(c, &mut sim);
        c.fail_node(NodeId(1), sim.rank());
        c.replication.settle(by(15));
        let all = [acked(c, 1), acked(c, 2), acked(c, 3)];
        assert_eq!(all, [Some(w1), Some(w2), Some(w2)]);
        // The leader fails once n3's acknowledgement of a third write has
        // landed, before n2's, held up behind a bulk message on its ingress.
        sim.run_until(SimTime::from_millis(20));
        let bulk = ByteSize::bytes(1_000_000);
        c.net.send(&mut sim, NodeId(3), NodeId(2), bulk, Detached);
        let w3 = ship_write(c, &mut sim);
        c.fail_node(LEADER, by(21));
        c.replication.settle(by(40));
        assert_eq!([acked(c, 2), acked(c, 3)], [Some(w2), Some(w3)]);
        // Promotion reads what landed: n3, though n2 wins a tie.
        assert_eq!(c.replication.winner(SEG, LEADER, &c.nodes), Some(NodeId(3)));
    }

    #[test]
    fn the_catalog_names_each_tracked_segments_leader() {
        let cl = hot_leader_three_followers();
        let c = &mut *cl.borrow_mut();
        // A segment the map does not track (as one a logical move opens)
        // is no orphan of its owner.
        let disk = DiskId::new(NodeId(3), 1);
        let untracked = c.seg_dir.create(TableId(0), NodeId(3), disk, None, 8);
        assert_eq!(orphans(c, LEADER), vec![SEG]);
        assert_eq!(orphans(c, NodeId(3)), vec![]);
        assert!(references(c, NodeId(3)), "a follower");
        // A hand-over moves leadership with the catalog alone: n2's copy
        // is consumed, and n0 stops shipping to the followers while n2
        // starts.
        let disk = c.data_disk(NodeId(2), SEG);
        c.seg_dir.relocate(SEG, NodeId(2), disk).unwrap();
        assert!(follow_owner(c, SEG, NodeId(2), true), "n2's copy consumed");
        let followers = c.replication.followers_of(SEG);
        assert_eq!(followers, &[NodeId(1), NodeId(3)]);
        assert_eq!(orphans(c, NodeId(2)), vec![SEG]);
        assert!(orphans(c, LEADER).is_empty());
        assert_eq!(c.replication.shipper(LEADER).followers(), vec![]);
        let shipping = c.replication.shipper(NodeId(2)).followers();
        assert_eq!(shipping, vec![NodeId(1), NodeId(3)]);
        assert_eq!(check_invariants(c), None);
        // Moving the untracked segment changes nothing in the map.
        assert!(!follow_owner(c, untracked, LEADER, true));
        assert_eq!(c.replication.followers(untracked), None);
    }

    #[test]
    #[should_panic(expected = "co-locates")]
    fn a_follower_placed_on_its_leader_panics() {
        let cl = Cluster::new(ClusterConfig::default(), &[NodeId(0), NodeId(1)]);
        let c = &mut *cl.borrow_mut();
        let seg = c
            .seg_dir
            .create(TableId(0), LEADER, DiskId::new(LEADER, 1), None, 8);
        let placements = vec![ReplicaSite {
            seg,
            leader: LEADER,
            followers: vec![NodeId(1), LEADER],
        }];
        place(c, &ReplicaPlan { placements });
    }
}
