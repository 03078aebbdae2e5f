//! # WattDB-RS replica map: per-segment leader/follower placement
//!
//! The paper's cluster keeps exactly one copy of every segment, so a node
//! loss is unrecoverable and a read hotspot can only be *moved*, never
//! fanned out. This crate adds the metadata half of the fix: a
//! [`ReplicaMap`] recording, per segment, the **leader**
//! (the owning node — writes and routing authority) and a set of
//! **follower** nodes fed from the leader's WAL via the existing
//! `wattdb_wal::LogShipper` path.
//!
//! The map is pure bookkeeping — it holds no cluster state and performs no
//! I/O — so placement invariants (a follower never co-locates with its
//! leader, promotion always picks the most-caught-up follower) can be
//! property-tested exhaustively. The cluster's one writer of the map is
//! `wattdb_core::replication`, which re-syncs the leaders' shipping
//! cursors after every mutation.

use wattdb_common::{DenseMap, Lsn, NodeId, SegmentId};

/// One segment's replication state: the leader plus its follower set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSet {
    /// Owning node: serves writes, ships its log to the followers.
    pub leader: NodeId,
    /// Follower nodes holding a log-shipped copy, in attachment order.
    pub followers: Vec<NodeId>,
}

impl ReplicaSet {
    /// True if `node` holds any replica role for this segment.
    pub fn contains(&self, node: NodeId) -> bool {
        self.leader == node || self.followers.contains(&node)
    }
}

/// Map from segment to its [`ReplicaSet`].
#[derive(Debug, Clone, Default)]
pub struct ReplicaMap {
    /// Indexed by segment id: the read path asks for a segment's leader
    /// and followers per operation. Walks are in id order.
    segments: DenseMap<SegmentId, ReplicaSet>,
}

impl ReplicaMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of segments with replication state.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segment has replication state.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The segment's replica set, if tracked.
    pub fn get(&self, seg: SegmentId) -> Option<&ReplicaSet> {
        self.segments.get(&seg)
    }

    /// The segment's leader, if tracked.
    pub fn leader_of(&self, seg: SegmentId) -> Option<NodeId> {
        self.segments.get(&seg).map(|r| r.leader)
    }

    /// The segment's followers (empty when untracked).
    pub fn followers_of(&self, seg: SegmentId) -> &[NodeId] {
        self.segments
            .get(&seg)
            .map(|r| r.followers.as_slice())
            .unwrap_or(&[])
    }

    /// Iterate over all tracked segments in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SegmentId, &ReplicaSet)> {
        self.segments.iter()
    }

    /// Install (or replace) a segment's replica set. A follower equal to
    /// the leader is a placement bug and panics.
    pub fn set(&mut self, seg: SegmentId, leader: NodeId, followers: Vec<NodeId>) {
        assert!(
            !followers.contains(&leader),
            "{seg}: follower set co-locates with leader {leader}"
        );
        self.segments.insert(seg, ReplicaSet { leader, followers });
    }

    /// Record that the segment's leadership moved (a completed migration,
    /// or a follower promoted after the leader failed): the replica set
    /// follows ownership. If the new leader was a follower, it leaves the
    /// follower set; the old leader is *not* demoted to follower.
    pub fn set_leader(&mut self, seg: SegmentId, leader: NodeId) {
        if let Some(r) = self.segments.get_mut(&seg) {
            if r.leader == leader {
                return;
            }
            r.leader = leader;
            r.followers.retain(|&f| f != leader);
        }
    }

    /// Add a follower to a tracked segment (no-op when already present).
    pub fn add_follower(&mut self, seg: SegmentId, node: NodeId) {
        if let Some(r) = self.segments.get_mut(&seg) {
            assert!(r.leader != node, "{seg}: follower {node} is the leader");
            if !r.followers.contains(&node) {
                r.followers.push(node);
            }
        }
    }

    /// Remove a follower from a tracked segment.
    pub fn remove_follower(&mut self, seg: SegmentId, node: NodeId) {
        if let Some(r) = self.segments.get_mut(&seg) {
            r.followers.retain(|&f| f != node);
        }
    }

    /// Stop tracking a segment (dropped table / merged segment).
    pub fn remove(&mut self, seg: SegmentId) {
        self.segments.remove(&seg);
    }

    /// Segments whose *leader* is `node` — the segments orphaned when the
    /// node fails, in id order.
    pub fn led_by(&self, node: NodeId) -> Vec<SegmentId> {
        self.segments
            .iter()
            .filter(|(_, r)| r.leader == node)
            .map(|(s, _)| s)
            .collect()
    }

    /// Segments for which `node` is a follower, in id order.
    pub fn followed_by(&self, node: NodeId) -> Vec<SegmentId> {
        self.segments
            .iter()
            .filter(|(_, r)| r.followers.contains(&node))
            .map(|(s, _)| s)
            .collect()
    }

    /// True if `leader` leads a segment `follower` follows: the leader
    /// must ship its log there.
    pub fn ships(&self, leader: NodeId, follower: NodeId) -> bool {
        let mut sets = self.segments.values();
        sets.any(|r| r.leader == leader && r.followers.contains(&follower))
    }

    /// True if `node` appears anywhere in the map (leader or follower).
    pub fn references(&self, node: NodeId) -> bool {
        self.segments.values().any(|r| r.contains(node))
    }

    /// Erase a failed node from every follower set (its led segments must
    /// be promoted first, via [`ReplicaMap::set_leader`]). Returns the
    /// segments that lost a follower — the re-replication work list.
    pub fn drop_follower_node(&mut self, node: NodeId) -> Vec<SegmentId> {
        let mut lost = Vec::new();
        for (seg, r) in self.segments.iter_mut() {
            let before = r.followers.len();
            r.followers.retain(|&f| f != node);
            if r.followers.len() != before {
                lost.push(seg);
            }
        }
        lost
    }

    /// Segments whose follower count is below `factor`, with their
    /// deficit, in id order — the re-replication backlog.
    pub fn under_replicated(&self, factor: usize) -> Vec<(SegmentId, usize)> {
        self.segments
            .iter()
            .filter(|(_, r)| r.followers.len() < factor)
            .map(|(s, r)| (s, factor - r.followers.len()))
            .collect()
    }
}

/// Pick the promotion winner among `candidates` — `(follower,
/// acknowledged LSN)` pairs read off the dead leader's shipping cursors:
/// the **most-caught-up** follower wins (highest acked LSN), ties broken
/// by lowest node id for determinism. `None` when there is no candidate.
pub fn pick_promotion(candidates: impl IntoIterator<Item = (NodeId, Lsn)>) -> Option<NodeId> {
    candidates
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(n, _)| n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(n: u64) -> SegmentId {
        SegmentId(n)
    }

    #[test]
    fn set_and_lookup() {
        let mut m = ReplicaMap::new();
        assert!(m.is_empty());
        m.set(seg(1), NodeId(1), vec![NodeId(2), NodeId(3)]);
        assert_eq!(m.leader_of(seg(1)), Some(NodeId(1)));
        assert_eq!(m.followers_of(seg(1)), &[NodeId(2), NodeId(3)]);
        assert_eq!(m.followers_of(seg(9)), &[] as &[NodeId]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "co-locates")]
    fn follower_never_co_locates_with_leader() {
        let mut m = ReplicaMap::new();
        m.set(seg(1), NodeId(1), vec![NodeId(1)]);
    }

    #[test]
    fn leadership_follows_migration() {
        let mut m = ReplicaMap::new();
        m.set(seg(1), NodeId(1), vec![NodeId(2), NodeId(3)]);
        // The segment migrates onto one of its followers: the follower
        // becomes leader and leaves the follower set.
        m.set_leader(seg(1), NodeId(2));
        assert_eq!(m.leader_of(seg(1)), Some(NodeId(2)));
        assert_eq!(m.followers_of(seg(1)), &[NodeId(3)]);
    }

    #[test]
    fn promotion_removes_the_dead_leader() {
        let mut m = ReplicaMap::new();
        m.set(seg(1), NodeId(1), vec![NodeId(2), NodeId(3)]);
        m.set_leader(seg(1), NodeId(3));
        assert_eq!(m.leader_of(seg(1)), Some(NodeId(3)));
        assert_eq!(m.followers_of(seg(1)), &[NodeId(2)]);
        assert!(
            !m.get(seg(1)).unwrap().contains(NodeId(1)),
            "dead ex-leader must not linger in the set"
        );
    }

    #[test]
    fn node_loss_worklists() {
        let mut m = ReplicaMap::new();
        m.set(seg(1), NodeId(1), vec![NodeId(2)]);
        m.set(seg(2), NodeId(1), vec![NodeId(3)]);
        m.set(seg(3), NodeId(2), vec![NodeId(1)]);
        assert_eq!(m.led_by(NodeId(1)), vec![seg(1), seg(2)]);
        assert_eq!(m.followed_by(NodeId(1)), vec![seg(3)]);
        assert!(m.references(NodeId(1)));
        m.set_leader(seg(1), NodeId(2));
        m.set_leader(seg(2), NodeId(3));
        let lost = m.drop_follower_node(NodeId(1));
        assert_eq!(lost, vec![seg(3)]);
        assert!(!m.references(NodeId(1)));
        // Factor 1 restored everywhere except the segment that lost its
        // follower.
        assert_eq!(
            m.under_replicated(1),
            vec![(seg(1), 1), (seg(2), 1), (seg(3), 1)]
        );
    }

    #[test]
    fn promotion_picks_max_lsn_then_lowest_id() {
        assert_eq!(pick_promotion([]), None);
        assert_eq!(
            pick_promotion([(NodeId(2), Lsn(5)), (NodeId(3), Lsn(9))]),
            Some(NodeId(3))
        );
        assert_eq!(
            pick_promotion([
                (NodeId(4), Lsn(7)),
                (NodeId(2), Lsn(7)),
                (NodeId(3), Lsn(7))
            ]),
            Some(NodeId(2))
        );
    }
}
