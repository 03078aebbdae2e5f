//! # WattDB-RS replica map: per-segment follower sets
//!
//! The paper's cluster keeps exactly one copy of every segment, so a node
//! loss is unrecoverable and a read hotspot can only be *moved*, never
//! fanned out. This crate adds the metadata half of the fix: a
//! [`ReplicaMap`] recording, per tracked segment, the **follower** nodes
//! fed from the leader's WAL via the existing `wattdb_wal::LogShipper`
//! path. A segment's **leader** is not recorded here: it is the segment's
//! owner in the master's catalog, the one record of where a segment lives,
//! which §4.3's hand-over updates.
//!
//! The map is pure bookkeeping — it holds no cluster state and performs no
//! I/O — so placement invariants (a follower never co-locates with the
//! owner it is placed for, promotion always picks the most-caught-up
//! follower) can be property-tested exhaustively. The cluster's one writer
//! of the map is `wattdb_core::replication`, which reads each leader off
//! the catalog and re-syncs the leaders' shipping cursors after every
//! mutation.

use wattdb_common::{DenseMap, Lsn, NodeId, SegmentId};

/// Map from each tracked segment to its follower nodes, in attachment
/// order.
#[derive(Debug, Clone, Default)]
pub struct ReplicaMap {
    /// Indexed by segment id: the read path asks for a segment's
    /// followers per operation. Walks are in id order.
    segments: DenseMap<SegmentId, Vec<NodeId>>,
}

impl ReplicaMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segment is tracked.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The segment's followers, `None` when it is not tracked.
    pub fn get(&self, seg: SegmentId) -> Option<&[NodeId]> {
        self.segments.get(&seg).map(Vec::as_slice)
    }

    /// The segment's followers (empty when untracked).
    pub fn followers_of(&self, seg: SegmentId) -> &[NodeId] {
        self.get(seg).unwrap_or(&[])
    }

    /// Iterate over all tracked segments and their followers, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SegmentId, &[NodeId])> {
        self.segments.iter().map(|(s, f)| (s, f.as_slice()))
    }

    /// Track a segment owned by `leader` with these followers (replacing
    /// any it had). A follower equal to the owner is a placement bug and
    /// panics.
    pub fn set(&mut self, seg: SegmentId, leader: NodeId, followers: Vec<NodeId>) {
        assert!(
            !followers.contains(&leader),
            "{seg}: follower set co-locates with leader {leader}"
        );
        self.segments.insert(seg, followers);
    }

    /// Add a follower to a tracked segment (no-op when already present).
    pub fn add_follower(&mut self, seg: SegmentId, node: NodeId) {
        if let Some(f) = self.segments.get_mut(&seg) {
            if !f.contains(&node) {
                f.push(node);
            }
        }
    }

    /// Remove a follower from a tracked segment; true if it was one.
    pub fn remove_follower(&mut self, seg: SegmentId, node: NodeId) -> bool {
        let Some(f) = self.segments.get_mut(&seg) else {
            return false;
        };
        let before = f.len();
        f.retain(|&n| n != node);
        f.len() != before
    }

    /// Segments for which `node` is a follower, in id order.
    pub fn followed_by(&self, node: NodeId) -> Vec<SegmentId> {
        self.iter()
            .filter(|(_, f)| f.contains(&node))
            .map(|(s, _)| s)
            .collect()
    }

    /// Segments whose follower count is below `factor`, with their
    /// deficit, in id order — the re-replication backlog.
    pub fn under_replicated(&self, factor: usize) -> Vec<(SegmentId, usize)> {
        self.iter()
            .filter(|(_, f)| f.len() < factor)
            .map(|(s, f)| (s, factor - f.len()))
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
        assert_eq!(m.get(seg(1)), Some(&[NodeId(2), NodeId(3)][..]));
        assert_eq!(m.get(seg(9)), None, "untracked");
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
        // The segment migrates onto one of its followers: that copy is
        // consumed and leaves the follower set. A move onto a node that
        // held no copy, or of an untracked segment, consumes nothing.
        assert!(m.remove_follower(seg(1), NodeId(2)));
        assert_eq!(m.followers_of(seg(1)), &[NodeId(3)]);
        assert!(!m.remove_follower(seg(1), NodeId(4)));
        assert!(!m.remove_follower(seg(9), NodeId(3)));
        assert_eq!(m.followers_of(seg(1)), &[NodeId(3)]);
    }

    #[test]
    fn promotion_removes_the_dead_leader() {
        // n1 owns segment 1 (followers n2, n3) and follows segment 2.
        let mut m = ReplicaMap::new();
        m.set(seg(1), NodeId(1), vec![NodeId(2), NodeId(3)]);
        m.set(seg(2), NodeId(2), vec![NodeId(1)]);
        // n1 dies: n3's copy of segment 1 is promoted (consumed), then
        // the corpse leaves every follower set.
        assert!(m.remove_follower(seg(1), NodeId(3)));
        assert_eq!(m.followed_by(NodeId(1)), vec![seg(2)]);
        assert!(m.remove_follower(seg(2), NodeId(1)));
        assert_eq!(m.followers_of(seg(1)), &[NodeId(2)]);
        assert!(
            m.followed_by(NodeId(1)).is_empty(),
            "dead ex-leader must not linger in the map"
        );
    }

    #[test]
    fn node_loss_worklists() {
        let mut m = ReplicaMap::new();
        m.set(seg(1), NodeId(1), vec![NodeId(2)]);
        m.set(seg(2), NodeId(1), vec![NodeId(3)]);
        m.set(seg(3), NodeId(2), vec![NodeId(1)]);
        assert_eq!(m.followed_by(NodeId(1)), vec![seg(3)]);
        // n1's two segments are promoted onto their followers.
        assert!(m.remove_follower(seg(1), NodeId(2)));
        assert!(m.remove_follower(seg(2), NodeId(3)));
        // The corpse's follower copies are the re-replication work list.
        let lost = m.followed_by(NodeId(1));
        assert_eq!(lost, vec![seg(3)]);
        lost.into_iter()
            .for_each(|s| assert!(m.remove_follower(s, NodeId(1))));
        assert!(m.followed_by(NodeId(1)).is_empty());
        // Factor 1 is short everywhere: two copies were consumed by the
        // promotions, one died with its host.
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
