//! Log shipping to replica followers.
//!
//! A segment's leader streams its durable log tail to the nodes holding
//! follower copies, which apply it and acknowledge; a follower that has
//! acknowledged far enough serves reads, and the most-acknowledged one is
//! promoted when the leader dies. The [`LogShipper`] tracks, per
//! follower, how far one node's log has been shipped and acknowledged;
//! the cluster layer charges the network costs.

use wattdb_common::{Lsn, NodeId};

use crate::log::LogManager;

/// Per-follower shipping cursor over one node's log.
#[derive(Debug, Default)]
pub struct LogShipper {
    /// `(follower, shipped up to, acknowledged up to)`, sorted by follower.
    /// A node ships to a handful of followers: a scan finds one, and the
    /// flush path walks them by position without copying the list.
    cursors: Vec<(NodeId, Lsn, Lsn)>,
    shipped_bytes: u64,
}

impl LogShipper {
    /// No followers attached.
    pub fn new() -> Self {
        Self::default()
    }

    fn cursor(&self, follower: NodeId) -> Option<&(NodeId, Lsn, Lsn)> {
        self.cursors.iter().find(|c| c.0 == follower)
    }

    fn cursor_mut(&mut self, follower: NodeId) -> Option<&mut (NodeId, Lsn, Lsn)> {
        self.cursors.iter_mut().find(|c| c.0 == follower)
    }

    /// Attach a follower starting from the log's current end (it does not
    /// need history — shipping covers new traffic only).
    pub fn attach(&mut self, follower: NodeId, log: &LogManager) {
        if let Err(at) = self.cursors.binary_search_by_key(&follower, |c| c.0) {
            let end = log.last_lsn();
            self.cursors.insert(at, (follower, end, end));
        }
    }

    /// Detach a follower (its copies promoted, re-homed or dropped).
    pub fn detach(&mut self, follower: NodeId) {
        self.cursors.retain(|c| c.0 != follower);
    }

    /// Attached followers, in id order.
    pub fn followers(&self) -> Vec<NodeId> {
        self.cursors.iter().map(|c| c.0).collect()
    }

    /// The `i`-th attached follower in id order, `None` past the last: the
    /// flush path's walk, which ships to each follower as it goes.
    pub fn follower_at(&self, i: usize) -> Option<NodeId> {
        self.cursors.get(i).map(|c| c.0)
    }

    /// Ship the records not yet shipped to `follower`: marks them shipped
    /// (in flight) and returns their total byte size, `None` when there is
    /// nothing to ship.
    pub fn take_batch(&mut self, follower: NodeId, log: &LogManager) -> Option<usize> {
        let (_, shipped, _) = self.cursor_mut(follower)?;
        let bytes = log.bytes_after(*shipped)?;
        *shipped = log.last_lsn();
        self.shipped_bytes += bytes as u64;
        Some(bytes)
    }

    /// The slowest follower's shipping cursor: no record at or below it
    /// will be read again, so the log may drop them once durable. `None`
    /// with no followers attached.
    pub fn min_shipped(&self) -> Option<Lsn> {
        self.cursors.iter().map(|c| c.1).min()
    }

    /// Follower confirmed persistence up to `lsn`. Returns the new minimum
    /// acknowledged LSN across followers — records up to it are remotely
    /// durable.
    pub fn acknowledge(&mut self, follower: NodeId, lsn: Lsn) -> Option<Lsn> {
        let (_, _, acked) = self.cursor_mut(follower)?;
        if lsn > *acked {
            *acked = lsn;
        }
        self.cursors.iter().map(|c| c.2).min()
    }

    /// Total bytes shipped.
    pub fn shipped_bytes(&self) -> u64 {
        self.shipped_bytes
    }

    /// Highest LSN shipped to `follower` (in flight or acknowledged).
    pub fn shipped_lsn(&self, follower: NodeId) -> Option<Lsn> {
        self.cursor(follower).map(|c| c.1)
    }

    /// Highest LSN `follower` has acknowledged as persisted — the bound on
    /// how stale a read served by that follower can be.
    pub fn acked_lsn(&self, follower: NodeId) -> Option<Lsn> {
        self.cursor(follower).map(|c| c.2)
    }

    /// How many log records `follower` is behind the log's end
    /// (unacknowledged tail). Zero means fully caught up.
    pub fn lag(&self, follower: NodeId, log: &LogManager) -> Option<u64> {
        let acked = self.acked_lsn(follower)?;
        Some(log.last_lsn().raw().saturating_sub(acked.raw()))
    }

    /// All shipping cursors, sorted by follower id:
    /// `(follower, shipped, acked)`.
    pub fn cursors(&self) -> Vec<(NodeId, Lsn, Lsn)> {
        self.cursors.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogPayload, LOG_HEADER_BYTES};
    use wattdb_common::TxnId;

    #[test]
    fn ship_and_acknowledge() {
        let mut log = LogManager::new();
        let mut shipper = LogShipper::new();
        let follower = NodeId(5);
        shipper.attach(follower, &log);
        assert_eq!(shipper.followers(), vec![follower]);
        // New traffic arrives.
        for t in 1..=3u64 {
            log.append(TxnId(t), LogPayload::Commit);
        }
        let bytes = shipper.take_batch(follower, &log).unwrap();
        assert_eq!(bytes, 3 * LOG_HEADER_BYTES);
        assert_eq!(shipper.shipped_lsn(follower), Some(Lsn(3)));
        // Nothing more to ship until new appends.
        assert!(shipper.take_batch(follower, &log).is_none());
        let durable = shipper.acknowledge(follower, Lsn(3)).unwrap();
        assert_eq!(durable, Lsn(3));
    }

    #[test]
    fn attach_skips_history() {
        let mut log = LogManager::new();
        for t in 1..=10u64 {
            log.append(TxnId(t), LogPayload::Commit);
        }
        let mut shipper = LogShipper::new();
        shipper.attach(NodeId(5), &log);
        assert!(shipper.take_batch(NodeId(5), &log).is_none());
        log.append(TxnId(11), LogPayload::Commit);
        let bytes = shipper.take_batch(NodeId(5), &log).unwrap();
        assert_eq!(bytes, LOG_HEADER_BYTES, "the one new record, not history");
        assert_eq!(shipper.shipped_lsn(NodeId(5)), Some(Lsn(11)));
    }

    #[test]
    fn min_ack_across_followers() {
        let mut log = LogManager::new();
        let mut shipper = LogShipper::new();
        shipper.attach(NodeId(5), &log);
        shipper.attach(NodeId(6), &log);
        for t in 1..=4u64 {
            log.append(TxnId(t), LogPayload::Commit);
        }
        shipper.take_batch(NodeId(5), &log);
        shipper.take_batch(NodeId(6), &log);
        assert_eq!(shipper.acknowledge(NodeId(5), Lsn(4)), Some(Lsn::ZERO));
        assert_eq!(shipper.acknowledge(NodeId(6), Lsn(2)), Some(Lsn(2)));
        shipper.detach(NodeId(6));
        assert_eq!(shipper.acknowledge(NodeId(5), Lsn(4)), Some(Lsn(4)));
        assert_eq!(shipper.followers(), vec![NodeId(5)]);
    }

    #[test]
    fn lag_and_catch_up_accounting() {
        let mut log = LogManager::new();
        let mut shipper = LogShipper::new();
        shipper.attach(NodeId(5), &log);
        shipper.attach(NodeId(6), &log);
        for t in 1..=6u64 {
            log.append(TxnId(t), LogPayload::Commit);
        }
        // Nothing shipped yet: both followers lag by the full tail.
        assert_eq!(shipper.lag(NodeId(5), &log), Some(6));
        assert_eq!(shipper.acked_lsn(NodeId(5)), Some(Lsn::ZERO));
        shipper.take_batch(NodeId(5), &log);
        shipper.take_batch(NodeId(6), &log);
        assert_eq!(shipper.shipped_lsn(NodeId(5)), Some(Lsn(6)));
        // Acks diverge: node 6 persisted further.
        shipper.acknowledge(NodeId(5), Lsn(3));
        shipper.acknowledge(NodeId(6), Lsn(5));
        assert_eq!(shipper.lag(NodeId(5), &log), Some(3));
        assert_eq!(shipper.lag(NodeId(6), &log), Some(1));
        assert_eq!(
            shipper.cursors(),
            vec![(NodeId(5), Lsn(6), Lsn(3)), (NodeId(6), Lsn(6), Lsn(5)),]
        );
        // Unknown follower: no cursor, no lag.
        assert_eq!(shipper.lag(NodeId(9), &log), None);
        assert_eq!(shipper.acked_lsn(NodeId(9)), None);
    }
}
