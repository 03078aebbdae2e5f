//! Log shipping to replica followers.
//!
//! A segment's leader streams its durable log tail to the nodes holding
//! follower copies, which apply it and acknowledge; a follower that has
//! acknowledged far enough serves reads, and the most-acknowledged one is
//! promoted when the leader dies. The [`LogShipper`] tracks, per
//! follower, how far one node's log has been shipped and acknowledged;
//! the cluster layer charges the network costs.
//!
//! Nobody waits on an acknowledgement, so it is no event: it is booked at
//! the [`Rank`] its delivery has when its batch is sent, and it lands when
//! a reader ranked at or after that settles the shipper.

use wattdb_common::{Lsn, NodeId, Rank};

use crate::log::LogManager;

/// Per-follower shipping cursor over one node's log.
#[derive(Debug, Default)]
pub struct LogShipper {
    /// `(follower, shipped up to, acknowledged up to)`, sorted by follower.
    /// A node ships to a handful of followers: a scan finds one, and the
    /// flush path walks them by position without copying the list.
    cursors: Vec<(NodeId, Lsn, Lsn)>,
    /// Acknowledgements booked and not landed, `(rank, follower, through)`
    /// in arrival order.
    in_flight: Vec<(Rank, NodeId, Lsn)>,
    shipped_bytes: u64,
}

impl LogShipper {
    /// No followers attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a follower starting from the log's current end (it does not
    /// need history — shipping covers new traffic only).
    pub fn attach(&mut self, follower: NodeId, log: &LogManager) {
        if let Err(at) = self.cursors.binary_search_by_key(&follower, |c| c.0) {
            let end = log.last_lsn();
            self.cursors.insert(at, (follower, end, end));
        }
    }

    /// Detach a follower (its copies promoted, re-homed or dropped). An
    /// acknowledgement in flight to it lands on nothing.
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
        let (_, shipped, _) = self.cursors.iter_mut().find(|c| c.0 == follower)?;
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

    /// `follower` will confirm persistence through `through` at `rank`:
    /// the batch just shipped to it lands then.
    pub fn book_ack(&mut self, follower: NodeId, through: Lsn, rank: Rank) {
        let at = self.in_flight.partition_point(|a| a.0 <= rank);
        self.in_flight.insert(at, (rank, follower, through));
    }

    /// Land every acknowledgement ranked at or before `reader`: each
    /// follower still attached has persisted through its LSN.
    pub fn settle(&mut self, reader: Rank) {
        let landed = self.in_flight.partition_point(|a| a.0 <= reader);
        for (_, follower, through) in self.in_flight.drain(..landed) {
            if let Some(c) = self.cursors.iter_mut().find(|c| c.0 == follower) {
                c.2 = c.2.max(through);
            }
        }
    }

    /// Void the acknowledgements in flight to the followers `lost` picks:
    /// they never land.
    pub fn void(&mut self, mut lost: impl FnMut(NodeId) -> bool) {
        self.in_flight.retain(|a| !lost(a.1));
    }

    /// Total bytes shipped.
    pub fn shipped_bytes(&self) -> u64 {
        self.shipped_bytes
    }

    /// Highest LSN shipped to `follower` (in flight or acknowledged).
    pub fn shipped_lsn(&self, follower: NodeId) -> Option<Lsn> {
        self.cursors.iter().find(|c| c.0 == follower).map(|c| c.1)
    }

    /// Highest LSN `follower` has acknowledged as persisted, as of the
    /// last [`LogShipper::settle`] — the bound on how stale a read served
    /// by that follower can be.
    pub fn acked_lsn(&self, follower: NodeId) -> Option<Lsn> {
        self.cursors.iter().find(|c| c.0 == follower).map(|c| c.2)
    }

    /// How many log records `follower` is behind the log's end
    /// (unacknowledged tail). Zero means fully caught up.
    pub fn lag(&self, follower: NodeId, log: &LogManager) -> Option<u64> {
        let acked = self.acked_lsn(follower)?;
        Some(log.last_lsn().raw().saturating_sub(acked.raw()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogPayload, LOG_HEADER_BYTES};
    use wattdb_common::TxnId;

    use wattdb_common::SimTime;

    /// Where an acknowledgement due at `us` µs lands, and a reader just
    /// before it.
    fn at(us: u64) -> Rank {
        Rank::end_of(SimTime::from_micros(us))
    }

    fn before(us: u64) -> Rank {
        Rank::end_of(SimTime::from_micros(us - 1))
    }

    /// Book `follower`'s acknowledgement through `lsn` and land it.
    fn ack(shipper: &mut LogShipper, follower: NodeId, lsn: Lsn) {
        shipper.book_ack(follower, lsn, at(1));
        shipper.settle(at(1));
    }

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
        // The acknowledgement lands at its rank, not before.
        shipper.book_ack(follower, Lsn(3), at(450));
        shipper.settle(before(450));
        assert_eq!(shipper.acked_lsn(follower), Some(Lsn::ZERO));
        shipper.settle(at(450));
        assert_eq!(shipper.acked_lsn(follower), Some(Lsn(3)));
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
        // Booked out of follower order, they land in arrival order; one
        // to a follower detached meanwhile lands on nothing.
        shipper.book_ack(NodeId(6), Lsn(2), at(30));
        shipper.book_ack(NodeId(5), Lsn(4), at(20));
        shipper.book_ack(NodeId(6), Lsn(4), at(40));
        shipper.settle(at(20));
        assert_eq!(shipper.acked_lsn(NodeId(5)), Some(Lsn(4)));
        assert_eq!(shipper.acked_lsn(NodeId(6)), Some(Lsn::ZERO));
        shipper.settle(at(30));
        assert_eq!(shipper.acked_lsn(NodeId(6)), Some(Lsn(2)));
        shipper.detach(NodeId(6));
        shipper.settle(at(40));
        assert_eq!(shipper.followers(), vec![NodeId(5)]);
        assert_eq!(shipper.acked_lsn(NodeId(6)), None);
        // A void drops what is in flight to the followers it picks.
        log.append(TxnId(5), LogPayload::Commit);
        shipper.take_batch(NodeId(5), &log);
        shipper.book_ack(NodeId(5), Lsn(5), at(60));
        shipper.void(|f| f == NodeId(5));
        shipper.settle(at(60));
        assert_eq!(shipper.acked_lsn(NodeId(5)), Some(Lsn(4)));
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
        ack(&mut shipper, NodeId(5), Lsn(3));
        ack(&mut shipper, NodeId(6), Lsn(5));
        assert_eq!(shipper.lag(NodeId(5), &log), Some(3));
        assert_eq!(shipper.lag(NodeId(6), &log), Some(1));
        let cursor = |f| (shipper.shipped_lsn(f), shipper.acked_lsn(f));
        assert_eq!(cursor(NodeId(5)), (Some(Lsn(6)), Some(Lsn(3))));
        assert_eq!(cursor(NodeId(6)), (Some(Lsn(6)), Some(Lsn(5))));
        // Unknown follower: no cursor, no lag.
        assert_eq!(shipper.lag(NodeId(9), &log), None);
        assert_eq!(shipper.acked_lsn(NodeId(9)), None);
    }
}
