//! The master's global partition table with dual pointers.
//!
//! "To identify all partitions relevant to a query, the master keeps a tree
//! with the primary-key ranges of all partitions. While re-partitioning,
//! both nodes, the sending and receiving, need to be accessed by queries to
//! determine which node currently claims ownership over the data. Therefore,
//! when repartitioning starts, the master is updated first, keeping pointers
//! to both, the old and new node. After repartitioning, the old pointer is
//! deleted." (§4.3, *Housekeeping on the master*)
//!
//! The router tracks ownership at key-range granularity. Moving a sub-range
//! splits the covering entry, flags the moving entry with both locations,
//! and `complete_move` collapses it to the new owner. Adjacent same-owner
//! entries are re-coalesced to keep the table small.

use std::collections::BTreeMap;

use wattdb_common::{DenseMap, Error, Key, KeyRange, NodeId, PartitionId, Result, TableId};

/// Where a key range lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Owning partition.
    pub partition: PartitionId,
    /// Node evaluating queries for that partition.
    pub node: NodeId,
}

/// One routing entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Covered key range.
    pub range: KeyRange,
    /// Current owner (the *old* location while a move is in flight).
    pub owner: Location,
    /// Destination while a move is in flight — the second pointer.
    pub moving_to: Option<Location>,
}

impl RouteEntry {
    /// True if this range is mid-move.
    pub fn is_moving(&self) -> bool {
        self.moving_to.is_some()
    }
}

/// Routing decision for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteResult {
    /// Authoritative location to try first.
    pub primary: Location,
    /// Second location to consult during a move (§4.3 correctness window).
    pub also: Option<Location>,
}

/// Global key-range → location table for all tables. Table ids are a
/// handful of small numbers, so the per-table level is an index; the range
/// level under it is the ordered map a floor lookup needs.
#[derive(Debug, Default)]
pub struct GlobalRouter {
    tables: DenseMap<TableId, BTreeMap<u64, RouteEntry>>,
}

impl GlobalRouter {
    /// Empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table (idempotent).
    pub fn create_table(&mut self, table: TableId) {
        self.tables.get_or_insert_with(table, BTreeMap::new);
    }

    fn table_mut(&mut self, table: TableId) -> Result<&mut BTreeMap<u64, RouteEntry>> {
        self.tables
            .get_mut(&table)
            .ok_or(Error::InvalidState("unknown table in router"))
    }

    fn table(&self, table: TableId) -> Result<&BTreeMap<u64, RouteEntry>> {
        self.tables
            .get(&table)
            .ok_or(Error::InvalidState("unknown table in router"))
    }

    /// Assign `range` to a location, replacing whatever covered it. Used for
    /// initial partitioning; fails if `range` only partially overlaps an
    /// in-flight move.
    pub fn assign(
        &mut self,
        table: TableId,
        range: KeyRange,
        partition: PartitionId,
        node: NodeId,
    ) -> Result<()> {
        if range.is_empty() {
            return Err(Error::InvalidState("empty range assignment"));
        }
        let (entries, covered) = self.carve(table, range)?;
        for k in covered {
            let e = entries.remove(&k).expect("present");
            if e.is_moving() {
                entries.insert(k, e);
                return Err(Error::InvalidState("assignment over in-flight move"));
            }
        }
        entries.insert(
            range.start.raw(),
            RouteEntry {
                range,
                owner: Location { partition, node },
                moving_to: None,
            },
        );
        Ok(())
    }

    /// Carve `range` out of `table`: put an entry boundary at each of its
    /// ends, then return the table and the keys of the entries inside it.
    fn carve(
        &mut self,
        table: TableId,
        range: KeyRange,
    ) -> Result<(&mut BTreeMap<u64, RouteEntry>, Vec<u64>)> {
        self.split_at(table, range.start)?;
        self.split_at(table, range.end)?;
        let entries = self.table_mut(table)?;
        let inside = entries
            .range(range.start.raw()..range.end.raw())
            .map(|(k, _)| *k)
            .collect();
        Ok((entries, inside))
    }

    /// Ensure an entry boundary exists at `at` (splitting a straddling
    /// entry). Splitting preserves the move state on both halves.
    fn split_at(&mut self, table: TableId, at: Key) -> Result<()> {
        let entries = self.table_mut(table)?;
        let straddler = entries
            .range(..at.raw())
            .next_back()
            .filter(|(_, e)| e.range.contains(at))
            .map(|(k, _)| *k);
        if let Some(k) = straddler {
            let mut e = entries.remove(&k).expect("present");
            let (lo, hi) = e.range.split_at(at).expect("strictly inside");
            e.range = lo;
            let mut right = e;
            right.range = hi;
            entries.insert(lo.start.raw(), e);
            entries.insert(hi.start.raw(), right);
        }
        Ok(())
    }

    /// Route a key. Returns the owner plus the second pointer when the range
    /// is mid-move.
    pub fn route(&self, table: TableId, key: Key) -> Result<RouteResult> {
        let entries = self.table(table)?;
        let (_, e) = entries
            .range(..=key.raw())
            .next_back()
            .filter(|(_, e)| e.range.contains(key))
            .ok_or(Error::KeyNotFound(key))?;
        Ok(RouteResult {
            primary: e.owner,
            also: e.moving_to,
        })
    }

    /// Start moving `range` to a new location: master updated *first*,
    /// keeping both pointers.
    pub fn begin_move(
        &mut self,
        table: TableId,
        range: KeyRange,
        to_partition: PartitionId,
        to_node: NodeId,
    ) -> Result<()> {
        let (entries, keys) = self.carve(table, range)?;
        if keys.is_empty() {
            return Err(Error::KeyNotFound(range.start));
        }
        for k in &keys {
            let e = entries.get(k).expect("present");
            if e.is_moving() {
                return Err(Error::InvalidState("range already moving"));
            }
        }
        for k in keys {
            let e = entries.get_mut(&k).expect("present");
            e.moving_to = Some(Location {
                partition: to_partition,
                node: to_node,
            });
        }
        Ok(())
    }

    /// Finish a move: the old pointer is deleted, the new location becomes
    /// the owner, and adjacent same-owner entries coalesce. `range` may be
    /// any part of a move in flight.
    pub fn complete_move(&mut self, table: TableId, range: KeyRange) -> Result<()> {
        {
            let (entries, keys) = self.carve(table, range)?;
            if keys.is_empty() {
                return Err(Error::KeyNotFound(range.start));
            }
            for k in keys {
                let e = entries.get_mut(&k).expect("present");
                let dest = e
                    .moving_to
                    .take()
                    .ok_or(Error::InvalidState("complete_move without begin_move"))?;
                e.owner = dest;
            }
        }
        self.coalesce(table)
    }

    /// Abort a move: drop the second pointer, ownership stays put. `range`
    /// may be any part of a move in flight.
    pub fn abort_move(&mut self, table: TableId, range: KeyRange) -> Result<()> {
        let (entries, keys) = self.carve(table, range)?;
        for k in keys {
            entries.get_mut(&k).expect("present").moving_to = None;
        }
        self.coalesce(table)
    }

    /// Merge adjacent entries with identical owner and no in-flight move.
    pub fn coalesce(&mut self, table: TableId) -> Result<()> {
        let entries = self.table_mut(table)?;
        let mut merged: BTreeMap<u64, RouteEntry> = BTreeMap::new();
        for (_, e) in std::mem::take(entries) {
            match merged.iter_mut().next_back() {
                Some((_, prev))
                    if prev.range.end == e.range.start
                        && prev.owner == e.owner
                        && prev.moving_to.is_none()
                        && e.moving_to.is_none() =>
                {
                    prev.range.end = e.range.end;
                }
                _ => {
                    merged.insert(e.range.start.raw(), e);
                }
            }
        }
        *entries = merged;
        Ok(())
    }

    /// All entries of a table in key order.
    pub fn entries(&self, table: TableId) -> Result<Vec<RouteEntry>> {
        Ok(self.table(table)?.values().copied().collect())
    }

    /// Entries of a table whose ranges intersect `query` (partition
    /// pruning at the master).
    pub fn prune(&self, table: TableId, query: KeyRange) -> Result<Vec<RouteEntry>> {
        let entries = self.table(table)?;
        let mut out = Vec::new();
        if let Some((_, e)) = entries.range(..query.start.raw()).next_back() {
            if e.range.overlaps(&query) {
                out.push(*e);
            }
        }
        for (_, e) in entries.range(query.start.raw()..query.end.raw()) {
            if e.range.overlaps(&query) {
                out.push(*e);
            }
        }
        Ok(out)
    }

    /// Nodes referenced by any entry of any table (active data holders).
    pub fn nodes_with_data(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .tables
            .values()
            .flat_map(|t| t.values())
            .flat_map(|e| std::iter::once(e.owner.node).chain(e.moving_to.map(|l| l.node)))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(1);

    fn kr(a: u64, b: u64) -> KeyRange {
        KeyRange::new(Key(a), Key(b))
    }

    fn loc(p: u64, n: u16) -> Location {
        Location {
            partition: PartitionId(p),
            node: NodeId(n),
        }
    }

    fn router() -> GlobalRouter {
        let mut r = GlobalRouter::new();
        r.create_table(T);
        r.assign(T, kr(0, 1000), PartitionId(1), NodeId(1)).unwrap();
        r
    }

    #[test]
    fn route_simple() {
        let r = router();
        let res = r.route(T, Key(500)).unwrap();
        assert_eq!(res.primary, loc(1, 1));
        assert_eq!(res.also, None);
        assert!(r.route(T, Key(1000)).is_err());
    }

    #[test]
    fn move_keeps_both_pointers_then_collapses() {
        let mut r = router();
        r.begin_move(T, kr(500, 1000), PartitionId(2), NodeId(2))
            .unwrap();
        // During the move: both pointers visible (§4.3).
        let res = r.route(T, Key(700)).unwrap();
        assert_eq!(res.primary, loc(1, 1));
        assert_eq!(res.also, Some(loc(2, 2)));
        // Keys outside the moving range are unaffected.
        let res = r.route(T, Key(100)).unwrap();
        assert_eq!(res.also, None);
        // Complete: old pointer deleted.
        r.complete_move(T, kr(500, 1000)).unwrap();
        let res = r.route(T, Key(700)).unwrap();
        assert_eq!(res.primary, loc(2, 2));
        assert_eq!(res.also, None);
    }

    #[test]
    fn abort_restores_single_owner() {
        let mut r = router();
        r.begin_move(T, kr(0, 500), PartitionId(2), NodeId(2))
            .unwrap();
        r.abort_move(T, kr(0, 500)).unwrap();
        let res = r.route(T, Key(100)).unwrap();
        assert_eq!(res.primary, loc(1, 1));
        assert_eq!(res.also, None);
        // Fully coalesced back to one entry.
        assert_eq!(r.entries(T).unwrap().len(), 1);
    }

    #[test]
    fn a_move_lands_in_pieces_around_a_slice_left_behind() {
        let mut r = router();
        r.begin_move(T, kr(0, 500), PartitionId(2), NodeId(2))
            .unwrap();
        r.complete_move(T, kr(0, 200)).unwrap();
        r.abort_move(T, kr(200, 201)).unwrap();
        r.complete_move(T, kr(201, 500)).unwrap();
        let owner = |k| r.route(T, Key(k)).unwrap();
        assert_eq!((owner(199).primary, owner(199).also), (loc(2, 2), None));
        assert_eq!((owner(200).primary, owner(200).also), (loc(1, 1), None));
        assert_eq!((owner(201).primary, owner(201).also), (loc(2, 2), None));
        let ranges: Vec<KeyRange> = r.entries(T).unwrap().iter().map(|e| e.range).collect();
        assert_eq!(
            ranges,
            vec![kr(0, 200), kr(200, 201), kr(201, 500), kr(500, 1000)]
        );
    }

    #[test]
    fn double_move_rejected() {
        let mut r = router();
        r.begin_move(T, kr(0, 500), PartitionId(2), NodeId(2))
            .unwrap();
        assert!(r
            .begin_move(T, kr(250, 750), PartitionId(3), NodeId(3))
            .is_err());
    }

    #[test]
    fn splits_are_exact() {
        let mut r = router();
        r.begin_move(T, kr(300, 400), PartitionId(2), NodeId(2))
            .unwrap();
        let entries = r.entries(T).unwrap();
        let ranges: Vec<KeyRange> = entries.iter().map(|e| e.range).collect();
        assert_eq!(ranges, vec![kr(0, 300), kr(300, 400), kr(400, 1000)]);
        assert!(entries[1].is_moving());
        assert!(!entries[0].is_moving());
    }

    #[test]
    fn coalesce_after_completion() {
        let mut r = router();
        // Move the middle out and back; after returning, the table should
        // collapse to a single entry again.
        r.begin_move(T, kr(300, 400), PartitionId(2), NodeId(2))
            .unwrap();
        r.complete_move(T, kr(300, 400)).unwrap();
        assert_eq!(r.entries(T).unwrap().len(), 3);
        r.begin_move(T, kr(300, 400), PartitionId(1), NodeId(1))
            .unwrap();
        r.complete_move(T, kr(300, 400)).unwrap();
        assert_eq!(r.entries(T).unwrap().len(), 1);
    }

    #[test]
    fn pruning_at_master() {
        let mut r = router();
        r.assign(T, kr(500, 1000), PartitionId(2), NodeId(2))
            .unwrap();
        let hit = r.prune(T, kr(400, 600)).unwrap();
        assert_eq!(hit.len(), 2);
        let hit = r.prune(T, kr(0, 100)).unwrap();
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].owner, loc(1, 1));
    }

    #[test]
    fn nodes_with_data_includes_move_target() {
        let mut r = router();
        assert_eq!(r.nodes_with_data(), vec![NodeId(1)]);
        r.begin_move(T, kr(0, 500), PartitionId(2), NodeId(7))
            .unwrap();
        assert_eq!(r.nodes_with_data(), vec![NodeId(1), NodeId(7)]);
    }

    #[test]
    fn assignment_over_move_rejected() {
        let mut r = router();
        r.begin_move(T, kr(0, 500), PartitionId(2), NodeId(2))
            .unwrap();
        assert!(r.assign(T, kr(0, 250), PartitionId(3), NodeId(3)).is_err());
    }
}
