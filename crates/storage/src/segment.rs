//! Segments: the unit of physical distribution.
//!
//! "A segment (32 MB) consists of 4096 blocks or pages, which are
//! consecutively stored on disk. Segments are the unit of distribution in
//! the storage subsystem. Hence, all pages in a segment will be copied/moved
//! among nodes in one batch." (§4)
//!
//! Under *physiological* partitioning each segment additionally carries its
//! own primary-key range (a mini-partition); that range lives here as
//! metadata, while the per-segment PK index lives in `wattdb-index`.

use wattdb_common::{
    ByteSize, DenseMap, DiskId, Error, KeyRange, NodeId, Result, SegmentId, TableId,
};

use crate::page::PAGE_SIZE;

/// Number of pages per segment in the paper's configuration.
pub const SEGMENT_PAGES_DEFAULT: u32 = 4096;

/// Metadata for one segment.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Segment id (globally unique).
    pub id: SegmentId,
    /// Table whose records this segment stores.
    pub table: TableId,
    /// Node that currently *stores* the segment's pages.
    pub node: NodeId,
    /// Drive on that node.
    pub disk: DiskId,
    /// Mini-partition key range (physiological partitioning); `None` under
    /// purely physical placement where segments have no key meaning.
    pub key_range: Option<KeyRange>,
    /// Maximum pages this segment may hold.
    pub max_pages: u32,
    /// Pages currently allocated.
    pub allocated_pages: u32,
    /// Live records across all pages.
    pub records: u64,
    /// Logical bytes in use (what would occupy a real disk).
    pub logical_bytes: ByteSize,
}

impl SegmentMeta {
    /// Segment capacity in logical bytes.
    pub fn capacity(&self) -> ByteSize {
        ByteSize::bytes(self.max_pages as u64 * PAGE_SIZE as u64)
    }

    /// Logical bytes the segment occupies on disk: allocated pages count in
    /// full (pages are the disk allocation granularity).
    pub fn disk_footprint(&self) -> ByteSize {
        ByteSize::bytes(self.allocated_pages as u64 * PAGE_SIZE as u64)
    }

    /// Fill ratio of allocated pages vs. capacity.
    pub fn fill_ratio(&self) -> f64 {
        self.allocated_pages as f64 / self.max_pages as f64
    }
}

/// The catalog of all segments in the cluster (maintained by the master,
/// mirrored read-only on workers in a real deployment). It mints the
/// segment ids, densely from zero, so it is itself indexed by them; walks
/// are in id order.
#[derive(Debug, Default)]
pub struct SegmentDirectory {
    next_id: u64,
    segments: DenseMap<SegmentId, SegmentMeta>,
}

impl SegmentDirectory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a new segment on `node`/`disk` for `table`.
    pub fn create(
        &mut self,
        table: TableId,
        node: NodeId,
        disk: DiskId,
        key_range: Option<KeyRange>,
        max_pages: u32,
    ) -> SegmentId {
        let id = SegmentId(self.next_id);
        self.next_id += 1;
        self.segments.insert(
            id,
            SegmentMeta {
                id,
                table,
                node,
                disk,
                key_range,
                max_pages,
                allocated_pages: 0,
                records: 0,
                logical_bytes: ByteSize::ZERO,
            },
        );
        id
    }

    /// Look up a segment.
    pub fn get(&self, id: SegmentId) -> Result<&SegmentMeta> {
        self.segments.get(&id).ok_or(Error::UnknownSegment(id))
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: SegmentId) -> Result<&mut SegmentMeta> {
        self.segments.get_mut(&id).ok_or(Error::UnknownSegment(id))
    }

    /// Remove a segment (after its data has been dropped/moved).
    pub fn remove(&mut self, id: SegmentId) -> Result<SegmentMeta> {
        self.segments.remove(&id).ok_or(Error::UnknownSegment(id))
    }

    /// Reassign a segment's storage location (physical move) — page data
    /// movement and timing are handled by the migration engine.
    pub fn relocate(&mut self, id: SegmentId, node: NodeId, disk: DiskId) -> Result<()> {
        let m = self.get_mut(id)?;
        m.node = node;
        m.disk = disk;
        Ok(())
    }

    /// All segments of a table, in id order.
    pub fn of_table(&self, table: TableId) -> impl Iterator<Item = &SegmentMeta> + '_ {
        self.segments.values().filter(move |m| m.table == table)
    }

    /// All segments stored on a node.
    pub fn on_node(&self, node: NodeId) -> impl Iterator<Item = &SegmentMeta> + '_ {
        self.segments.values().filter(move |m| m.node == node)
    }

    /// Total number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if no segments exist.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Iterate all segments in id order.
    pub fn iter(&self) -> impl Iterator<Item = &SegmentMeta> + '_ {
        self.segments.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattdb_common::Key;

    fn disk(n: u16) -> DiskId {
        DiskId::new(NodeId(n), 0)
    }

    #[test]
    fn create_and_lookup() {
        let mut dir = SegmentDirectory::new();
        let id = dir.create(TableId(1), NodeId(1), disk(1), None, 128);
        let m = dir.get(id).unwrap();
        assert_eq!(m.table, TableId(1));
        assert_eq!(m.node, NodeId(1));
        assert_eq!(m.allocated_pages, 0);
        assert!(dir.get(SegmentId(99)).is_err());
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut dir = SegmentDirectory::new();
        let a = dir.create(TableId(1), NodeId(1), disk(1), None, 16);
        let b = dir.create(TableId(1), NodeId(1), disk(1), None, 16);
        assert!(b > a);
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn relocate_changes_storage_location() {
        let mut dir = SegmentDirectory::new();
        let id = dir.create(TableId(1), NodeId(1), disk(1), None, 16);
        dir.relocate(id, NodeId(2), disk(2)).unwrap();
        let m = dir.get(id).unwrap();
        assert_eq!(m.node, NodeId(2));
        assert_eq!(m.disk, disk(2));
    }

    #[test]
    fn filters_by_table_and_node() {
        let mut dir = SegmentDirectory::new();
        dir.create(TableId(1), NodeId(1), disk(1), None, 16);
        dir.create(TableId(2), NodeId(1), disk(1), None, 16);
        dir.create(TableId(1), NodeId(2), disk(2), None, 16);
        assert_eq!(dir.of_table(TableId(1)).count(), 2);
        assert_eq!(dir.on_node(NodeId(1)).count(), 2);
        assert_eq!(dir.on_node(NodeId(3)).count(), 0);
    }

    #[test]
    fn key_range_metadata() {
        let mut dir = SegmentDirectory::new();
        let kr = KeyRange::new(Key(0), Key(1000));
        let id = dir.create(TableId(1), NodeId(1), disk(1), Some(kr), 16);
        assert_eq!(dir.get(id).unwrap().key_range, Some(kr));
    }

    #[test]
    fn footprint_math() {
        let mut dir = SegmentDirectory::new();
        let id = dir.create(TableId(1), NodeId(1), disk(1), None, SEGMENT_PAGES_DEFAULT);
        let m = dir.get_mut(id).unwrap();
        m.allocated_pages = 2048;
        assert_eq!(m.capacity(), ByteSize::mib(32));
        assert_eq!(m.disk_footprint(), ByteSize::mib(16));
        assert!((m.fill_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn remove() {
        let mut dir = SegmentDirectory::new();
        let id = dir.create(TableId(1), NodeId(1), disk(1), None, 16);
        assert!(dir.remove(id).is_ok());
        assert!(dir.remove(id).is_err());
        assert!(dir.is_empty());
    }
}
