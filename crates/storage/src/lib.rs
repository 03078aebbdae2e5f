//! Storage engine for WattDB-RS: pages, records, segments, disks, buffers.
//!
//! Implements the physical layer of Fig. 4 in the paper: tables consist of
//! partitions, partitions of segments (4096 pages / 32 MB), segments of
//! slotted pages holding versioned records. Disks are queueing timing
//! models; the buffer pool tracks page residency per node and supports the
//! remote (rDMA) extension used by helper nodes during rebalancing.

pub mod buffer;
pub mod disk;
pub mod page;
pub mod record;
pub mod segment;
pub mod store;

pub use buffer::{BufferPool, BufferStats, Fetch};
pub use disk::SimDisk;
pub use page::{SlottedPage, PAGE_SIZE, SLOT_OVERHEAD};
pub use record::{
    Record, RecordHeader, FLAG_TOMBSTONE, RECORD_HEADER_LOGICAL, RECORD_HEADER_PHYSICAL,
    TS_INFINITY,
};
pub use segment::{SegmentDirectory, SegmentMeta, SEGMENT_PAGES_DEFAULT};
pub use store::PageStore;
