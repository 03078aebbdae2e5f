//! Index structures for WattDB-RS.
//!
//! Three layers of indexing from §4.3 of the paper:
//!
//! 1. [`BPlusTree`] — the record-level tree ("B*-trees" in WattDB), used as
//!    each segment's primary-key index.
//! 2. [`SegmentIndex`] / [`TopIndex`] — the physiological structure: each
//!    segment carries its own PK index (a mini-partition), and a partition
//!    is just a small *top index* over its segments' key ranges. Moving a
//!    segment updates two top indexes, never the record trees.
//! 3. [`GlobalRouter`] — the master's key-range → (partition, node) table
//!    with dual pointers during moves.

mod block;
pub mod btree;
pub mod routing;
pub mod segment_index;
pub mod top_index;

pub use btree::BPlusTree;
pub use routing::{GlobalRouter, Location, RouteEntry, RouteResult};
pub use segment_index::SegmentIndex;
pub use top_index::TopIndex;
