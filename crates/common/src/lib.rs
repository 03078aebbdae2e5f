//! Common foundation types for WattDB-RS.
//!
//! This crate holds the vocabulary shared by every subsystem of the WattDB
//! reproduction: strongly-typed identifiers, the virtual-time types used by
//! the discrete-event simulator, primary-key and key-range types, byte/power
//! units, online statistics, deterministic randomness, and the calibrated
//! hardware/cost configuration taken from §3.1 of the paper.
//!
//! Nothing in this crate performs I/O or depends on the simulator; it is the
//! bottom of the dependency stack.

pub mod config;
pub mod cost;
pub mod dense;
pub mod error;
pub mod hash;
pub mod heat;
pub mod ids;
pub mod key;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use config::{CostParams, DiskSpec, HardwareSpec, NetworkSpec, PowerSpec};
pub use cost::{CostModel, CostVector};
pub use dense::{DenseKey, DenseMap, DENSE_BOUND};
pub use error::{Error, Result};
pub use hash::{IdMap, IdSet};
pub use heat::{Heat, HeatConfig};
pub use ids::{
    ClientId, DiskId, Lsn, NodeId, PageId, PartitionId, QueryId, RecordId, SegmentId, TableId,
    TxnId,
};
pub use key::{Key, KeyRange};
pub use rng::DetRng;
pub use stats::{Histogram, TimeBuckets};
pub use time::{Rank, SimDuration, SimTime};
pub use units::{ByteSize, Joules, Watts};
