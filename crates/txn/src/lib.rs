//! Transactions for WattDB-RS: MVCC, MGL-RX locking, and lifecycle.
//!
//! Implements §3.5 of the paper: multiversion concurrency control so that
//! "readers can still access old versions, even if new transactions changed
//! the data" — the property that lets repartitioning move records without
//! stalling readers — plus the classical multi-granularity locking baseline
//! (MGL-RX) it is benchmarked against in Fig. 3, and the system
//! transactions that serialize record movement.

pub mod locks;
pub mod manager;
pub mod mvcc;

pub use locks::{LockAcquire, LockManager, LockMode, LockTarget};
pub use manager::{CcMode, IndexMap, TxnKind, TxnManager, TxnState};
pub use mvcc::{is_provisional, owner, provisional, visible, Snapshot, WriteOp, TXN_MARK};
