//! WattDB-RS umbrella crate.
//!
//! Re-exports every subsystem under one roof so applications can depend on
//! a single crate. The system-level integration tests (the repo-root
//! `tests/`) and the runnable examples (repo-root `examples/`) are wired
//! into this crate's manifest.
//!
//! ```
//! use wattdb_integration::prelude::*;
//!
//! let mut db = WattDb::builder()
//!     .nodes(4)
//!     .warehouses(2)
//!     .density(0.01)
//!     .initial_data_nodes(&[NodeId(0), NodeId(1)])
//!     .build();
//! db.start_oltp(4, SimDuration::from_millis(100));
//! db.run_for(SimDuration::from_secs(5));
//! assert!(db.completed() > 0);
//! ```

pub use wattdb_common as common;
pub use wattdb_core as core;
pub use wattdb_energy as energy;
pub use wattdb_index as index;
pub use wattdb_net as net;
pub use wattdb_query as query;
pub use wattdb_sim as sim;
pub use wattdb_storage as storage;
pub use wattdb_tpcc as tpcc;
pub use wattdb_txn as txn;
pub use wattdb_wal as wal;

/// The names almost every embedding needs.
pub mod prelude {
    pub use wattdb_common::{NodeId, SimDuration, SimTime};
    pub use wattdb_core::api::{ClusterStatus, NodeStatus, WattDb, WattDbBuilder};
    pub use wattdb_core::autopilot::{ControlEvent, Outcome};
    pub use wattdb_core::cluster::Scheme;
    pub use wattdb_core::policy::{Decision, PolicyConfig};
}
