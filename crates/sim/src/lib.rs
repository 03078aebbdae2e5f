//! Discrete-event simulation kernel for WattDB-RS.
//!
//! The paper's experiments run on a physical 10-node cluster; this crate is
//! the substitute substrate: a deterministic, single-threaded discrete-event
//! simulator. Simulated hardware components (CPU cores, disks, NICs) are
//! [`Resource`] servers with FIFO queues; everything that takes time in the
//! real system becomes a resource request plus a [`Completion`] — on the
//! hot path a few ids and a timestamp ([`Signal`]) delivered to the one
//! handler the layers above install, on cold paths a boxed closure.
//!
//! Determinism: the event queue orders by `(time, as-of instant, sequence)`
//! (see [`kernel`]), so equal-time events fire in a fixed order, and all
//! randomness elsewhere comes from seeded generators. Two runs of the same experiment produce bit-identical
//! metric series.
//!
//! The engine's *state* (pages, B-trees, versions, locks) is real — see the
//! storage/index/txn crates; only *time* is virtual.

pub mod event;
pub mod kernel;
pub mod probe;
pub mod profile;
pub mod resource;

pub use event::{Completion, EventFn, RepeatFn, Signal, EVENT_KINDS};
pub use kernel::Sim;
pub use probe::UtilizationProbe;
pub use profile::{CostCategory, CostProfile};
pub use resource::{Resource, ResourceHandle, ResourceStats};
