//! What an event carries: the completion vocabulary of the kernel.
//!
//! [`Completion`] is what runs when a timer fires, a resource request is
//! served or a message arrives. On the hot path it is plain data — a
//! [`Signal`] for the layers above, or nothing — and only
//! [`Completion::Call`] owns an environment. The loop that carries these
//! is [`crate::kernel`].

use wattdb_common::{NodeId, SimTime};

use crate::kernel::Sim;
use crate::profile::CostCategory;

/// A boxed continuation: the escape hatch for cold paths (monitoring,
/// migration, trace replay, test probes). Owns its environment via `move`
/// (typically `Rc<RefCell<...>>` handles to shared cluster state).
pub type EventFn = Box<dyn FnOnce(&mut Sim)>;

/// Closure of a repeating event: return `true` to fire again one period
/// later, `false` to stop and release the entry.
pub type RepeatFn = Box<dyn FnMut(&mut Sim) -> bool>;

/// A data continuation: what the layers above the kernel want to happen,
/// said with ids and timestamps instead of a captured environment. The
/// kernel only carries these; the handler installed with
/// [`Sim::set_handler`] (the cluster executor's) interprets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// A wait of executor job `job` that began at `since` is over: charge
    /// it to `category` and drive the job on.
    Resume {
        job: u64,
        category: CostCategory,
        since: SimTime,
    },
    /// A remotely stored page came off `storage`'s disk for `job`: charge
    /// the disk wait since `since`, then put the page on the wire to `exec`.
    PageOffDisk {
        job: u64,
        since: SimTime,
        storage: NodeId,
        exec: NodeId,
    },
    /// `job`'s abort backoff expired: start its next attempt.
    Retry { job: u64 },
    /// Flush `node`'s log: posted with no delay when the log had no flush
    /// in flight, at the end of the group-commit window otherwise.
    FlushLog { node: NodeId },
    /// `node`'s in-flight flush batch `batch` reached stable storage (or
    /// its helper).
    FlushDone { node: NodeId, batch: u32 },
    /// A per-client think time ended: client `client` submits its next
    /// transaction.
    ClientArrival { client: u32 },
    /// Pooled carrier `carrier`'s arrival offset inside its tick elapsed.
    PoolArrival { carrier: u32 },
}

/// What runs when something finishes: a request on a
/// [`Resource`](crate::resource::Resource), a message on a link, a timer.
/// Everything but [`Completion::Call`] is plain data and allocates nothing.
pub enum Completion {
    /// Nobody waits: a resource request with this completion only
    /// occupies the resource, and posts no event.
    Detached,
    /// Run a closure: one box, for paths that are not per-operation.
    Call(EventFn),
    /// Hand a [`Signal`] to the installed handler.
    Signal(Signal),
}

impl Completion {
    /// Box `f` as a completion.
    pub fn call(f: impl FnOnce(&mut Sim) + 'static) -> Self {
        Completion::Call(Box::new(f))
    }

    /// Index into [`EVENT_KINDS`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            Completion::Call(_) => 0,
            Completion::Detached => 2,
            Completion::Signal(s) => match s {
                Signal::Resume { .. } => 3,
                Signal::PageOffDisk { .. } => 4,
                Signal::Retry { .. } => 5,
                Signal::FlushLog { .. } => 6,
                Signal::FlushDone { .. } => 7,
                Signal::ClientArrival { .. } => 8,
                Signal::PoolArrival { .. } => 9,
            },
        }
    }
}

impl From<Signal> for Completion {
    fn from(s: Signal) -> Self {
        Completion::Signal(s)
    }
}

/// Names of the event kinds [`Sim::events_by_kind`] counts, in its order:
/// a repeater firing, or the kind of [`Completion`] the event ran — for a
/// resource request or a message, the one it carried.
pub const EVENT_KINDS: [&str; 10] = [
    "call",
    "repeat",
    "detached",
    "resume",
    "page_off_disk",
    "retry",
    "flush_log",
    "flush_done",
    "client_arrival",
    "pool_arrival",
];
pub(crate) const KIND_REPEAT: usize = 1;
