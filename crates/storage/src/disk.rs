//! Simulated disk drives.
//!
//! Each node of the paper's testbed carries one HDD and two SSDs. A
//! [`SimDisk`] pairs the drive's timing/capacity spec with a single-slot
//! queueing [`Resource`], so concurrent requests serialize and queue —
//! the effect that makes rebalancing I/O hurt foreground queries (Fig. 7).
//! A bulk transfer is the kernel's chunked transfer
//! ([`Resource::stream`]): each later [`CHUNK`] is queued when the one
//! before it is done, as data, with no closure.
//!
//! [`Resource`]: wattdb_sim::Resource

use wattdb_common::config::{DiskKind, DiskSpec};
use wattdb_common::{ByteSize, DiskId, SimDuration};
use wattdb_sim::{Completion, Resource, ResourceHandle, Sim};

use crate::page::PAGE_SIZE;

/// A drive attached to a node.
pub struct SimDisk {
    id: DiskId,
    spec: DiskSpec,
    resource: ResourceHandle,
    used: ByteSize,
    reads: u64,
    writes: u64,
    bulk_bytes: u64,
}

impl SimDisk {
    /// Create a drive with its own request queue.
    pub fn new(id: DiskId, spec: DiskSpec) -> Self {
        Self {
            id,
            spec,
            resource: Resource::new(format!("{id}-{:?}", spec.kind), 1),
            used: ByteSize::ZERO,
            reads: 0,
            writes: 0,
            bulk_bytes: 0,
        }
    }

    /// Drive id.
    pub fn id(&self) -> DiskId {
        self.id
    }

    /// Drive kind (HDD/SSD).
    pub fn kind(&self) -> DiskKind {
        self.spec.kind
    }

    /// Timing/capacity spec.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// The underlying queueing resource (for utilization probes).
    pub fn resource(&self) -> &ResourceHandle {
        &self.resource
    }

    /// Bytes currently allocated on the drive.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Remaining capacity.
    pub fn free(&self) -> ByteSize {
        self.spec.capacity - self.used
    }

    /// Utilization of capacity in \[0,1\].
    pub fn fill_ratio(&self) -> f64 {
        self.used.as_u64() as f64 / self.spec.capacity.as_u64() as f64
    }

    /// Reads issued.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Writes issued.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Bytes moved by bulk transfers.
    pub fn bulk_bytes(&self) -> u64 {
        self.bulk_bytes
    }

    /// Reserve space for newly allocated data (segment placement).
    pub fn reserve(&mut self, bytes: ByteSize) {
        self.used += bytes;
    }

    /// Return space after segment removal.
    pub fn release(&mut self, bytes: ByteSize) {
        self.used = self.used - bytes;
    }

    /// Submit a page-sized read; `done` fires when the head/flash finishes.
    pub fn read_page(&mut self, sim: &mut Sim, done: Completion) {
        self.reads += 1;
        let t = self.spec.service_time(ByteSize::bytes(PAGE_SIZE as u64));
        Resource::submit(&self.resource, sim, t, done);
    }

    /// Submit a bulk sequential transfer (segment copy, log flush),
    /// streamed in [`CHUNK`]s ([`Resource::stream`]) so foreground page
    /// requests interleave in the device queue instead of stalling behind
    /// one multi-second request; the last chunk carries `done`.
    pub fn bulk_transfer(&mut self, sim: &mut Sim, bytes: ByteSize, done: Completion) {
        self.writes += 1;
        self.bulk_bytes += bytes.as_u64();
        let (spec, pieces) = (self.spec, (bytes.as_u64(), CHUNK, SimDuration::ZERO));
        let service = |b| spec.service_time(ByteSize::bytes(b));
        Resource::stream(sim, (&self.resource, None), pieces, service, done);
    }

    /// Service time for one request of `bytes` with no queueing (cost
    /// estimation for the migration planner).
    pub fn estimate(&self, bytes: ByteSize) -> SimDuration {
        self.spec.service_time(bytes)
    }
}

/// The largest piece a bulk transfer occupies a drive with.
pub const CHUNK: u64 = 8 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use wattdb_common::NodeId;

    fn hdd() -> SimDisk {
        SimDisk::new(DiskId::new(NodeId(1), 0), DiskSpec::hdd())
    }

    #[test]
    fn page_read_takes_seek_plus_transfer() {
        let mut sim = Sim::new();
        let mut d = hdd();
        let done_at = Rc::new(RefCell::new(None));
        let da = done_at.clone();
        d.read_page(
            &mut sim,
            Completion::call(move |sim| *da.borrow_mut() = Some(sim.now())),
        );
        sim.run_to_completion();
        let t = done_at.borrow().unwrap();
        // 8 ms seek + 8192B / 100 MB/s ≈ 8.082 ms.
        assert!(t.as_micros() >= 8_000 && t.as_micros() < 8_200, "{t}");
        assert_eq!(d.read_count(), 1);
    }

    #[test]
    fn requests_serialize_on_one_spindle() {
        let mut sim = Sim::new();
        let mut d = hdd();
        let times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let t = times.clone();
            d.read_page(
                &mut sim,
                Completion::call(move |sim| t.borrow_mut().push(sim.now().as_micros())),
            );
        }
        sim.run_to_completion();
        let v = times.borrow();
        assert_eq!(v.len(), 3);
        // Completions spaced one service time apart, not concurrent.
        assert!(v[1] - v[0] >= 8_000);
        assert!(v[2] - v[1] >= 8_000);
    }

    #[test]
    fn bulk_transfer_is_bandwidth_bound() {
        let mut sim = Sim::new();
        let mut d = hdd();
        let done_at = Rc::new(RefCell::new(None));
        let da = done_at.clone();
        // 32 MiB segment at 100 MB/s ≈ 335 ms + 8 ms seek.
        d.bulk_transfer(
            &mut sim,
            ByteSize::mib(32),
            Completion::call(move |sim| *da.borrow_mut() = Some(sim.now())),
        );
        sim.run_to_completion();
        let t = done_at.borrow().unwrap();
        assert!(t.as_micros() > 300_000 && t.as_micros() < 400_000, "{t}");
    }

    #[test]
    fn capacity_bookkeeping() {
        let mut d = hdd();
        let cap = d.spec().capacity;
        d.reserve(ByteSize::mib(32));
        assert_eq!(d.used(), ByteSize::mib(32));
        assert_eq!(d.free(), cap - ByteSize::mib(32));
        assert!(d.fill_ratio() > 0.0);
        d.release(ByteSize::mib(32));
        assert_eq!(d.used(), ByteSize::ZERO);
    }

    #[test]
    fn ssd_much_faster_than_hdd() {
        let d_ssd = SimDisk::new(DiskId::new(NodeId(1), 1), DiskSpec::ssd());
        let d_hdd = hdd();
        let page = ByteSize::bytes(PAGE_SIZE as u64);
        assert!(d_ssd.estimate(page).as_micros() * 10 < d_hdd.estimate(page).as_micros());
    }
}
