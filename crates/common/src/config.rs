//! Calibrated hardware, power, network, and CPU-cost parameters.
//!
//! Defaults reproduce the testbed described in §3.1 of the paper: ten
//! Amdahl-balanced wimpy nodes (Intel Atom D510, 2 GB DRAM, 1 HDD + 2 SSDs)
//! on Gigabit Ethernet, with the power envelope the authors report
//! (22–26 W active per node, 2.5 W standby, 20 W switch; minimal cluster
//! ≈ 70–75 W, fully loaded ≈ 260–280 W).

use crate::time::SimDuration;
use crate::units::ByteSize;

/// Kind of storage drive; determines the timing and power model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskKind {
    /// Spinning disk: seek-dominated random I/O, decent sequential rate.
    Hdd,
    /// Flash drive: low latency, high IOPS.
    Ssd,
}

/// Timing/capacity parameters of one drive.
#[derive(Debug, Clone, Copy)]
pub struct DiskSpec {
    /// Drive kind.
    pub kind: DiskKind,
    /// Fixed per-request latency (seek+rotational for HDD, flash for SSD).
    pub access_latency: SimDuration,
    /// Sustained transfer bandwidth in bytes/second.
    pub bandwidth: u64,
    /// Usable capacity.
    pub capacity: ByteSize,
}

impl DiskSpec {
    /// A 2010-era 3.5" SATA HDD as in the Atom testbed.
    pub fn hdd() -> Self {
        Self {
            kind: DiskKind::Hdd,
            access_latency: SimDuration::from_micros(8_000),
            bandwidth: 100_000_000, // 100 MB/s sequential
            capacity: ByteSize::gib(500),
        }
    }

    /// A 2010-era SATA SSD.
    pub fn ssd() -> Self {
        Self {
            kind: DiskKind::Ssd,
            access_latency: SimDuration::from_micros(120),
            bandwidth: 230_000_000, // 230 MB/s
            capacity: ByteSize::gib(120),
        }
    }

    /// Service time for one request of `bytes`.
    pub fn service_time(&self, bytes: ByteSize) -> SimDuration {
        self.access_latency + bytes.transfer_time(self.bandwidth)
    }
}

/// Per-node hardware description.
#[derive(Debug, Clone)]
pub struct HardwareSpec {
    /// Physical CPU cores (Atom D510: 2 cores; hyper-threads are folded into
    /// the per-op CPU costs rather than modelled as extra cores).
    pub cpu_cores: u32,
    /// Drives attached to this node (paper: 1 HDD + 2 SSDs).
    pub disks: Vec<DiskSpec>,
}

impl Default for HardwareSpec {
    fn default() -> Self {
        Self {
            cpu_cores: 2,
            disks: vec![DiskSpec::hdd(), DiskSpec::ssd(), DiskSpec::ssd()],
        }
    }
}

/// Power model parameters (§3.1).
#[derive(Debug, Clone, Copy)]
pub struct PowerSpec {
    /// Node power at idle (0 % utilization), drives excluded.
    pub node_idle_w: f64,
    /// Node power at 100 % utilization, drives excluded.
    pub node_max_w: f64,
    /// Node power in standby (suspended, not participating).
    pub node_standby_w: f64,
    /// Interconnect switch (always on, included in all measurements).
    pub switch_w: f64,
    /// Spinning HDD (idle ≈ active for drives of that era).
    pub hdd_w: f64,
    /// SSD average power.
    pub ssd_w: f64,
}

impl Default for PowerSpec {
    fn default() -> Self {
        Self {
            node_idle_w: 22.0,
            node_max_w: 26.0,
            node_standby_w: 2.5,
            switch_w: 20.0,
            hdd_w: 6.0,
            ssd_w: 1.5,
        }
    }
}

/// Network model parameters (§3.1, §3.3).
#[derive(Debug, Clone, Copy)]
pub struct NetworkSpec {
    /// NIC bandwidth, bytes/second, full duplex (Gigabit Ethernet).
    pub bandwidth: u64,
    /// One-way message latency: NIC + switch + NIC, excluding serialization.
    pub hop_latency: SimDuration,
}

impl Default for NetworkSpec {
    fn default() -> Self {
        Self {
            bandwidth: 117_000_000, // ~1 Gbit/s minus framing overhead
            hop_latency: SimDuration::from_micros(450),
        }
    }
}

/// CPU cost parameters for engine operations, expressed as core-µs on the
/// wimpy Atom cores. Calibrated so the Fig. 1 micro-benchmark lands near the
/// paper's absolute numbers (≈40 k records/s for a local scan).
///
/// This is the **single source of truth** for per-operator costs: the
/// query engine's `CostTrace` stages and the core executor's per-access
/// accounting both price their work from these fields (the executor used
/// to inline some of them as literals, which could silently diverge).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Producing one record from a table scan (page decode amortized).
    pub scan_per_record: SimDuration,
    /// One volcano `next()` call's invocation overhead (single-record mode).
    pub call_overhead: SimDuration,
    /// Applying a projection to one record.
    pub project_per_record: SimDuration,
    /// Comparison-sort work per record per log2(n) level.
    pub sort_per_record_level: SimDuration,
    /// Hash/group aggregation work per record.
    pub agg_per_record: SimDuration,
    /// One B-tree node inspection (binary search within a node).
    pub index_node_visit: SimDuration,
    /// Inserting/updating one record in a page (latching + slot work).
    pub record_write: SimDuration,
    /// Reading one record from a resident page.
    pub record_read: SimDuration,
    /// Appending one log record to the WAL buffer.
    pub log_append: SimDuration,
    /// Buffer-pool hit bookkeeping.
    pub buffer_hit: SimDuration,
    /// Master-side routing work per transaction (route table lookup and
    /// dispatch).
    pub txn_route: SimDuration,
    /// Acquiring and releasing the latch pair around one record operation.
    pub latch_pair: SimDuration,
    /// Spin before re-probing routing when a key sits in a moving window's
    /// edge (dual-pointer miss).
    pub route_retry_spin: SimDuration,
    /// Latching charged when an eviction triggers an asynchronous
    /// writeback (buffer churn).
    pub writeback_latch: SimDuration,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            scan_per_record: SimDuration::from_micros(21),
            call_overhead: SimDuration::from_micros(4),
            project_per_record: SimDuration::from_micros(4),
            sort_per_record_level: SimDuration::from_micros(2),
            agg_per_record: SimDuration::from_micros(6),
            index_node_visit: SimDuration::from_micros(3),
            record_write: SimDuration::from_micros(8),
            record_read: SimDuration::from_micros(3),
            log_append: SimDuration::from_micros(2),
            buffer_hit: SimDuration::from_micros(1),
            txn_route: SimDuration::from_micros(20),
            latch_pair: SimDuration::from_micros(2),
            route_retry_spin: SimDuration::from_micros(50),
            writeback_latch: SimDuration::from_micros(20),
        }
    }
}

impl CostParams {
    /// The wimpy-core SQL layer: the per-record point costs (index node
    /// visit, record read and write, log append, buffer hit) times `k`,
    /// modelling the full SQL-layer work per record operation on an Atom
    /// core. At `k = 40` a node saturates under the benches' client loads,
    /// as the two loaded nodes do in the paper's runs.
    pub fn scaled(k: u64) -> Self {
        let c = Self::default();
        Self {
            index_node_visit: c.index_node_visit * k,
            record_read: c.record_read * k,
            record_write: c.record_write * k,
            log_append: c.log_append * k,
            buffer_hit: c.buffer_hit * k,
            ..c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_service_times() {
        let hdd = DiskSpec::hdd();
        // 8 KiB read: 8 ms seek + ~82 µs transfer.
        let t = hdd.service_time(ByteSize::kib(8));
        assert!(t >= SimDuration::from_micros(8_000));
        assert!(t < SimDuration::from_micros(8_200));
        let ssd = DiskSpec::ssd();
        let t = ssd.service_time(ByteSize::kib(8));
        assert!(t < SimDuration::from_micros(200));
    }

    #[test]
    fn default_node_shape_matches_paper() {
        let hw = HardwareSpec::default();
        assert_eq!(hw.cpu_cores, 2);
        assert_eq!(hw.disks.len(), 3);
        assert_eq!(hw.disks[0].kind, DiskKind::Hdd);
        assert_eq!(hw.disks[1].kind, DiskKind::Ssd);
    }

    #[test]
    fn power_envelope_anchors() {
        let p = PowerSpec::default();
        // §3.1: minimal config — 1 active node + 9 standby + switch, no
        // drives — consumes ≈65 W.
        let minimal = p.node_idle_w + 9.0 * p.node_standby_w + p.switch_w;
        assert!((60.0..70.0).contains(&minimal), "minimal {minimal}");
        // §3.1: "a more realistic minimal configuration requires ~70–75 W"
        // — the active node's drives add a handful of Watts.
        let realistic = minimal + p.hdd_w + 2.0 * p.ssd_w;
        assert!((69.0..76.0).contains(&realistic), "realistic {realistic}");
        // §3.1: all nodes at full utilization — 260 to 280 W "depending on
        // the number of disk drives installed"; the node+switch envelope
        // must land inside that band before drive power is added.
        let full = 10.0 * p.node_max_w + p.switch_w;
        assert!((258.0..282.0).contains(&full), "full {full}");
    }

    #[test]
    fn gigabit_transfer() {
        let n = NetworkSpec::default();
        // A 117 KB payload serializes in ~1 ms.
        let t = ByteSize::bytes(117_000).transfer_time(n.bandwidth);
        assert_eq!(t, SimDuration::from_millis(1));
    }
}
