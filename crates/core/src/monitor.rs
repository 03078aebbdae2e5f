//! Node monitoring: the feedback loop of §3.4.
//!
//! "Every node is monitoring its utilization: CPU, memory consumption,
//! network I/O, and disk utilization [...] the nodes send their monitoring
//! data every few seconds to the master node." The master compares reports
//! against thresholds and decides on scale-out/scale-in
//! ([`crate::policy`]).

use wattdb_common::{NodeId, SimDuration, SimTime};
use wattdb_sim::{Repeater, Sim};

use crate::cluster::{Cluster, ClusterRc};

/// One node's utilization report for a monitoring window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeReport {
    /// Reporting node.
    pub node: NodeId,
    /// Window end.
    pub at: SimTime,
    /// CPU utilization in \[0,1\].
    pub cpu: f64,
    /// Disk utilization over the window (max across drives).
    pub disk: f64,
    /// Network egress utilization over the window.
    pub net_tx: f64,
    /// Buffer-pool hit ratio in the window (cumulative approximation).
    pub buffer_hit_ratio: f64,
    /// Total decayed heat of the segments stored on the node — the
    /// planner's placement signal. Under the default cost model this is
    /// scalarized access *cost* (CPU/pages/network), so a node running
    /// scans reports hotter than one serving the same number of point
    /// reads; with cost tracing off it is the legacy weighted access
    /// count.
    pub heat: f64,
    /// NIC egress attributable to steady-state replica shipping over the
    /// window, in the same utilization units as `net_tx` (wire time of
    /// the window's shipped replica bytes over the window). An overload
    /// test on raw `net_tx` would count WAL fan-out as workload — this is
    /// the share to subtract first.
    pub replica_ship_tx: f64,
    /// Share of the cluster's routed replica reads this node served over
    /// the window, in \[0,1\] — how much of the read fan-out this node is
    /// currently absorbing. Zero with replication off or no routed reads.
    pub replica_fanout: f64,
    /// Active (vs. standby).
    pub active: bool,
}

/// Collect a report for one node over the window since the last call.
/// All utilization signals — CPU, every drive, and NIC egress — come from
/// probes persisted on the node runtime, so each reports the true
/// utilization of the window rather than the cumulative-since-t=0 average.
pub fn sample_node(c: &mut Cluster, node: NodeId, now: SimTime) -> NodeReport {
    let idx = node.raw() as usize;
    let cpu_res = c.nodes[idx].cpu.clone();
    let cpu = c.nodes[idx].monitor_probe.sample(&cpu_res, now);
    let n_disks = c.nodes[idx].disks.len();
    let mut disk = 0.0f64;
    for d in 0..n_disks {
        let res = c.nodes[idx].disks[d].resource().clone();
        let u = c.nodes[idx].disk_probes[d].sample(&res, now);
        disk = disk.max(u);
    }
    let tx_res = c.net.tx_resource(node).clone();
    let net_tx = c.nodes[idx].net_probe.sample(&tx_res, now);
    // Persist the NIC reading: planners rank helper and replica hosts by
    // interconnect idleness, and the probe itself must only ever be
    // sampled here (it is a stateful window sampler).
    c.net_util[idx] = net_tx;
    let stats = c.nodes[idx].buffer.stats();
    let heat = c.heat.node_heat(&c.seg_dir, node, now).value();
    // Windowed replica-shipping egress: bytes this leader shipped to its
    // followers since the last sample, converted to NIC utilization via
    // wire time over the window.
    let shipped = c.nodes[idx].replica_shipper.shipped_bytes();
    let ship_delta = shipped.saturating_sub(c.nodes[idx].ship_probe_base);
    c.nodes[idx].ship_probe_base = shipped;
    let window = now.since(c.nodes[idx].ship_probe_at);
    c.nodes[idx].ship_probe_at = now;
    let replica_ship_tx = if ship_delta > 0 && window.as_micros() > 0 {
        let wire = c.net.wire_time(wattdb_common::ByteSize::bytes(ship_delta));
        (wire.as_micros() as f64 / window.as_micros() as f64).min(1.0)
    } else {
        0.0
    };
    // Windowed read fan-out share: follower reads this node served over
    // all routed replica reads in the window.
    let served = c.replica_reads_by.get(&node).copied().unwrap_or(0);
    let served_delta = served.saturating_sub(c.nodes[idx].fanout_reads_base);
    c.nodes[idx].fanout_reads_base = served;
    let total_delta = c
        .replica_read_total
        .saturating_sub(c.nodes[idx].fanout_total_base);
    c.nodes[idx].fanout_total_base = c.replica_read_total;
    let replica_fanout = if total_delta > 0 {
        served_delta as f64 / total_delta as f64
    } else {
        0.0
    };
    NodeReport {
        node,
        at: now,
        cpu,
        disk,
        net_tx,
        buffer_hit_ratio: stats.hit_ratio(),
        heat,
        replica_ship_tx,
        replica_fanout,
        active: c.nodes[idx].life.is_up(),
    }
}

/// The master's rolling view of the cluster.
#[derive(Debug, Default)]
pub struct ClusterView {
    /// Latest report per node.
    pub reports: Vec<NodeReport>,
}

impl ClusterView {
    /// Mean CPU utilization across active nodes.
    pub fn mean_active_cpu(&self) -> f64 {
        let active: Vec<_> = self.reports.iter().filter(|r| r.active).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().map(|r| r.cpu).sum::<f64>() / active.len() as f64
    }

    /// Nodes above the CPU bound.
    pub fn overloaded(&self, bound: f64) -> Vec<NodeId> {
        self.reports
            .iter()
            .filter(|r| r.active && r.cpu > bound)
            .map(|r| r.node)
            .collect()
    }

    /// The hottest active node by access heat, if any heat was observed.
    pub fn hottest(&self) -> Option<(NodeId, f64)> {
        self.reports
            .iter()
            .filter(|r| r.active && r.heat > 0.0)
            .map(|r| (r.node, r.heat))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Ratio of the hottest active node's heat to the mean active heat
    /// (1.0 = perfectly balanced; large = skewed). Zero when no heat.
    pub fn heat_skew(&self) -> f64 {
        let active: Vec<f64> = self
            .reports
            .iter()
            .filter(|r| r.active)
            .map(|r| r.heat)
            .collect();
        if active.is_empty() {
            return 0.0;
        }
        let mean = active.iter().sum::<f64>() / active.len() as f64;
        if mean <= 0.0 {
            return 0.0;
        }
        active.iter().copied().fold(0.0, f64::max) / mean
    }
}

/// Start periodic monitoring: every `period`, all nodes report to the
/// master and `on_view` sees the assembled view (policy hook). The loop
/// runs until `on_view` returns `false` — deliberately independent of the
/// client stop flag, so the master keeps watching (and can scale in) after
/// the workload drains.
///
/// Each window also feeds the master's heat-[`drift`](crate::heat::drift)
/// tracker, so any monitored cluster accumulates per-segment velocity
/// estimates for projected-heat planning.
pub fn start_monitoring(
    cl: &ClusterRc,
    sim: &mut Sim,
    period: SimDuration,
    mut on_view: impl FnMut(&ClusterRc, &mut Sim, &ClusterView) -> bool + 'static,
) {
    let handle = cl.clone();
    Repeater::every(sim, period, move |sim| {
        let view = {
            let mut c = handle.borrow_mut();
            // One flat decay pass per window: every heat read below (and
            // any planner read inside the window) hits a zero-elapsed
            // entry instead of paying per-segment decay on demand.
            c.heat.decay_sweep(sim.now());
            let n = c.nodes.len();
            let mut view = ClusterView::default();
            for i in 0..n {
                let report = sample_node(&mut c, NodeId(i as u16), sim.now());
                view.reports.push(report);
            }
            let c = &mut *c;
            c.drift.observe(&c.heat, &c.seg_dir, sim.now());
            view
        };
        on_view(&handle, sim, &view)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(node: u16, cpu: f64, active: bool) -> NodeReport {
        NodeReport {
            node: NodeId(node),
            at: SimTime::ZERO,
            cpu,
            disk: 0.0,
            net_tx: 0.0,
            buffer_hit_ratio: 0.0,
            heat: 0.0,
            replica_ship_tx: 0.0,
            replica_fanout: 0.0,
            active,
        }
    }

    #[test]
    fn view_aggregations() {
        let view = ClusterView {
            reports: vec![
                report(0, 0.9, true),
                report(1, 0.2, true),
                report(2, 0.0, false), // standby excluded
            ],
        };
        assert!((view.mean_active_cpu() - 0.55).abs() < 1e-9);
        assert_eq!(view.overloaded(0.8), vec![NodeId(0)]);
    }

    #[test]
    fn empty_view() {
        let view = ClusterView::default();
        assert_eq!(view.mean_active_cpu(), 0.0);
        assert!(view.overloaded(0.8).is_empty());
        assert_eq!(view.hottest(), None);
        assert_eq!(view.heat_skew(), 0.0);
    }

    #[test]
    fn heat_rollup_helpers() {
        let mut a = report(0, 0.5, true);
        a.heat = 9.0;
        let mut b = report(1, 0.5, true);
        b.heat = 3.0;
        let mut standby = report(2, 0.0, false);
        standby.heat = 100.0; // standby excluded from the active view
        let view = ClusterView {
            reports: vec![a, b, standby],
        };
        assert_eq!(view.hottest(), Some((NodeId(0), 9.0)));
        assert!((view.heat_skew() - 1.5).abs() < 1e-9);
    }
}
