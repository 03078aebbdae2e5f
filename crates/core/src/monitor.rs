//! Node monitoring: the feedback loop of §3.4.
//!
//! "Every node is monitoring its utilization: CPU, memory consumption,
//! network I/O, and disk utilization [...] the nodes send their monitoring
//! data every few seconds to the master node." The master compares reports
//! against thresholds and decides on scale-out/scale-in
//! ([`crate::policy`]).
//!
//! A deployment runs one such window loop ([`start_monitoring`]): the
//! node probes are stateful window samplers and tolerate exactly one
//! sampler. Each window it samples every node, freezes the telemetry
//! window, and runs the control step (`autopilot::step`) of the
//! policy engaged in the cluster's slot, [`Cluster::policy`], if any.

use wattdb_common::{NodeId, SimDuration, SimTime};
use wattdb_sim::Sim;

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
    let heat = c.heat.node_heat(&c.seg_dir, node, now).value();
    // Windowed replica-shipping egress and read fan-out share.
    let (replica_ship_tx, replica_fanout) = c.replication.sample_window(node, now, &c.net);
    NodeReport {
        node,
        at: now,
        cpu,
        disk,
        net_tx,
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

    /// The heat-skew signals over the active nodes not in `excluded`:
    /// (ratio of the hottest one's heat to their mean heat, that mean).
    /// The ratio is 1.0 when perfectly balanced, large when skewed, and
    /// zero when there is no heat.
    ///
    /// The policy excludes its attached helpers. A helper is an active
    /// node holding (near-)zero heat by construction: counting it would
    /// dilute the mean and inflate the ratio (two balanced data nodes plus
    /// two helpers would read as skew 2.0), so the subsidence predicate
    /// could never pass and attached helpers would stay powered forever.
    pub fn heat_skew(&self, excluded: &[NodeId]) -> (f64, f64) {
        let heats: Vec<f64> = self
            .reports
            .iter()
            .filter(|r| r.active && !excluded.contains(&r.node))
            .map(|r| r.heat)
            .collect();
        if heats.is_empty() {
            return (0.0, 0.0);
        }
        let mean = heats.iter().sum::<f64>() / heats.len() as f64;
        let skew = if mean <= 0.0 {
            0.0
        } else {
            heats.iter().copied().fold(0.0, f64::max) / mean
        };
        (skew, mean)
    }
}

/// Arm the deployment's one monitoring window: every `period`, all nodes
/// report to the master, the window's metrics are frozen
/// ([`crate::telemetry_sink::sample_window`]), and the policy engaged in
/// [`Cluster::policy`], if any, runs its control step on the view. The
/// loop never stops — deliberately independent of the client stop flag,
/// so the master keeps watching (and can scale in) after the workload
/// drains.
///
/// Each window opens with [`HeatTable::observe`](crate::heat::HeatTable::observe):
/// one flat decay pass, so every heat read below (and any planner read
/// inside the window) hits a zero-elapsed entry, and one velocity update
/// per segment, so any monitored cluster accumulates the estimates
/// projected-heat planning reads.
pub fn start_monitoring(cl: &ClusterRc, sim: &mut Sim, period: SimDuration) {
    let handle = cl.clone();
    sim.every(period, move |sim| {
        let now = sim.now();
        let view = {
            let c = &mut *handle.borrow_mut();
            c.heat.observe(&c.seg_dir, now);
            let n = c.nodes.len();
            let mut view = ClusterView::default();
            for i in 0..n {
                let report = sample_node(c, NodeId(i as u16), now);
                view.reports.push(report);
            }
            view
        };
        // Freeze this window's metrics before the policy acts: every
        // decision record shares the window index with the sample it was
        // based on.
        let events = sim.events_executed();
        let window =
            crate::telemetry_sink::sample_window(&mut handle.borrow_mut(), &view, now, events);
        crate::autopilot::step(&handle, sim, &view, window);
        true
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
    }

    #[test]
    fn empty_view() {
        let view = ClusterView::default();
        assert_eq!(view.mean_active_cpu(), 0.0);
        assert_eq!(view.heat_skew(&[]), (0.0, 0.0));
    }

    #[test]
    fn heat_rollup_helpers() {
        let mut a = report(0, 0.5, true);
        a.heat = 9.0;
        let mut b = report(1, 0.5, true);
        b.heat = 3.0;
        let mut standby = report(2, 0.0, false);
        standby.heat = 100.0; // standby excluded from the active view
        let helper = report(3, 0.1, true); // active, zero heat
        let view = ClusterView {
            reports: vec![a, b, standby, helper],
        };
        let (skew, mean) = view.heat_skew(&[NodeId(3)]);
        assert!((skew - 1.5).abs() < 1e-9, "helper excluded: {skew}");
        assert!((mean - 6.0).abs() < 1e-9);
        let (skew, mean) = view.heat_skew(&[]);
        assert!((skew - 2.25).abs() < 1e-9, "helper included: {skew}");
        assert!((mean - 4.0).abs() < 1e-9);
    }
}
