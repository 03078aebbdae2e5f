//! Node monitoring: the feedback loop of §3.4.
//!
//! "Every node is monitoring its utilization: CPU, memory consumption,
//! network I/O, and disk utilization [...] the nodes send their monitoring
//! data every few seconds to the master node." The master compares each
//! active node's CPU against the thresholds and decides on
//! scale-out/scale-in ([`crate::policy`]). Heat only ranks the node a
//! scale-in drains; every window exports the per-node CPU, NIC egress,
//! heat and activity as gauges.
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
    /// CPU utilization in \[0,1\].
    pub cpu: f64,
    /// Network egress utilization over the window.
    pub net_tx: f64,
    /// Total decayed heat of the segments stored on the node — the
    /// planner's placement signal. Under the default cost model this is
    /// scalarized access *cost* (CPU/pages/network), so a node running
    /// scans reports hotter than one serving the same number of point
    /// reads; with cost tracing off it is the legacy weighted access
    /// count.
    pub heat: f64,
    /// Active (vs. standby).
    pub active: bool,
}

/// Collect a report for one node over the window since the last call.
/// CPU and NIC egress come from probes persisted on the node runtime, so
/// each reports the true utilization of the window rather than the
/// cumulative-since-t=0 average; the probes are stateful window samplers
/// and must only ever be sampled here.
pub fn sample_node(c: &mut Cluster, node: NodeId, now: SimTime) -> NodeReport {
    let idx = node.raw() as usize;
    let cpu_res = c.nodes[idx].cpu.clone();
    let cpu = c.nodes[idx].monitor_probe.sample(&cpu_res, now);
    let tx_res = c.net.tx_resource(node).clone();
    let net_tx = c.nodes[idx].net_probe.sample(&tx_res, now);
    NodeReport {
        node,
        cpu,
        net_tx,
        heat: c.heat.node_heat(&c.seg_dir, node, now).value(),
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
            c.replication.settle(sim.rank()); // the window exports acked LSNs
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
            cpu,
            net_tx: 0.0,
            heat: 0.0,
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
    }
}
