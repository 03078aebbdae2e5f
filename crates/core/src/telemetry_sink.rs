//! Bridge from the cluster's control plane into the
//! [`wattdb_telemetry`] flight recorder.
//!
//! The telemetry crate knows virtual time and metric names; this module
//! owns the *vocabulary* — which gauges exist, how a [`ControlEvent`]
//! renders as the exported `DecisionRecord`, and how the policy's
//! [`PolicySignals`] and the monitoring view combine into the exported
//! [`SignalVector`]. Everything here is called from the one monitoring
//! window ([`crate::monitor::start_monitoring`]) and the policy step it
//! runs, on already-sampled state: probes are stateful window samplers
//! and are never touched from here.

use std::fmt::Write;

use wattdb_common::{NodeId, SimTime};
use wattdb_telemetry::{DecisionRecord, MetricsRegistry, SignalVector, ToRecord};

use crate::autopilot::{ControlEvent, Outcome};
use crate::cluster::Cluster;
use crate::monitor::ClusterView;
use crate::policy::{Decision, PolicySignals};

/// Render a node list as `n0+n1+n2` (compact, deterministic).
fn node_list(nodes: &[NodeId]) -> String {
    let mut out = String::new();
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        out.push_str(&n.to_string());
    }
    out
}

/// Render a decision for the timeline and the explain output.
pub fn decision_label(d: &Decision) -> String {
    match d {
        Decision::Hold => "Hold".to_string(),
        Decision::ScaleOut { sources, targets } => {
            format!("ScaleOut({}→{})", node_list(sources), node_list(targets))
        }
        Decision::ScaleIn { drain } => format!("ScaleIn({})", node_list(drain)),
        Decision::Rebalance { sources, targets } => {
            format!("Rebalance({}→{})", node_list(sources), node_list(targets))
        }
        Decision::AttachHelpers { sources, .. } => {
            format!("AttachHelpers({})", node_list(sources))
        }
        Decision::DetachHelpers { helpers } => {
            format!("DetachHelpers({})", node_list(helpers))
        }
        Decision::Promote { failed, orphaned } => {
            format!("Promote({failed}, {} segments)", orphaned.len())
        }
    }
}

/// Render a hold/applied/deferred/suspended outcome for the timeline.
pub fn outcome_label(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Hold => "hold".to_string(),
        Outcome::Applied => "applied".to_string(),
        Outcome::Deferred { reason } => format!("deferred: {reason}"),
        Outcome::Suspended { nodes } => format!("suspended: {}", node_list(nodes)),
    }
}

/// Combine the monitoring view and the policy's frozen signals into the
/// exported signal vector.
pub fn signal_vector(view: &ClusterView, sig: &PolicySignals) -> SignalVector {
    let active = || view.reports.iter().filter(|r| r.active);
    let active_nodes = active().count();
    SignalVector {
        mean_active_cpu: view.mean_active_cpu(),
        max_cpu: active().map(|r| r.cpu).fold(0.0, f64::max),
        max_net: active().map(|r| r.net_tx).fold(0.0, f64::max),
        heat_skew: sig.skew,
        mean_heat: sig.mean_heat,
        active_nodes: active_nodes as u64,
        standby_nodes: (view.reports.len() - active_nodes) as u64,
        high_streak: sig.high_streak as u64,
        low_streak: sig.low_streak as u64,
        skew_streak: sig.skew_streak as u64,
        cooldown_left: sig.cooldown_left as u64,
        skew_fires: sig.skew_fires as u64,
        subsided: sig.subsided,
    }
}

/// A control event renders as its timeline record when exported or
/// explained: the labels are built then, not every window.
impl ToRecord for ControlEvent {
    fn to_record(&self) -> DecisionRecord {
        DecisionRecord {
            window: self.window,
            at: self.at,
            decision: decision_label(&self.decision),
            trigger: self.trigger.to_string(),
            outcome: outcome_label(&self.outcome),
            signals: self.signals.clone(),
            predicted: self.predicted,
            span: self.span.map(|s| s.0),
        }
    }
}

/// Freeze one monitoring window into the metrics registry: transaction
/// throughput and response percentiles, engine speed, per-node
/// CPU/NIC/heat, replica shipping and read fan-out, WAL shipping lag,
/// re-replication traffic, instantaneous watts, and Wh per committed
/// transaction. `events` is the simulator's cumulative executed-event
/// count — a sim-domain quantity, so the derived engine-speed gauges
/// stay deterministic (no wall clock enters the telemetry). Returns the
/// window index (shared with this window's decision records).
pub fn sample_window(c: &mut Cluster, view: &ClusterView, at: SimTime, events: u64) -> u64 {
    // Throughput: completions since the previous window, over the
    // window length (the first window has no baseline and reads zero).
    let completed = c.metrics.completed;
    let aborted = c.metrics.aborted;
    let prev_completed = c.telemetry.registry.counter("txn.completed");
    let prev_events = c.telemetry.registry.counter("engine.events");
    let prev_at = c.telemetry.registry.latest().map(|s| s.at);
    let (throughput, events_per_sec) = match prev_at {
        Some(t0) if at > t0 => {
            let secs = at.since(t0).as_secs_f64();
            (
                (completed.saturating_sub(prev_completed)) as f64 / secs,
                (events.saturating_sub(prev_events)) as f64 / secs,
            )
        }
        _ => (0.0, 0.0),
    };
    let r = &mut c.telemetry.registry;
    r.set_counter("txn.completed", completed);
    r.set_counter("txn.aborted", aborted);
    r.set_gauge("txn.throughput", throughput);
    // Engine speed, per *simulated* second: how many kernel events (and
    // committed transactions) one second of virtual time costs. The
    // pooled client mode exists to push txns-per-event up — these gauges
    // make that visible per window.
    r.set_counter("engine.events", events);
    r.set_gauge("engine.events_per_sec", events_per_sec);
    r.set_gauge("engine.txns_per_sec", throughput);
    for (name, p) in [
        ("txn.response_ms.p50", 50.0),
        ("txn.response_ms.p95", 95.0),
        ("txn.response_ms.p99", 99.0),
    ] {
        r.set_gauge(name, c.metrics.response_hist.percentile(p).as_millis_f64());
    }
    // Per-node utilization and heat, straight from the already-sampled
    // view (never from the probes). The registry interns a name the first
    // time it sees it; every later window formats into one reused buffer.
    let mut name = String::new();
    let mut gauge = |r: &mut MetricsRegistry, path: std::fmt::Arguments, v: f64| {
        name.clear();
        let _ = name.write_fmt(path);
        r.set_gauge(&name, v);
    };
    for report in &view.reports {
        let n = report.node.raw();
        gauge(r, format_args!("node.{n}.cpu"), report.cpu);
        gauge(r, format_args!("node.{n}.net"), report.net_tx);
        gauge(r, format_args!("node.{n}.heat"), report.heat);
        gauge(
            r,
            format_args!("node.{n}.replica_ship"),
            report.replica_ship_tx,
        );
        gauge(
            r,
            format_args!("node.{n}.replica_fanout"),
            report.replica_fanout,
        );
        let active = if report.active { 1.0 } else { 0.0 };
        gauge(r, format_args!("node.{n}.active"), active);
    }
    r.set_gauge("heat.skew", view.heat_skew(&[]).0);
    // Replication: shipped bytes, WAL shipping lag (worst follower),
    // follower read fan-out, re-replication repair traffic.
    c.replication.export(r, &c.nodes, &mut name);
    // Offered load: the pooled workload's modeled-client target in
    // force this window (trace-driven runs move it along the schedule).
    // Per-client runs carry no pool and no gauge — their exports stay
    // byte-identical to the pre-trace format.
    let target = c.pool.as_ref().map(|p| p.modeled());
    let r = &mut c.telemetry.registry;
    if let Some(target) = target {
        r.set_gauge("workload.target_clients", target as f64);
    }
    // Energy: the latest 1 s power sample and Wh per committed txn so
    // far — the paper's proportionality currency.
    if let Some(sample) = c.meter.series().last() {
        r.set_gauge("power.watts", sample.power.0);
    }
    let joules = c.meter.total_energy().0;
    r.set_gauge("energy.joules", joules);
    let wh_per_txn = if completed > 0 {
        joules / 3600.0 / completed as f64
    } else {
        0.0
    };
    r.set_gauge("energy.wh_per_txn", wh_per_txn);
    r.sample_window(at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_compact_and_stable() {
        let d = Decision::ScaleOut {
            sources: vec![NodeId(1), NodeId(2)],
            targets: vec![NodeId(4)],
        };
        assert_eq!(decision_label(&d), "ScaleOut(n1+n2→n4)");
        assert_eq!(decision_label(&Decision::Hold), "Hold");
        assert_eq!(outcome_label(&Outcome::Hold), "hold");
        assert_eq!(
            outcome_label(&Outcome::Deferred {
                reason: "rebalance in flight"
            }),
            "deferred: rebalance in flight"
        );
        assert_eq!(
            outcome_label(&Outcome::Suspended {
                nodes: vec![NodeId(3)]
            }),
            "suspended: n3"
        );
    }

    #[test]
    fn signal_vector_aggregates() {
        use crate::monitor::NodeReport;
        let report = |node: u16, cpu: f64, active: bool| NodeReport {
            node: NodeId(node),
            at: SimTime::ZERO,
            cpu,
            disk: 0.0,
            net_tx: 0.0,
            heat: 0.0,
            replica_ship_tx: 0.0,
            replica_fanout: 0.0,
            active,
        };
        let view = ClusterView {
            reports: vec![
                report(0, 0.9, true),
                report(1, 0.1, true),
                report(2, 0.0, false),
            ],
        };
        let sig = PolicySignals {
            skew: 1.5,
            high_streak: 2,
            ..Default::default()
        };
        let s = signal_vector(&view, &sig);
        assert!((s.mean_active_cpu - 0.5).abs() < 1e-9);
        assert!((s.max_cpu - 0.9).abs() < 1e-9);
        // The skew is the policy's (helpers excluded), not the view's.
        assert_eq!(s.heat_skew, 1.5);
        assert_eq!(s.high_streak, 2);
        assert_eq!(s.active_nodes, 2);
        assert_eq!(s.standby_nodes, 1);
    }
}
