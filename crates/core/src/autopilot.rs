//! The elasticity autopilot: §3.4's master control loop as a first-class
//! subsystem.
//!
//! The paper's cluster is *self*-resizing: every node reports utilization
//! to the master every few seconds, the master compares the reports to
//! thresholds (80 % CPU bound), powers nodes up or down, and repartitions
//! online. [`AutoPilot`] packages that loop — monitoring
//! ([`crate::monitor`]), the threshold policy ([`crate::policy`]),
//! decision application, and post-drain node suspension — behind one
//! handle, and keeps a queryable [`ControlEvent`] log so Fig. 6-style
//! timeseries can be annotated with the exact moments the cluster decided
//! to change size.
//!
//! The loop holds no guard, no span and no bookkeeping of its own. Each
//! window: a failed node still referenced by the replica map becomes a
//! [`Decision::Promote`]; [`crate::migration::settle`] closes what has
//! landed since the last window (the failover episode once the factor is
//! restored, a finished drain — suspending its nodes); the policy's
//! decision goes to [`policy::apply`] — [`policy::plan`] turns it into a
//! plan or names the guard that refused, [`crate::migration::run`]
//! carries the plan out and returns what it started ([`Applied`]).
//! Whatever came of it is written by **one** `log` closure — the
//! timeline's `DecisionRecord` and the facade's [`ControlEvent`] from the
//! same arguments (`Hold` is recorded on the timeline only).
//!
//! Engage it through the facade:
//!
//! ```
//! use wattdb_common::{NodeId, SimDuration};
//! use wattdb_core::api::WattDb;
//!
//! let mut db = WattDb::builder()
//!     .nodes(4)
//!     .warehouses(2)
//!     .density(0.01)
//!     .initial_data_nodes(&[NodeId(0)])
//!     .autopilot(true)
//!     .build();
//! db.run_for(SimDuration::from_secs(30));
//! // Nothing overloaded: the controller held steady.
//! assert!(db.events().is_empty());
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use wattdb_common::{NodeId, SimDuration, SimTime};
use wattdb_sim::Sim;

use crate::cluster::{ClusterRc, Lifecycle};
use crate::migration::Applied;
use crate::monitor::{self, ClusterView};
use crate::policy::{self, Decision, ElasticityPolicy, PolicyConfig};

/// Controller configuration: the policy thresholds plus the monitoring
/// cadence ("the nodes send their monitoring data every few seconds").
#[derive(Debug, Clone, Copy)]
pub struct AutoPilotConfig {
    /// Elasticity thresholds (§3.4; 80 % CPU ceiling by default).
    pub policy: PolicyConfig,
    /// Monitoring window length.
    pub period: SimDuration,
}

impl Default for AutoPilotConfig {
    fn default() -> Self {
        Self {
            policy: PolicyConfig::default(),
            period: SimDuration::from_secs(5),
        }
    }
}

/// Compact snapshot of the monitoring view a decision was based on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewSummary {
    /// Mean CPU utilization across active nodes.
    pub mean_active_cpu: f64,
    /// Hottest active node's CPU utilization.
    pub max_cpu: f64,
    /// Heat-skew ratio at the time (hottest active node's heat over the
    /// mean; see [`ClusterView::heat_skew`]).
    pub heat_skew: f64,
    /// Active nodes at the time.
    pub active_nodes: usize,
    /// Standby nodes at the time.
    pub standby_nodes: usize,
}

impl ViewSummary {
    fn of(view: &ClusterView) -> Self {
        let active: Vec<_> = view.reports.iter().filter(|r| r.active).collect();
        Self {
            mean_active_cpu: view.mean_active_cpu(),
            max_cpu: active.iter().map(|r| r.cpu).fold(0.0, f64::max),
            heat_skew: view.heat_skew(&[]).0,
            active_nodes: active.len(),
            standby_nodes: view.reports.len() - active.len(),
        }
    }
}

/// What became of a policy decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The decision was applied: nodes powered, a rebalance started.
    Applied,
    /// The decision could not be acted on this window.
    Deferred {
        /// Why it was deferred (e.g. a rebalance already in flight).
        reason: &'static str,
    },
    /// A completed drain let the controller power nodes down to standby.
    Suspended {
        /// Nodes returned to standby.
        nodes: Vec<NodeId>,
    },
}

/// One entry of the controller's decision log.
#[derive(Debug, Clone)]
pub struct ControlEvent {
    /// Virtual time of the monitoring window.
    pub at: SimTime,
    /// The view the decision was based on.
    pub view: ViewSummary,
    /// What the policy decided.
    pub decision: Decision,
    /// Which threshold drove the decision: `"cpu-high"` (scale-out),
    /// `"cpu-low"` (scale-in), `"heat-skew"` (rebalance-in-place),
    /// `"helper"` (helper attach/detach — the skew trigger escalated or
    /// its skew subsided), `"failover"` (a failed node's segments were
    /// promoted to followers), or `""` for bookkeeping entries like
    /// post-drain suspension.
    pub trigger: &'static str,
    /// What the controller did about it.
    pub outcome: Outcome,
    /// For an applied helper attachment, the plan's predicted
    /// net/remote-traffic relief (the summed net-heat of the helped
    /// sources); zero for every other entry.
    pub relief: f64,
    /// For applied decisions, the planner that actually produced the
    /// moves (the heat-aware path can fall back to the fraction
    /// heuristic); otherwise the planner configured at the time.
    pub planner: wattdb_planner::Planner,
    /// The heat signal the view was built from: `"cost"` (scalarized
    /// access cost) or `"count"` (flat weighted access counts).
    pub signal: &'static str,
}

/// The threshold a decision variant answers to.
fn trigger_of(decision: &Decision) -> &'static str {
    match decision {
        Decision::Hold => "",
        Decision::ScaleOut { .. } => "cpu-high",
        Decision::ScaleIn { .. } => "cpu-low",
        Decision::Rebalance { .. } => "heat-skew",
        Decision::AttachHelpers { .. } | Decision::DetachHelpers { .. } => "helper",
        Decision::Promote { .. } => "failover",
    }
}

struct Shared {
    events: Vec<ControlEvent>,
    engaged: bool,
}

/// Handle to a running elasticity control loop.
///
/// Cloning shares the underlying state; the loop itself lives inside the
/// simulator's event queue and keeps running until [`disengage`]d.
///
/// [`disengage`]: AutoPilot::disengage
#[derive(Clone)]
pub struct AutoPilot {
    shared: Rc<RefCell<Shared>>,
}

impl AutoPilot {
    /// Start the control loop on `cl`: every `config.period` the master
    /// assembles a [`ClusterView`], evaluates the [`ElasticityPolicy`],
    /// applies scale-out/scale-in decisions, and suspends drained nodes.
    pub fn engage(cl: &ClusterRc, sim: &mut Sim, config: AutoPilotConfig) -> AutoPilot {
        let mut policy_cfg = config.policy;
        // Skew rebalances are heat-planned segment moves; logical
        // repartitioning moves key ranges and cannot execute them, so the
        // trigger is disabled outright rather than firing decisions that
        // would be refused forever.
        if cl.borrow().cfg.scheme == crate::cluster::Scheme::Logical {
            policy_cfg.skew_threshold = 0.0;
        }
        let signal = cl.borrow().heat.signal_label();
        let mut policy = ElasticityPolicy::new(policy_cfg);
        let shared = Rc::new(RefCell::new(Shared {
            events: Vec::new(),
            engaged: true,
        }));
        let handle = shared.clone();
        monitor::start_monitoring(cl, sim, config.period, move |cl, sim, view| {
            if !handle.borrow().engaged {
                return false;
            }
            let at = sim.now();
            let summary = ViewSummary::of(view);
            // Freeze this window's metrics first: every decision record
            // below shares the window index with the sample it was based
            // on.
            let window = crate::telemetry_sink::sample_window(
                &mut cl.borrow_mut(),
                view,
                at,
                sim.events_executed(),
            );
            // The one place a decision is recorded: the timeline's
            // `DecisionRecord` and the facade's `ControlEvent`, from the
            // same arguments. `signals` is the policy's frozen vector *as
            // of the call* — last window's for the records written before
            // this window's `evaluate`, this window's after it.
            let log = |signals: policy::PolicySignals,
                       decision: Decision,
                       trigger: &'static str,
                       outcome: Outcome,
                       applied: Option<Applied>,
                       span: Option<wattdb_telemetry::SpanId>| {
                crate::telemetry_sink::record_decision(
                    &mut cl.borrow_mut(),
                    window,
                    at,
                    &decision,
                    trigger,
                    crate::telemetry_sink::outcome_label(&outcome),
                    crate::telemetry_sink::signal_vector(view, &signals),
                    applied.and_then(|a| a.predicted),
                    span,
                );
                // An applied helper attachment logs the plan's predicted
                // net-traffic relief.
                let relief = match (&decision, applied) {
                    (Decision::AttachHelpers { .. }, Some(a)) => a.predicted.unwrap_or(0.0),
                    _ => 0.0,
                };
                handle.borrow_mut().events.push(ControlEvent {
                    at,
                    view: summary,
                    decision,
                    trigger,
                    outcome,
                    relief,
                    planner: applied.map_or(policy_cfg.planner, |a| a.planner),
                    signal,
                });
            };
            // Apply a decision and record what became of it. The policy
            // module owns every guard; the controller only relays the
            // refusal it names.
            let act = |sim: &mut Sim, signals: policy::PolicySignals, decision: Decision| {
                let applied = policy::apply(cl, sim, &decision, &policy_cfg);
                let outcome = match applied {
                    Ok(_) => Outcome::Applied,
                    Err(reason) => Outcome::Deferred { reason },
                };
                let applied = applied.ok();
                let trigger = trigger_of(&decision);
                log(
                    signals,
                    decision,
                    trigger,
                    outcome,
                    applied,
                    applied.and_then(|a| a.span),
                );
            };
            let rebalancing = cl.borrow().mover.is_some();
            // Failover detection outranks every threshold: a failed node
            // still referenced by the replica map means orphaned segments
            // and dangling follower slots, and `policy::apply` acts on a
            // promotion even while a rebalance is in flight. One node per
            // window (lowest id first) keeps the event log legible.
            let c = cl.borrow();
            let map = c.replication.map();
            let dead = c.failed_nodes().find(|&n| map.references(n));
            drop(c);
            if let Some(failed) = dead {
                let orphaned = cl.borrow().replication.map().led_by(failed);
                act(
                    sim,
                    policy.signals(),
                    Decision::Promote { failed, orphaned },
                );
            }
            // Background factor repair: a follower copy voided mid-flight
            // (its host died, or a migration moved leadership while the
            // bytes were on the wire) leaves segments under the factor
            // with no failover left to re-fire. Once no copy is left on a
            // chain, re-plan whatever is still missing a follower; with
            // no eligible host this plans nothing and costs nothing.
            let needs_repair = {
                let c = cl.borrow();
                !crate::migration::copying(&c) && !c.replication.under_replicated().is_empty()
            };
            if needs_repair {
                crate::failover::schedule_rereplication(cl, sim);
            }
            // Episodes whose work has landed close: the failover span once
            // the factor is restored, and a scale-in's drain that finished
            // since the last window — its nodes suspend, and the log says
            // so.
            if let Some(done) = crate::migration::settle(cl, sim) {
                log(
                    policy.signals(),
                    Decision::ScaleIn {
                        drain: done.drained,
                    },
                    "",
                    Outcome::Suspended {
                        nodes: done.suspended,
                    },
                    None,
                    Some(done.span),
                );
            }
            // Observe *after* any suspension, so a node just returned to
            // standby is immediately available as a scale-out target.
            let (standby, with_data) = observe(cl);
            // The policy manages only the helpers it attached itself, by
            // their `(source, helper)` pairs: a scripted attachment
            // belongs to the migration engine (it detaches with its
            // rebalance's completion) and is invisible here.
            let pairs = cl.borrow().helpers.pairs();
            let decision = policy.evaluate(view, &standby, &with_data, rebalancing, &pairs);
            // `evaluate` froze this window's signal vector; every record
            // below — Hold included — carries it, so the exported timeline
            // can explain *why* each decision (or non-decision) was made.
            if decision != Decision::Hold {
                act(sim, policy.signals(), decision);
            } else {
                // Hold is a decision too: the exported timeline shows the
                // signal vector the policy held on, window by window. It
                // stays out of the facade's event log.
                crate::telemetry_sink::record_decision(
                    &mut cl.borrow_mut(),
                    window,
                    at,
                    &Decision::Hold,
                    "",
                    "hold".to_string(),
                    crate::telemetry_sink::signal_vector(view, &policy.signals()),
                    None,
                    None,
                );
            }
            true
        });
        AutoPilot { shared }
    }

    /// Snapshot of the decision log so far.
    pub fn events(&self) -> Vec<ControlEvent> {
        self.shared.borrow().events.clone()
    }

    /// Is the loop still scheduled?
    pub fn is_engaged(&self) -> bool {
        self.shared.borrow().engaged
    }

    /// Stop the loop at the next monitoring window; the event log stays
    /// readable.
    pub fn disengage(&self) {
        self.shared.borrow_mut().engaged = false;
    }
}

/// What the master needs beyond the utilization view: which nodes could
/// power on and which hold data.
fn observe(cl: &ClusterRc) -> (Vec<NodeId>, Vec<NodeId>) {
    let c = cl.borrow();
    let standby: Vec<NodeId> = c
        .nodes
        .iter()
        .filter(|n| n.life == Lifecycle::Standby)
        .map(|n| n.id)
        .collect();
    let mut with_data: Vec<NodeId> = c
        .nodes
        .iter()
        .filter(|n| c.seg_dir.on_node(n.id).next().is_some())
        .map(|n| n.id)
        .collect();
    with_data.sort_unstable();
    (standby, with_data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::WattDb;
    use wattdb_common::NodeId;

    fn quiet_db() -> WattDb {
        WattDb::builder()
            .nodes(4)
            .warehouses(2)
            .density(0.01)
            .segment_pages(8)
            .seed(11)
            .initial_data_nodes(&[NodeId(0), NodeId(1)])
            .autopilot(true)
            .build()
    }

    #[test]
    fn idle_cluster_never_scales_out() {
        let mut db = quiet_db();
        db.run_for(SimDuration::from_secs(60));
        // No load at all: CPUs idle below both bounds, but scale-in needs
        // >1 data node *and* actives under the low bound — which holds, so
        // the only permissible decisions are scale-ins, never scale-outs.
        for e in db.events() {
            assert!(
                !matches!(e.decision, Decision::ScaleOut { .. }),
                "unexpected scale-out: {e:?}"
            );
        }
    }

    #[test]
    fn disengage_stops_the_log() {
        let mut db = WattDb::builder()
            .nodes(4)
            .warehouses(2)
            .density(0.01)
            .segment_pages(8)
            .seed(11)
            .initial_data_nodes(&[NodeId(0), NodeId(1)])
            .build();
        let pilot =
            db.with_runtime(|cl, sim| AutoPilot::engage(cl, sim, AutoPilotConfig::default()));
        db.run_for(SimDuration::from_secs(30));
        pilot.disengage();
        db.run_for(SimDuration::from_secs(60));
        let frozen = pilot.events().len();
        db.run_for(SimDuration::from_secs(60));
        assert_eq!(pilot.events().len(), frozen, "no decisions after disengage");
        assert!(!pilot.is_engaged());
    }

    #[test]
    fn view_summary_aggregates() {
        use crate::monitor::NodeReport;
        let view = ClusterView {
            reports: vec![
                NodeReport {
                    node: NodeId(0),
                    at: SimTime::ZERO,
                    cpu: 0.9,
                    disk: 0.0,
                    net_tx: 0.0,
                    buffer_hit_ratio: 0.0,
                    heat: 0.0,
                    replica_ship_tx: 0.0,
                    replica_fanout: 0.0,
                    active: true,
                },
                NodeReport {
                    node: NodeId(1),
                    at: SimTime::ZERO,
                    cpu: 0.1,
                    disk: 0.0,
                    net_tx: 0.0,
                    buffer_hit_ratio: 0.0,
                    heat: 0.0,
                    replica_ship_tx: 0.0,
                    replica_fanout: 0.0,
                    active: true,
                },
                NodeReport {
                    node: NodeId(2),
                    at: SimTime::ZERO,
                    cpu: 0.0,
                    disk: 0.0,
                    net_tx: 0.0,
                    buffer_hit_ratio: 0.0,
                    heat: 0.0,
                    replica_ship_tx: 0.0,
                    replica_fanout: 0.0,
                    active: false,
                },
            ],
        };
        let s = ViewSummary::of(&view);
        assert!((s.mean_active_cpu - 0.5).abs() < 1e-9);
        assert!((s.max_cpu - 0.9).abs() < 1e-9);
        assert_eq!(s.heat_skew, 0.0, "no heat, no skew");
        assert_eq!(s.active_nodes, 2);
        assert_eq!(s.standby_nodes, 1);
    }
}
