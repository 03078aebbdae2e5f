//! The elasticity autopilot: §3.4's master control step, run by the
//! policy slot of a deployment's one monitoring window.
//!
//! The paper's cluster is *self*-resizing: every node reports utilization
//! to the master every few seconds, the master compares the reports to
//! thresholds (80 % CPU bound), powers nodes up or down, and repartitions
//! online. The reporting half is the window loop
//! [`crate::monitor::start_monitoring`] arms — one per deployment. Each
//! window it samples the nodes, freezes the telemetry window, and then
//! runs `step` on the view: the threshold policy ([`crate::policy`]) in
//! the cluster's slot, [`Cluster::policy`], decides, and the decision is
//! logged as a [`ControlEvent`], so Fig. 6-style timeseries can be
//! annotated with the exact moments the cluster decided to change size.
//! An empty slot decides nothing; `engage` (through
//! [`crate::api::WattDb::engage_autopilot`]) puts a policy in, or swaps
//! the one there, and the window keeps its cadence.
//!
//! The step holds no guard, no span and no bookkeeping of its own. Each
//! window with a policy engaged: a failed node still referenced by the
//! replica map becomes a [`Decision::Promote`];
//! [`crate::migration::settle`] closes what has landed since the last
//! window (the failover episode once the factor is restored, a finished
//! drain — suspending its nodes); the policy's decision goes to
//! [`policy::apply`] — [`policy::plan`] turns it into a plan or names the
//! guard that refused, [`crate::migration::run`] carries the plan out and
//! returns what it started ([`Applied`]). Whatever came of it — a hold
//! included — is written by **one** `log` closure as one typed
//! [`ControlEvent`] on the telemetry timeline's bounded ring. The JSONL
//! export and `explain()` render its labels when they run;
//! [`crate::api::WattDb::events`] reads the ring's non-hold entries.
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

use wattdb_common::{NodeId, SimTime};
use wattdb_sim::Sim;
use wattdb_telemetry::{SignalVector, SpanId};

use crate::cluster::{Cluster, ClusterRc, Lifecycle, Scheme};
use crate::migration::Applied;
use crate::monitor::ClusterView;
use crate::policy::{self, Decision, ElasticityPolicy, PolicyConfig};

/// What became of a policy decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The policy held: nothing to act on this window.
    Hold,
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

/// One entry of the controller's decision log: the record the telemetry
/// timeline stores, rendered as a `DecisionRecord` only on export.
#[derive(Debug, Clone)]
pub struct ControlEvent {
    /// Monitoring window the decision was taken in (the index of the
    /// window sample it was based on).
    pub window: u64,
    /// Virtual time of the monitoring window.
    pub at: SimTime,
    /// The signal vector the decision was based on.
    pub signals: SignalVector,
    /// What the policy decided.
    pub decision: Decision,
    /// Which threshold drove the decision: `"cpu-high"` (scale-out),
    /// `"cpu-low"` (scale-in), `"heat-skew"` (rebalance-in-place),
    /// `"helper"` (helper attach/detach — the skew trigger escalated or
    /// its skew subsided), `"failover"` (a failed node's segments were
    /// promoted to followers), or `""` for a hold and for bookkeeping
    /// entries like post-drain suspension.
    pub trigger: &'static str,
    /// What the controller did about it.
    pub outcome: Outcome,
    /// For an applied decision that made one, the plan's predicted
    /// benefit: net/remote-traffic relief for a helper attachment (the
    /// summed net-heat of the helped sources), planned heat share for a
    /// rebalance.
    pub predicted: Option<f64>,
    /// For applied decisions, the planner that actually produced the
    /// moves (the heat-aware path can fall back to the fraction
    /// heuristic); otherwise the planner configured at the time.
    pub planner: wattdb_planner::Planner,
    /// Span of the operation the decision started, when applied.
    pub span: Option<SpanId>,
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

/// Put `cfg` in the cluster's policy slot, replacing any policy there
/// (its streaks and cooldowns go with it; the decision log stays). The
/// window loop runs it from its next window on.
pub(crate) fn engage(c: &mut Cluster, mut cfg: PolicyConfig) {
    // Skew rebalances are heat-planned segment moves; logical
    // repartitioning moves key ranges and cannot execute them, so the
    // trigger is disabled outright rather than firing decisions that
    // would be refused forever.
    if c.cfg.scheme == Scheme::Logical {
        cfg.skew_threshold = 0.0;
    }
    c.policy = Some(ElasticityPolicy::new(cfg));
}

/// One window's control step, on the `view` the window loop sampled and
/// froze as telemetry window `window`: assess failures and repairs,
/// settle what has landed, evaluate the policy, act, and log. Nothing
/// happens while the slot is empty. The policy is out of the slot for
/// the step, because the actions it takes borrow the cluster.
pub(crate) fn step(cl: &ClusterRc, sim: &mut Sim, view: &ClusterView, window: u64) {
    let Some(mut policy) = cl.borrow_mut().policy.take() else {
        return;
    };
    let cfg = *policy.config();
    let at = sim.now();
    // The one place a decision is recorded, on the telemetry timeline.
    // `signals` is the policy's frozen vector *as of the call* — last
    // window's for the records written before this window's `evaluate`,
    // this window's after it.
    let log = |signals: policy::PolicySignals,
               decision: Decision,
               trigger: &'static str,
               outcome: Outcome,
               applied: Option<Applied>,
               span: Option<SpanId>| {
        let event = ControlEvent {
            window,
            at,
            signals: crate::telemetry_sink::signal_vector(view, &signals),
            decision,
            trigger,
            outcome,
            predicted: applied.and_then(|a| a.predicted),
            planner: applied.map_or(cfg.planner, |a| a.planner),
            span,
        };
        cl.borrow_mut().telemetry.timeline.push(event);
    };
    // Apply a decision and record what became of it. The policy module
    // owns every guard; the controller only relays the refusal it names.
    let act = |sim: &mut Sim, signals: policy::PolicySignals, decision: Decision| {
        let applied = policy::apply(cl, sim, &decision, &cfg);
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
    // Failover detection outranks every threshold: a failed node still
    // referenced by the replica map means orphaned segments and dangling
    // follower slots, and `policy::apply` acts on a promotion even while
    // a rebalance is in flight. One node per window (lowest id first)
    // keeps the event log legible.
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
    // Background factor repair: a follower copy voided mid-flight (its
    // host died, or a migration moved leadership while the bytes were on
    // the wire) leaves segments under the factor with no failover left
    // to re-fire. Once no copy is left on a chain, re-plan whatever is
    // still missing a follower; with no eligible host this plans nothing
    // and costs nothing.
    let needs_repair = {
        let c = cl.borrow();
        !crate::migration::copying(&c) && !c.replication.under_replicated().is_empty()
    };
    if needs_repair {
        crate::failover::schedule_rereplication(cl, sim);
    }
    // Episodes whose work has landed close: the failover span once the
    // factor is restored, and a scale-in's drain that finished since the
    // last window — its nodes suspend, and the log says so.
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
    // Observe *after* any suspension, so a node just returned to standby
    // is immediately available as a scale-out target.
    let (standby, with_data) = observe(cl);
    // The policy manages only the helpers it attached itself, by their
    // `(source, helper)` pairs: a scripted attachment belongs to the
    // migration engine (it detaches with its rebalance's completion) and
    // is invisible here.
    let pairs = cl.borrow().helpers.pairs();
    let decision = policy.evaluate(view, &standby, &with_data, rebalancing, &pairs);
    // `evaluate` froze this window's signal vector; the record below —
    // Hold included — carries it, so the exported timeline can explain
    // *why* each decision (or non-decision) was made.
    if decision == Decision::Hold {
        log(policy.signals(), decision, "", Outcome::Hold, None, None);
    } else {
        act(sim, policy.signals(), decision);
    }
    cl.borrow_mut().policy = Some(policy);
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
    use wattdb_common::SimDuration;

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
}
