//! Threshold-driven elasticity policy (§3.4), extended with a heat-skew
//! trigger.
//!
//! "The master checks the incoming performance data to predefined
//! thresholds — with both upper and lower bounds. If an overloaded
//! component is detected, it will decide where to distribute data and
//! whether to power on additional nodes [...] Similarly, underutilized
//! nodes trigger a scale-in protocol." The CPU ceiling is 80 %.
//!
//! The paper rebalances on load *imbalance*, not just saturation: beyond
//! the CPU bounds, the policy watches [`ClusterView::heat_skew`] and
//! emits a [`Decision::Rebalance`] — data moves between the *existing*
//! active nodes, no node powered on or off — when one node carries a
//! disproportionate share of the access heat for a patience window.
//! Scale-in picks the **coldest** drainable node (its segments are the
//! cheapest to relocate), not the highest-numbered one.
//!
//! Deciding is split from doing. [`plan`] turns a [`Decision`] into a
//! [`ControlPlan`] — plain data: nodes to power, moves, drains, follower
//! re-homes, helpers to wire or release — and is *pure*: it reads the
//! cluster and changes nothing. It owns every guard (one rebalance at a
//! time, no drain of a node inside the active migration, no drain that
//! strands follower copies) and every planner fallback, and names the
//! guard that refused. [`crate::migration::run`] carries a plan out and
//! returns what it started ([`Applied`]: planner, span, prediction);
//! [`apply`] is the two in sequence. The autopilot relays the refusal; it
//! re-derives nothing.

use wattdb_common::{HelperPolicyConfig, KeyRange, NodeId, SegmentId, SimTime};
use wattdb_planner::Planner;
use wattdb_sim::Sim;

use crate::cluster::{Cluster, ClusterRc, Scheme};
use crate::heat;
use crate::migration::{
    nodes_in_flight, run, Applied, ControlPlan, HelperAttach, Pending, RangeMove,
};
use crate::monitor::ClusterView;

/// Policy thresholds.
#[derive(Debug, Clone, Copy)]
pub struct PolicyConfig {
    /// Scale out when an active node's CPU exceeds this (paper: 0.8).
    pub cpu_high: f64,
    /// Scale in when all active nodes sit below this.
    pub cpu_low: f64,
    /// Consecutive breaching windows before acting (hysteresis). Shared
    /// by the CPU triggers and the heat-skew trigger.
    pub patience: u32,
    /// Which planner turns decisions into segment moves.
    pub planner: Planner,
    /// Heat-skew ratio ([`ClusterView::heat_skew`]: hottest active node's
    /// heat over the mean) that arms the skew trigger. Values ≤ 0 disable
    /// the trigger entirely; it is also inert unless `planner` is
    /// [`Planner::HeatAware`] (skew decisions are heat-planned segment
    /// moves). The skew must stay armed for `patience` windows before a
    /// [`Decision::Rebalance`] fires.
    pub skew_threshold: f64,
    /// Monitoring windows the skew trigger stays disarmed after firing,
    /// bounding rebalance churn to at most one skew rebalance per
    /// `skew_cooldown + patience` windows.
    pub skew_cooldown: u32,
    /// Helper escalation: when the skew trigger keeps re-firing without
    /// the skew ever subsiding (transient skew — the last rebalance did
    /// not fix it), the policy stops shipping segments and attaches
    /// Fig. 8 helper nodes to the hot sources instead
    /// ([`Decision::AttachHelpers`]). See [`HelperPolicyConfig`].
    pub helper: HelperPolicyConfig,
    /// NIC egress utilization above which a node counts as saturated when
    /// the policy sizes the cluster — so an attached helper drowning in
    /// shipped log traffic and remote buffer reads weighs into the
    /// scale-out signal even though its *CPU* stays modest. Values ≥ 1
    /// disable the NIC signal.
    pub net_high: f64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            cpu_high: 0.8,
            cpu_low: 0.25,
            patience: 3,
            planner: Planner::HeatAware,
            skew_threshold: 1.5,
            skew_cooldown: 3,
            helper: HelperPolicyConfig::default(),
            net_high: 0.9,
        }
    }
}

/// What the policy decided for one monitoring window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Nothing to do.
    Hold,
    /// Spread data from the overloaded sources to fresh targets.
    ScaleOut {
        /// Overloaded nodes to relieve.
        sources: Vec<NodeId>,
        /// Standby nodes to power on.
        targets: Vec<NodeId>,
    },
    /// Consolidate data away from underutilized nodes (drain + power off).
    ScaleIn {
        /// Nodes to drain.
        drain: Vec<NodeId>,
    },
    /// Rebalance heat between the *existing* active nodes — no node
    /// powered on or off. Fired by the heat-skew trigger when one node
    /// hogs the access heat without breaching the CPU ceiling.
    Rebalance {
        /// Nodes carrying more than the mean heat.
        sources: Vec<NodeId>,
        /// Cooler active nodes to receive the surplus.
        targets: Vec<NodeId>,
    },
    /// Attach Fig. 8 helper nodes to the hot sources instead of shipping
    /// segments. Fired when the skew trigger escalates: it kept re-firing
    /// without the skew ever subsiding, so the skew is transient and a
    /// rebalance would chase a hotspot that moves on before the copy
    /// lands. Which helpers (and which of the sources deserve one) is
    /// decided by the helper planner when the decision is planned
    /// ([`crate::heat::plan_helpers`]).
    AttachHelpers {
        /// Nodes carrying more than the mean heat — the planner ranks
        /// these by their net/remote-heavy heat component.
        sources: Vec<NodeId>,
        /// Cooler active nodes — the targets of the [`Decision::Rebalance`]
        /// this fire would otherwise have been, which [`plan`] falls back
        /// to when the helper plan comes back empty.
        targets: Vec<NodeId>,
    },
    /// Detach the currently attached helpers: the skew they answered has
    /// subsided (fallen below the rearm band, or the cluster cooled below
    /// the heat floor). May name a *subset* of the attached helpers when
    /// only some sources subsided (see
    /// [`ElasticityPolicy::evaluate`]).
    DetachHelpers {
        /// Helpers attached at decision time.
        helpers: Vec<NodeId>,
    },
    /// Fail over a dead node: promote the most-caught-up follower of
    /// every segment it led, re-cover the key space, and schedule
    /// re-replication ([`crate::failover`]). Fired by the autopilot the
    /// window it notices a failed node still referenced in the replica
    /// map; outranks every other decision and applies even while a
    /// rebalance is in flight.
    Promote {
        /// The failed node.
        failed: NodeId,
        /// Segments the dead node led at decision time, in id order.
        orphaned: Vec<SegmentId>,
    },
}

/// The signal vector frozen at the top of every
/// [`ElasticityPolicy::evaluate`] call, right after the skew trigger
/// ticked: the skew ratio and mean heat the branches acted on, the armed
/// skew streak *including* this window, cooldown and escalation state,
/// and the CPU streak counters as of the previous window (this window's
/// breach, if any, increments them after the freeze). The telemetry
/// timeline records this with every decision — `Hold` included — so
/// `explain()` can say *why* nothing happened.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicySignals {
    /// Heat-skew ratio over data-serving actives (helpers excluded).
    pub skew: f64,
    /// Mean active heat the skew was computed against.
    pub mean_heat: f64,
    /// Armed skew streak including this window.
    pub skew_streak: u32,
    /// Skew cooldown windows still to serve.
    pub cooldown_left: u32,
    /// Decisive skew fires since the last subsidence.
    pub skew_fires: u32,
    /// Whether this window's skew read as subsided.
    pub subsided: bool,
    /// Consecutive hot windows before this one.
    pub high_streak: u32,
    /// Consecutive all-low windows before this one.
    pub low_streak: u32,
}

/// Hysteresis of the skew trigger: an armed streak resets only once the
/// skew falls below `skew_threshold × SKEW_REARM`, so a skew hovering
/// right at the threshold neither re-fires endlessly nor loses its
/// streak.
const SKEW_REARM: f64 = 0.9;

/// Mean active-node heat below which the skew trigger stays silent:
/// ratios over near-zero heat are noise, and rebalancing a cooling
/// cluster that is about to scale in wastes the bytes.
const SKEW_MIN_HEAT: f64 = 1.0;

/// Stateful policy evaluated once per monitoring window.
#[derive(Debug)]
pub struct ElasticityPolicy {
    cfg: PolicyConfig,
    high_streak: u32,
    low_streak: u32,
    skew_streak: u32,
    skew_cooldown_left: u32,
    /// Consecutive skew fires with no subsidence in between — the
    /// escalation signal: rebalances that never make the skew fall back
    /// below the rearm band are chasing a transient hotspot.
    skew_fires: u32,
    /// Whether this window's skew had subsided (set by `tick_skew`;
    /// always false while the trigger is inert): the signal the helper
    /// detach branch reuses, so detach and streak/escalation reset can
    /// never disagree on what "subsided" means.
    subsided_now: bool,
    /// Consecutive windows each helped *source* has spent below the
    /// per-source rearm band ([`ElasticityPolicy::evaluate`]):
    /// a source's helper is only released once its streak outlasts
    /// `skew_cooldown`, so a flapping hotspot that cools for a couple of
    /// windows keeps its helper instead of churning through
    /// detach/re-attach cycles.
    cool_streaks: std::collections::BTreeMap<NodeId, u32>,
    /// Signal vector frozen by the most recent `evaluate` call.
    signals: PolicySignals,
}

impl ElasticityPolicy {
    /// Policy with the given thresholds.
    pub fn new(cfg: PolicyConfig) -> Self {
        Self {
            cfg,
            high_streak: 0,
            low_streak: 0,
            skew_streak: 0,
            skew_cooldown_left: 0,
            skew_fires: 0,
            subsided_now: false,
            cool_streaks: std::collections::BTreeMap::new(),
            signals: PolicySignals::default(),
        }
    }

    /// The signal vector the most recent [`ElasticityPolicy::evaluate`]
    /// call acted on (see [`PolicySignals`] for freeze semantics).
    pub fn signals(&self) -> PolicySignals {
        self.signals
    }

    /// The policy's decision over `helpers`, the helper nodes the policy
    /// itself attached: while any are, the skew trigger holds its fire
    /// (the helpers *are* the response in force) and the policy instead
    /// watches for subsidence to emit [`Decision::DetachHelpers`].
    /// Attached helpers are excluded from the skew signals themselves:
    /// they are active nodes holding no heat, and counting them would
    /// inflate the ratio enough to mask every subsidence (see
    /// [`ClusterView::heat_skew`]).
    ///
    /// Precedence: CPU saturation (scale-out) beats everything — an
    /// overloaded cluster needs more hardware, not reshuffling. A
    /// cluster-wide idle spell (scale-in) beats the skew trigger —
    /// rebalancing nodes that are about to be drained ships bytes twice.
    /// Only then does heat skew get a say.
    fn decide(
        &mut self,
        view: &ClusterView,
        standby: &[NodeId],
        active_with_data: &[NodeId],
        rebalancing: bool,
        helpers: &[NodeId],
    ) -> Decision {
        // The skew machinery ticks every window, whichever branch ends up
        // deciding: streak, hysteresis band, and cooldown must never go
        // stale just because the cluster spent a stretch in the all-low or
        // overloaded regime.
        let skew_ready = self.tick_skew(view, active_with_data, helpers);
        // Freeze the signal vector the branches below act on: the
        // telemetry timeline attaches it to this window's decision.
        let (skew, mean_heat) = view.heat_skew(helpers);
        self.signals = PolicySignals {
            skew,
            mean_heat,
            skew_streak: self.skew_streak,
            cooldown_left: self.skew_cooldown_left,
            skew_fires: self.skew_fires,
            subsided: self.subsided_now,
            high_streak: self.high_streak,
            low_streak: self.low_streak,
        };
        // Attached helpers detach the moment the skew they answered
        // subsides — before any other branch gets a say, so a cooling
        // cluster releases its helpers before it starts scaling in.
        // `subsided_now` comes from the tick above: the *same* predicate
        // that resets the streak and the escalation counter. The caller
        // passes only the helpers the *policy* attached — a scripted
        // Fig. 8 run's set is invisible here (and released by the
        // migration engine on its rebalance's completion), so the
        // decision below can never name a helper the policy doesn't own.
        if !helpers.is_empty() && !rebalancing && self.subsided_now {
            return Decision::DetachHelpers {
                helpers: helpers.to_vec(),
            };
        }
        // A node saturates on CPU *or* on its NIC: an attached helper
        // absorbing log shipping and remote buffer reads loads its
        // interconnect rather than its CPU, and must still count when
        // sizing the cluster. The NIC signal is muted while a rebalance
        // is in flight — bulk segment copies saturate the source's egress
        // by design, and reading that self-inflicted burst as load would
        // demand scale-out (hence more copying) from a cluster that is
        // merely reorganizing itself. Steady-state replica shipping is
        // subtracted for the same reason: a replicated hot-read workload
        // fans its WAL out to followers every window, and counting that
        // egress as workload would let replication self-trigger spurious
        // scale-outs.
        let hot: Vec<NodeId> = view
            .reports
            .iter()
            .filter(|r| {
                let workload_tx = (r.net_tx - r.replica_ship_tx).max(0.0);
                r.active
                    && (r.cpu > self.cfg.cpu_high
                        || (!rebalancing && workload_tx > self.cfg.net_high))
            })
            .map(|r| r.node)
            .collect();
        if !hot.is_empty() {
            // The hot streak counts breaching windows regardless of
            // standby availability: a cluster that has been hot for longer
            // than `patience` acts the moment a standby frees up, instead
            // of restarting its patience from zero.
            self.high_streak += 1;
            self.low_streak = 0;
            if self.high_streak >= self.cfg.patience && !standby.is_empty() {
                self.high_streak = 0;
                let targets: Vec<NodeId> = standby.iter().copied().take(hot.len()).collect();
                return Decision::ScaleOut {
                    sources: hot,
                    targets,
                };
            }
            // No standby (or not patient yet): a skewed cluster can still
            // help itself by spreading heat over its existing nodes.
            return self.fire_skew(view, skew_ready, rebalancing, helpers);
        }
        // Scale-in: every active data node under the low bound and more
        // than one of them (never drain the last node).
        let active: Vec<_> = view.reports.iter().filter(|r| r.active).collect();
        let all_low = !active.is_empty()
            && active.iter().all(|r| r.cpu < self.cfg.cpu_low)
            && active_with_data.len() > 1;
        if all_low {
            self.low_streak += 1;
            self.high_streak = 0;
            if self.low_streak >= self.cfg.patience {
                self.low_streak = 0;
                // Drain the *coldest* data node: its segments are the
                // cheapest to relocate and the survivors inherit the least
                // heat.
                let drain = coldest_drain_target(view, active_with_data)
                    .map(|n| vec![n])
                    .unwrap_or_default();
                if !drain.is_empty() {
                    return Decision::ScaleIn { drain };
                }
            }
            return Decision::Hold;
        }
        self.low_streak = 0;
        self.high_streak = 0;
        self.fire_skew(view, skew_ready, rebalancing, helpers)
    }

    /// Evaluate one monitoring view. `standby` lists nodes available to
    /// power on; `active_with_data` the nodes currently serving;
    /// `rebalancing` whether a migration is already in flight (a skew
    /// fire would only be deferred, so the trigger stays armed instead of
    /// burning its streak and cooldown on a decision nobody can act on);
    /// `pairs` the `(source, helper)` wiring of the helpers the *policy
    /// itself* attached ([`crate::helpers::Helpers::pairs`]; a scripted
    /// attachment belongs to the migration engine and detaches with its
    /// rebalance's completion).
    ///
    /// The pairing enables **partial detach**: when the cluster-wide skew
    /// persists (so the all-or-nothing subsidence detach stays silent)
    /// but an *individual* source has cooled below the rearm band, that
    /// source's helper is released on its own — instead of staying wired
    /// until every source subsides at once. A helper still serving any
    /// hot source stays; a helper whose source vanished from the view
    /// (drained or failed) is released too. Release waits out a
    /// per-source cool streak of `max(skew_cooldown, 1)` windows, so a
    /// hotspot flapping between nodes keeps both helpers wired instead
    /// of churning through detach/re-attach cycles every flip.
    pub fn evaluate(
        &mut self,
        view: &ClusterView,
        standby: &[NodeId],
        active_with_data: &[NodeId],
        rebalancing: bool,
        pairs: &[(NodeId, NodeId)],
    ) -> Decision {
        let mut helpers: Vec<NodeId> = pairs.iter().map(|&(_, h)| h).collect();
        helpers.sort_unstable();
        helpers.dedup();
        let decision = self.decide(view, standby, active_with_data, rebalancing, &helpers);
        if decision != Decision::Hold || helpers.is_empty() || rebalancing {
            return decision;
        }
        let (_, mean_heat) = view.heat_skew(&helpers);
        if mean_heat < SKEW_MIN_HEAT {
            // A cooling cluster is the *global* subsidence case — the
            // delegate above owns it (and just chose to hold).
            return decision;
        }
        // A source has subsided when its own heat sits below the rearm
        // band relative to the mean — the per-node restriction of the
        // cluster-wide predicate in `tick_skew`.
        let band = self.cfg.skew_threshold * SKEW_REARM;
        let subsided = |src: NodeId| {
            view.reports
                .iter()
                .find(|r| r.node == src && r.active)
                .map(|r| r.heat < mean_heat * band)
                .unwrap_or(true) // source gone: nothing left to relieve
        };
        // Hysteresis: one cool window is not subsidence — a bimodal flap
        // parks each source below the band for a few windows at a time,
        // and tearing its helper away mid-flap just re-attaches it on the
        // next flip. A source must stay cool for more than `skew_cooldown`
        // consecutive windows (at least one) before its helper lets go —
        // the same horizon that bounds the skew trigger's own churn.
        let mut sources: Vec<NodeId> = pairs.iter().map(|&(src, _)| src).collect();
        sources.sort_unstable();
        sources.dedup();
        self.cool_streaks.retain(|src, _| sources.contains(src));
        for &src in &sources {
            let streak = self.cool_streaks.entry(src).or_insert(0);
            *streak = if subsided(src) { *streak + 1 } else { 0 };
        }
        let need = self.cfg.skew_cooldown.max(1);
        let released = |src: NodeId| self.cool_streaks.get(&src).copied().unwrap_or(0) >= need;
        let keep: Vec<NodeId> = pairs
            .iter()
            .filter(|&&(src, _)| !released(src))
            .map(|&(_, h)| h)
            .collect();
        let mut release: Vec<NodeId> = pairs
            .iter()
            .filter(|&&(src, h)| released(src) && !keep.contains(&h))
            .map(|&(_, h)| h)
            .collect();
        release.sort_unstable();
        release.dedup();
        if release.is_empty() {
            decision
        } else {
            Decision::DetachHelpers { helpers: release }
        }
    }

    /// Advance the heat-skew trigger's state for this window: arm while
    /// the skew ratio exceeds the threshold, hold the streak inside the
    /// hysteresis band ([`SKEW_REARM`]), reset below it, and count the
    /// post-fire cooldown down. Returns whether the trigger is ready to
    /// fire (armed this window with `patience` behind it).
    ///
    /// The trigger is inert when disabled — or when the configured
    /// planner is not heat-aware: skew is a heat signal, and firing
    /// decisions the fraction planner cannot execute would churn the
    /// event log forever without moving a byte.
    fn tick_skew(
        &mut self,
        view: &ClusterView,
        active_with_data: &[NodeId],
        helpers: &[NodeId],
    ) -> bool {
        let cfg = &self.cfg;
        if cfg.skew_threshold <= 0.0 || cfg.planner != Planner::HeatAware {
            self.subsided_now = false;
            return false;
        }
        let (skew, mean_heat) = view.heat_skew(helpers);
        // The single subsidence predicate: below the rearm band, or the
        // cluster cooled below the heat floor. It resets the armed streak
        // and the escalation counter, and drives the helper detach.
        let subsided = skew < cfg.skew_threshold * SKEW_REARM || mean_heat < SKEW_MIN_HEAT;
        self.subsided_now = subsided;
        // The escalation counter watches for subsidence every window —
        // including cooldown windows, or a skew that briefly healed
        // during the cooldown would still look transient.
        if subsided {
            self.skew_fires = 0;
        }
        if self.skew_cooldown_left > 0 {
            self.skew_cooldown_left -= 1;
            self.skew_streak = 0;
            return false;
        }
        let armed =
            skew > cfg.skew_threshold && mean_heat >= SKEW_MIN_HEAT && active_with_data.len() > 1;
        if armed {
            self.skew_streak += 1;
        } else if subsided {
            self.skew_streak = 0;
        }
        armed && self.skew_streak >= cfg.patience
    }

    /// Emit the skew response when the trigger is ready and no migration
    /// is in flight. Firing consumes the streak and arms the cooldown;
    /// a ready trigger held back by an in-flight rebalance keeps its
    /// streak and fires on the first clear window instead. A ready
    /// trigger with helpers already attached holds too — the helpers are
    /// the response in force, and detach is the only way forward. A fire
    /// that decides nothing (no source above or no target at the mean)
    /// is a plain hold: it consumes neither the streak nor the cooldown,
    /// and never counts towards escalation.
    ///
    /// Each decisive fire without an intervening subsidence counts
    /// towards helper escalation: once `helper.escalation_fires` such
    /// fires accumulate, the decision switches from shipping segments to
    /// attaching Fig. 8 helpers ([`Decision::AttachHelpers`]) — the skew
    /// is transient, and a rebalance would chase it.
    fn fire_skew(
        &mut self,
        view: &ClusterView,
        ready: bool,
        rebalancing: bool,
        helpers: &[NodeId],
    ) -> Decision {
        if !ready || rebalancing || !helpers.is_empty() {
            return Decision::Hold;
        }
        // Sources shed towards cooler actives: above-mean nodes give,
        // the rest receive. Attached helpers are neither — they hold no
        // heat of their own (though none can be attached on this path).
        let active: Vec<_> = view
            .reports
            .iter()
            .filter(|r| r.active && !helpers.contains(&r.node))
            .collect();
        let (_, mean_heat) = view.heat_skew(helpers);
        let sources: Vec<NodeId> = active
            .iter()
            .filter(|r| r.heat > mean_heat)
            .map(|r| r.node)
            .collect();
        let targets: Vec<NodeId> = active
            .iter()
            .filter(|r| r.heat <= mean_heat)
            .map(|r| r.node)
            .collect();
        if sources.is_empty() || targets.is_empty() {
            return Decision::Hold;
        }
        self.skew_streak = 0;
        self.skew_cooldown_left = self.cfg.skew_cooldown;
        self.skew_fires += 1;
        let h = &self.cfg.helper;
        if h.escalation_fires > 0 && self.skew_fires >= h.escalation_fires {
            return Decision::AttachHelpers { sources, targets };
        }
        Decision::Rebalance { sources, targets }
    }

    /// Thresholds in force.
    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }
}

/// The coldest drainable node: lowest *effective* load — reported leader
/// heat plus the follower-serving load the node carries, priced as its
/// read fan-out share of the total active heat (a node absorbing the
/// replica read rotation is doing real work its own heat table never
/// sees, and draining it would dump that fan-out back onto the leaders).
/// Ties break by replica-shipping egress, then lowest CPU, then highest
/// id (the legacy drain order). The master (node 0) is never drained
/// while another candidate exists — it cannot be suspended afterwards
/// anyway.
///
/// With distinct per-node signals the choice depends only on the
/// reported *signals*, never on the numbering, so renumbering the nodes
/// renames the answer without changing which physical node drains.
pub fn coldest_drain_target(view: &ClusterView, active_with_data: &[NodeId]) -> Option<NodeId> {
    let mut candidates: Vec<NodeId> = active_with_data
        .iter()
        .copied()
        .filter(|n| !n.is_master())
        .collect();
    if candidates.is_empty() {
        candidates = active_with_data.to_vec();
    }
    let total_heat: f64 = view
        .reports
        .iter()
        .filter(|r| r.active)
        .map(|r| r.heat)
        .sum();
    candidates
        .into_iter()
        .filter_map(|n| {
            view.reports
                .iter()
                .find(|r| r.node == n && r.active)
                .map(|r| {
                    let effective = r.heat + r.replica_fanout * total_heat;
                    (n, effective, r.replica_ship_tx, r.cpu)
                })
        })
        .min_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| a.3.partial_cmp(&b.3).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| b.0.cmp(&a.0))
        })
        .map(|(n, _, _, _)| n)
}

/// Fraction of each hot source's data a scale-out moves when the heat
/// plan finds nothing movable (and under [`Planner::Fraction`] or the
/// logical scheme, always).
const MOVE_FRACTION: f64 = 0.5;

/// Turn a decision into the [`ControlPlan`] that carries it out, or name
/// why nothing can be done. Pure: reads the cluster, changes nothing —
/// every guard and every planner fallback lives here, and the one
/// fraction heuristic ([`ControlPlan::fraction`]) sits below it.
///
/// The refusals, each named by the guard that raised it: `"rebalance in
/// flight"` (one rebalance at a time), `"drain node is part of the active
/// migration"`, `"drain node hosts follower replicas"`, and `"no
/// applicable plan"`. Logical repartitioning moves key ranges rather than
/// segments, so it always plans with the fraction heuristic regardless of
/// the configured planner. A scale-out whose heat plan finds nothing
/// movable (no heat recorded) falls back to a fraction; a heat-planned
/// drain always empties its nodes, so it needs no fallback.
pub fn plan(
    c: &Cluster,
    now: SimTime,
    decision: &Decision,
    cfg: &PolicyConfig,
) -> Result<ControlPlan, &'static str> {
    const NO_PLAN: &str = "no applicable plan";
    // Failover outranks the one-rebalance-at-a-time rule: a dead node
    // cannot wait out a migration — the migration may itself be wedged on
    // the corpse (its pending moves were dropped by `fail_node`, its
    // in-flight copy voids on completion).
    if let Decision::Promote { failed, .. } = decision {
        return Ok(ControlPlan {
            planner: cfg.planner,
            promote: Some(*failed),
            ..Default::default()
        });
    }
    if c.mover.is_some() {
        // One rebalance at a time. A drain aimed at a node the in-flight
        // migration is filling or emptying gets its own reason: until the
        // moves land the segment directory understates what the node will
        // hold, and the drain plan would race the mover.
        let busy = nodes_in_flight(c);
        return Err(match decision {
            Decision::ScaleIn { drain } if drain.iter().any(|n| busy.contains(n)) => {
                "drain node is part of the active migration"
            }
            _ => "rebalance in flight",
        });
    }
    let heat_aware = cfg.planner == Planner::HeatAware && c.cfg.scheme != Scheme::Logical;
    // Skew is a heat signal; without the heat-aware planner — or under
    // logical partitioning, which moves ranges — there is no sound way to
    // act on it, and a plan that finds nothing movable starts nothing.
    let heat_moves = |sources: &[NodeId], targets: &[NodeId]| {
        if !heat_aware || targets.is_empty() {
            return None;
        }
        let p = heat::plan_scale_out(c, now, sources, targets);
        (!p.moves.is_empty()).then(|| ControlPlan::planned(&p, targets))
    };
    match decision {
        Decision::Hold | Decision::Promote { .. } => Err(NO_PLAN),
        Decision::ScaleOut { targets, .. } if targets.is_empty() => Err(NO_PLAN),
        // No heat recorded (or nothing movable improves balance): fall
        // back to the fraction heuristic so the cluster still reacts to
        // the CPU signal.
        Decision::ScaleOut { sources, targets } => Ok(heat_moves(sources, targets)
            .unwrap_or_else(|| ControlPlan::fraction(c, now, MOVE_FRACTION, sources, targets))),
        Decision::Rebalance { sources, targets } => heat_moves(sources, targets).ok_or(NO_PLAN),
        Decision::AttachHelpers { sources, targets } => {
            // Helper choice is a heat decision too: the planner ranks the
            // sources by their net/remote-heavy heat component and pairs
            // the heaviest with standbys / coldest actives.
            if !heat_aware {
                return Err(NO_PLAN);
            }
            let helpers = heat::plan_helpers(c, now, &cfg.helper, sources);
            if !helpers.is_empty() {
                // Policy helpers are not scripted: they ride out unrelated
                // migrations and detach only on skew subsidence.
                return Ok(ControlPlan {
                    planner: Planner::HeatAware,
                    attach: Some(HelperAttach::planned(&helpers, false)),
                    ..Default::default()
                });
            }
            // No helper worth attaching (nobody clears the net-heat floor,
            // or every candidate is entangled): fall back to the rebalance
            // this fire would otherwise have been — same targets, same
            // planning path. The escalation counter only resets on
            // subsidence, so without this fallback a persistent-but-
            // fixable skew would re-escalate into refused attachments
            // forever, never shipping the segments that would fix it.
            let mut fallback = heat_moves(sources, targets).ok_or(NO_PLAN)?;
            // Kept on purpose until ROADMAP 8(e) bumps the export format:
            // the fallback reports as the empty attachment, `(None, Some(0.0))`.
            fallback.attach = Some(HelperAttach::default());
            Ok(fallback)
        }
        Decision::DetachHelpers { helpers } => {
            // Release exactly the helpers the decision names — the set
            // the policy attached (possibly a per-source subset). A
            // scripted attachment alongside belongs to the migration
            // engine and must survive a policy-side subsidence detach.
            let detach: Vec<NodeId> = (helpers.iter().copied())
                .filter(|&h| c.helpers.contains(h))
                .collect();
            if detach.is_empty() {
                return Err(NO_PLAN);
            }
            Ok(ControlPlan {
                planner: cfg.planner,
                detach,
                ..Default::default()
            })
        }
        Decision::ScaleIn { drain } => {
            // Move *everything* off the drained nodes onto the remaining
            // data nodes in one atomic "move leaders + re-home followers"
            // plan; the re-homes execute whichever planner moves the
            // leaders, so even a fraction-path drain keeps the factor. With
            // no segment to move no rebalance starts, and the nodes suspend
            // once the re-homes clear them of replica duty.
            let targets: Vec<NodeId> = (c.active_nodes().into_iter())
                .filter(|n| !drain.contains(n) && c.seg_dir.on_node(*n).next().is_some())
                .collect();
            let dp = heat::plan_drain_replicated(c, now, drain, &targets);
            // A drained node hosting follower copies may only go once every
            // copy has a replacement host in that plan; with no target no
            // plan runs, so none has (a copy still on a chain already refused
            // the drain above). Refusal, not half-execution: suspending a
            // live follower host silently halves redundancy. Checked first so
            // the timeline always says *why* the cluster stayed big.
            let hosts_copies =
                (drain.iter()).any(|&n| !c.replication.map().followed_by(n).is_empty());
            if hosts_copies && (targets.is_empty() || !dp.is_fully_covered()) {
                return Err("drain node hosts follower replicas");
            }
            if targets.is_empty() {
                return Err(NO_PLAN);
            }
            let moves = if heat_aware {
                ControlPlan::planned(&dp.plan, &targets)
            } else {
                ControlPlan::fraction(c, now, 1.0, drain, &targets)
            };
            Ok(ControlPlan {
                drain: drain.clone(),
                rehomes: dp.rehomes,
                ..moves
            })
        }
    }
}

impl ControlPlan {
    /// The fraction heuristic: the upper `fraction` of each source's data
    /// goes to `targets` round-robin, one chain per source in the given
    /// order. Under the segment schemes it is
    /// [`wattdb_planner::plan_fraction`] over the segments each source
    /// stores; under logical partitioning it is the record-count range cut
    /// below. With no target nothing starts.
    pub fn fraction(
        c: &Cluster,
        now: SimTime,
        fraction: f64,
        sources: &[NodeId],
        targets: &[NodeId],
    ) -> Self {
        if targets.is_empty() {
            return ControlPlan {
                planner: Planner::Fraction,
                ..Default::default()
            };
        }
        let moves = if c.cfg.scheme == Scheme::Logical {
            range_cut(c, fraction, sources, targets)
        } else {
            let stats = heat::segment_stats(c, now, c.cfg.heat.horizon);
            let plan = wattdb_planner::plan_fraction(&stats, fraction, sources, targets);
            plan.moves.into_iter().map(Pending::Segment).collect()
        };
        ControlPlan {
            planner: Planner::Fraction,
            sources: sources.to_vec(),
            moves,
            power_up: targets.to_vec(),
            ..Default::default()
        }
    }
}

/// The logical fraction cut: per (table, source) partition, the key range
/// holding the upper `fraction` *of its records*, to `targets` round-robin.
/// The cut point is found by walking the partition's segments in key order
/// and accumulating their record counts — cutting the raw key-space
/// envelope instead would be meaningless, since edge partitions extend to
/// the key-space limits.
fn range_cut(c: &Cluster, fraction: f64, sources: &[NodeId], targets: &[NodeId]) -> Vec<Pending> {
    let mut moves = Vec::new();
    for (i, &src) in sources.iter().enumerate() {
        let to = targets[i % targets.len()];
        for part in c.partitions.values().filter(|p| p.node == src) {
            let (segs, table) = (part.top.segments(), part.table);
            let records = |s: SegmentId| c.seg_dir.get(s).map_or(0, |m| m.records);
            let total: u64 = segs.iter().map(|&(s, _)| records(s)).sum();
            let keep = ((total as f64) * (1.0 - fraction)) as u64;
            let mut cum = 0;
            let cut = segs.iter().find(|&&(s, _)| {
                let past = cum >= keep;
                cum += records(s);
                past
            });
            let (Some(&(_, cut)), Some(&(_, last))) = (cut, segs.last()) else {
                continue;
            };
            let range = KeyRange::new(cut.start, last.end);
            if total > 0 && !range.is_empty() {
                moves.push(Pending::Range(RangeMove {
                    table,
                    range,
                    from: src,
                    to,
                }));
            }
        }
    }
    moves
}

/// The single path from a [`Decision`] to the cluster: [`plan`] it, then
/// [`run`] the plan. Returns what was started, or the refusal `plan`
/// named.
pub fn apply(
    cl: &ClusterRc,
    sim: &mut Sim,
    decision: &Decision,
    cfg: &PolicyConfig,
) -> Result<Applied, &'static str> {
    let plan = plan(&cl.borrow(), sim.now(), decision, cfg)?;
    Ok(run(cl, sim, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NodeReport;
    use wattdb_common::SimTime;

    fn view(cpus: &[(u16, f64)]) -> ClusterView {
        ClusterView {
            reports: cpus
                .iter()
                .map(|&(n, cpu)| NodeReport {
                    node: NodeId(n),
                    at: SimTime::ZERO,
                    cpu,
                    disk: 0.0,
                    net_tx: 0.0,
                    heat: 0.0,
                    replica_ship_tx: 0.0,
                    replica_fanout: 0.0,
                    active: true,
                })
                .collect(),
        }
    }

    /// A view with explicit per-node heats (all CPUs moderate).
    fn heat_view(heats: &[(u16, f64)]) -> ClusterView {
        ClusterView {
            reports: heats
                .iter()
                .map(|&(n, heat)| NodeReport {
                    node: NodeId(n),
                    at: SimTime::ZERO,
                    cpu: 0.5,
                    disk: 0.0,
                    net_tx: 0.0,
                    heat,
                    replica_ship_tx: 0.0,
                    replica_fanout: 0.0,
                    active: true,
                })
                .collect(),
        }
    }

    #[test]
    fn scale_out_after_patience() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 2,
            ..Default::default()
        });
        let hot = view(&[(0, 0.95), (1, 0.5)]);
        let standby = [NodeId(2), NodeId(3)];
        let data = [NodeId(0), NodeId(1)];
        assert_eq!(
            p.evaluate(&hot, &standby, &data, false, &[]),
            Decision::Hold
        );
        match p.evaluate(&hot, &standby, &data, false, &[]) {
            Decision::ScaleOut { sources, targets } => {
                assert_eq!(sources, vec![NodeId(0)]);
                assert_eq!(targets, vec![NodeId(2)]);
            }
            other => panic!("expected scale-out, got {other:?}"),
        }
    }

    #[test]
    fn no_scale_out_without_standby_nodes() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            ..Default::default()
        });
        let hot = view(&[(0, 0.95)]);
        assert_eq!(
            p.evaluate(&hot, &[], &[NodeId(0)], false, &[]),
            Decision::Hold
        );
    }

    #[test]
    fn hot_streak_survives_standby_scarcity() {
        // The cluster is hot for `patience` windows while no standby
        // exists; the moment one frees up, the policy acts immediately
        // instead of restarting its patience from zero.
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 3,
            ..Default::default()
        });
        let hot = view(&[(0, 0.95)]);
        let data = [NodeId(0)];
        assert_eq!(p.evaluate(&hot, &[], &data, false, &[]), Decision::Hold);
        assert_eq!(p.evaluate(&hot, &[], &data, false, &[]), Decision::Hold);
        assert_eq!(p.evaluate(&hot, &[], &data, false, &[]), Decision::Hold);
        let standby = [NodeId(2)];
        match p.evaluate(&hot, &standby, &data, false, &[]) {
            Decision::ScaleOut { sources, targets } => {
                assert_eq!(sources, vec![NodeId(0)]);
                assert_eq!(targets, vec![NodeId(2)]);
            }
            other => panic!("expected immediate scale-out, got {other:?}"),
        }
    }

    #[test]
    fn scale_in_when_everyone_idles() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 2,
            ..Default::default()
        });
        let idle = view(&[(0, 0.05), (1, 0.1)]);
        let data = [NodeId(0), NodeId(1)];
        assert_eq!(p.evaluate(&idle, &[], &data, false, &[]), Decision::Hold);
        match p.evaluate(&idle, &[], &data, false, &[]) {
            Decision::ScaleIn { drain } => assert_eq!(drain, vec![NodeId(1)]),
            other => panic!("expected scale-in, got {other:?}"),
        }
    }

    #[test]
    fn scale_in_drains_the_coldest_node() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            ..Default::default()
        });
        // Node 1 is hot, node 2 cold: node 2 drains even though node 1
        // has the higher number under the legacy rule... and both idle.
        let mut v = heat_view(&[(0, 5.0), (1, 9.0), (2, 1.0)]);
        for r in &mut v.reports {
            r.cpu = 0.05;
        }
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        match p.evaluate(&v, &[], &data, false, &[]) {
            Decision::ScaleIn { drain } => assert_eq!(drain, vec![NodeId(2)]),
            other => panic!("expected coldest-node scale-in, got {other:?}"),
        }
    }

    #[test]
    fn scale_in_never_drains_the_master_while_alternatives_exist() {
        let v = heat_view(&[(0, 0.0), (1, 4.0), (2, 8.0)]);
        // Master (node 0) is the literal coldest; node 1 drains instead.
        let pick = coldest_drain_target(&v, &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(pick, Some(NodeId(1)));
    }

    #[test]
    fn never_drain_the_last_data_node() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            ..Default::default()
        });
        let idle = view(&[(0, 0.05)]);
        assert_eq!(
            p.evaluate(&idle, &[], &[NodeId(0)], false, &[]),
            Decision::Hold
        );
    }

    #[test]
    fn hysteresis_resets_on_recovery() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 3,
            ..Default::default()
        });
        let hot = view(&[(0, 0.95)]);
        let cool = view(&[(0, 0.5)]);
        let standby = [NodeId(2)];
        let data = [NodeId(0)];
        p.evaluate(&hot, &standby, &data, false, &[]);
        p.evaluate(&hot, &standby, &data, false, &[]);
        p.evaluate(&cool, &standby, &data, false, &[]); // streak resets
        assert_eq!(
            p.evaluate(&hot, &standby, &data, false, &[]),
            Decision::Hold
        );
    }

    #[test]
    fn skew_trigger_fires_after_patience() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 2,
            skew_threshold: 1.5,
            ..Default::default()
        });
        // Node 0 carries 10 of 12 heat units: skew = 10 / 4 = 2.5.
        let skewed = heat_view(&[(0, 10.0), (1, 1.0), (2, 1.0)]);
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(p.evaluate(&skewed, &[], &data, false, &[]), Decision::Hold);
        match p.evaluate(&skewed, &[], &data, false, &[]) {
            Decision::Rebalance { sources, targets } => {
                assert_eq!(sources, vec![NodeId(0)]);
                assert_eq!(targets, vec![NodeId(1), NodeId(2)]);
            }
            other => panic!("expected skew rebalance, got {other:?}"),
        }
        // Cooldown: the very next armed windows must not re-fire.
        for _ in 0..p.config().skew_cooldown {
            assert_eq!(p.evaluate(&skewed, &[], &data, false, &[]), Decision::Hold);
        }
    }

    #[test]
    fn skew_trigger_ignores_balanced_and_cold_clusters() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            skew_threshold: 1.5,
            ..Default::default()
        });
        let data = [NodeId(0), NodeId(1)];
        // Balanced: skew 1.0, never fires.
        let balanced = heat_view(&[(0, 6.0), (1, 6.0)]);
        for _ in 0..5 {
            assert_eq!(
                p.evaluate(&balanced, &[], &data, false, &[]),
                Decision::Hold
            );
        }
        // Skewed shape but negligible absolute heat: below the floor.
        let cold = heat_view(&[(0, 0.4), (1, 0.01)]);
        for _ in 0..5 {
            assert_eq!(p.evaluate(&cold, &[], &data, false, &[]), Decision::Hold);
        }
        // Disabled trigger never fires regardless of skew.
        let mut off = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            skew_threshold: 0.0,
            ..Default::default()
        });
        let skewed = heat_view(&[(0, 100.0), (1, 1.0)]);
        for _ in 0..5 {
            assert_eq!(
                off.evaluate(&skewed, &[], &data, false, &[]),
                Decision::Hold
            );
        }
    }

    #[test]
    fn skew_trigger_is_inert_without_the_heat_aware_planner() {
        // Skew decisions are heat-planned segment moves; under the
        // fraction planner the trigger must never fire (it would be
        // refused by `apply` forever).
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            planner: Planner::Fraction,
            skew_threshold: 1.5,
            ..Default::default()
        });
        let skewed = heat_view(&[(0, 100.0), (1, 1.0)]);
        let data = [NodeId(0), NodeId(1)];
        for _ in 0..5 {
            assert_eq!(p.evaluate(&skewed, &[], &data, false, &[]), Decision::Hold);
        }
    }

    #[test]
    fn skew_streak_ticks_even_when_another_branch_decides() {
        // Two armed windows, then an all-low stretch during which the
        // skew decays back to balance: the streak must reset (the old
        // code froze it), so a single armed window afterwards cannot
        // fire with patience 3.
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 3,
            cpu_low: 0.25,
            skew_threshold: 1.5,
            skew_cooldown: 0,
            ..Default::default()
        });
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        let armed = heat_view(&[(0, 9.0), (1, 1.0), (2, 2.0)]); // skew 2.25
        let mut idle_balanced = heat_view(&[(0, 4.0), (1, 4.0), (2, 4.0)]); // skew 1.0
        for r in &mut idle_balanced.reports {
            r.cpu = 0.05; // all-low regime: the scale-in branch decides
        }
        assert_eq!(p.evaluate(&armed, &[], &data, false, &[]), Decision::Hold);
        assert_eq!(p.evaluate(&armed, &[], &data, false, &[]), Decision::Hold);
        // All-low window: scale-in path runs, but the balanced skew must
        // still reset the streak.
        p.evaluate(&idle_balanced, &[], &data, false, &[]);
        assert_eq!(
            p.evaluate(&armed, &[], &data, false, &[]),
            Decision::Hold,
            "stale streak must not fire after one armed window"
        );
    }

    #[test]
    fn ready_skew_trigger_waits_out_an_inflight_rebalance() {
        // A ready trigger held back by `rebalancing` keeps its streak and
        // cooldown intact and fires on the first clear window.
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 2,
            skew_threshold: 1.5,
            ..Default::default()
        });
        let skewed = heat_view(&[(0, 10.0), (1, 1.0), (2, 1.0)]);
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(p.evaluate(&skewed, &[], &data, false, &[]), Decision::Hold);
        // Ready, but a migration is in flight: held, not consumed.
        assert_eq!(p.evaluate(&skewed, &[], &data, true, &[]), Decision::Hold);
        assert_eq!(p.evaluate(&skewed, &[], &data, true, &[]), Decision::Hold);
        match p.evaluate(&skewed, &[], &data, false, &[]) {
            Decision::Rebalance { .. } => {}
            other => panic!("expected immediate fire on the clear window, got {other:?}"),
        }
    }

    #[test]
    fn skew_refire_without_subsidence_escalates_to_helpers() {
        // Default escalation (2 fires): the first skew fire rebalances;
        // when the skew re-fires the moment cooldown + patience allow —
        // without ever subsiding in between, so the rebalance evidently
        // did not fix it — the second fire attaches helpers instead.
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 2,
            skew_threshold: 1.5,
            skew_cooldown: 1,
            ..Default::default()
        });
        assert_eq!(p.config().helper.escalation_fires, 2);
        let skewed = heat_view(&[(0, 10.0), (1, 1.0), (2, 1.0)]);
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(p.evaluate(&skewed, &[], &data, false, &[]), Decision::Hold);
        match p.evaluate(&skewed, &[], &data, false, &[]) {
            Decision::Rebalance { .. } => {}
            other => panic!("first fire ships segments, got {other:?}"),
        }
        // Cooldown window, then the patience re-accumulates — the skew
        // never subsided.
        assert_eq!(p.evaluate(&skewed, &[], &data, false, &[]), Decision::Hold);
        assert_eq!(p.evaluate(&skewed, &[], &data, false, &[]), Decision::Hold);
        match p.evaluate(&skewed, &[], &data, false, &[]) {
            Decision::AttachHelpers { sources, .. } => assert_eq!(sources, vec![NodeId(0)]),
            other => panic!("transient skew must escalate to helpers, got {other:?}"),
        }
    }

    #[test]
    fn subsidence_between_fires_resets_the_escalation() {
        // The skew subsides after the first rebalance (it worked): the
        // next skew episode starts over with a fresh rebalance, never
        // helpers.
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            skew_threshold: 1.5,
            skew_cooldown: 1,
            ..Default::default()
        });
        let skewed = heat_view(&[(0, 10.0), (1, 1.0), (2, 1.0)]);
        let balanced = heat_view(&[(0, 4.0), (1, 4.0), (2, 4.0)]);
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        for episode in 0..3 {
            match p.evaluate(&skewed, &[], &data, false, &[]) {
                Decision::Rebalance { .. } => {}
                other => panic!("episode {episode}: expected a rebalance, got {other:?}"),
            }
            // Cooldown window, then the skew subsides for a stretch.
            p.evaluate(&skewed, &[], &data, false, &[]);
            for _ in 0..3 {
                assert_eq!(
                    p.evaluate(&balanced, &[], &data, false, &[]),
                    Decision::Hold
                );
            }
        }
    }

    #[test]
    fn attached_helpers_suppress_the_trigger_and_detach_on_subsidence() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            skew_threshold: 1.5,
            skew_cooldown: 0,
            ..Default::default()
        });
        let skewed = heat_view(&[(0, 10.0), (1, 1.0), (2, 1.0)]);
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        let pairs = [(NodeId(0), NodeId(3))];
        // Armed and ready, but helpers are the response in force: hold.
        for _ in 0..4 {
            assert_eq!(
                p.evaluate(&skewed, &[], &data, false, &pairs),
                Decision::Hold
            );
        }
        // The skew subsides: the helpers detach.
        let balanced = heat_view(&[(0, 4.0), (1, 4.0), (2, 4.0)]);
        match p.evaluate(&balanced, &[], &data, false, &pairs) {
            Decision::DetachHelpers { helpers: h } => assert_eq!(h, vec![NodeId(3)]),
            other => panic!("expected detach on subsidence, got {other:?}"),
        }
        // No helpers attached: subsidence is a plain hold.
        assert_eq!(
            p.evaluate(&balanced, &[], &data, false, &[]),
            Decision::Hold
        );
    }

    #[test]
    fn helper_zero_heat_never_masks_subsidence() {
        // The attached helpers appear in the view as active zero-heat
        // nodes (powered for the duty, serving no segments). Two balanced
        // data nodes plus two helpers would read skew = max/mean = 2.0 if
        // the helpers counted — above any sane rearm band, so the
        // subsidence predicate would never pass and the helpers would
        // stay powered forever. The signals must ignore them: balanced
        // data nodes release their helpers.
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            skew_threshold: 1.5,
            skew_cooldown: 0,
            ..Default::default()
        });
        let data = [NodeId(0), NodeId(1)];
        let pairs = [(NodeId(0), NodeId(2)), (NodeId(0), NodeId(3))];
        let balanced = heat_view(&[(0, 6.0), (1, 6.0), (2, 0.0), (3, 0.0)]);
        match p.evaluate(&balanced, &[], &data, false, &pairs) {
            Decision::DetachHelpers { helpers: h } => {
                assert_eq!(h, vec![NodeId(2), NodeId(3)]);
            }
            other => panic!("balanced data nodes must release the helpers, got {other:?}"),
        }
        // Conversely a *real* data-node skew keeps them attached.
        let skewed = heat_view(&[(0, 10.0), (1, 1.0), (2, 0.0), (3, 0.0)]);
        assert_eq!(
            p.evaluate(&skewed, &[], &data, false, &pairs),
            Decision::Hold,
            "helpers stay while the data-node skew persists"
        );
    }

    #[test]
    fn saturated_helper_nic_counts_towards_scale_out() {
        // Node 2's CPU is modest but its NIC drowns in shipped log
        // traffic and remote buffer reads (the shape a busy helper or
        // replica host presents): the scale-out signal must see it when
        // sizing the cluster.
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            ..Default::default()
        });
        let mut v = view(&[(0, 0.5), (1, 0.5), (2, 0.3)]);
        v.reports[2].net_tx = 0.95;
        let standby = [NodeId(3)];
        let data = [NodeId(0), NodeId(1)];
        match p.evaluate(&v, &standby, &data, false, &[]) {
            Decision::ScaleOut { sources, .. } => assert_eq!(sources, vec![NodeId(2)]),
            other => panic!("NIC-saturated node must size the cluster up, got {other:?}"),
        }
        // With the NIC signal disabled the same view holds.
        let mut off = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            net_high: 1.0,
            ..Default::default()
        });
        assert_eq!(
            off.evaluate(&v, &standby, &data, false, &[]),
            Decision::Hold
        );
    }

    #[test]
    fn nic_high_subtracts_replica_shipping_egress() {
        // Node 2's NIC runs hot, but nearly all of it is steady-state WAL
        // fan-out to followers — self-inflicted replication traffic, not
        // workload. The hot-set test must not size the cluster up for it.
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            ..Default::default()
        });
        let mut v = view(&[(0, 0.5), (1, 0.5), (2, 0.3)]);
        v.reports[2].net_tx = 0.95;
        v.reports[2].replica_ship_tx = 0.9;
        let standby = [NodeId(3)];
        let data = [NodeId(0), NodeId(1)];
        assert_eq!(
            p.evaluate(&v, &standby, &data, false, &[]),
            Decision::Hold,
            "replica shipping egress must not read as workload"
        );
        // The same NIC reading with no shipping behind it is real
        // workload and still fires.
        v.reports[2].replica_ship_tx = 0.0;
        match p.evaluate(&v, &standby, &data, false, &[]) {
            Decision::ScaleOut { sources, .. } => assert_eq!(sources, vec![NodeId(2)]),
            other => panic!("genuine NIC saturation must still scale out, got {other:?}"),
        }
    }

    #[test]
    fn scale_in_avoids_the_replica_fanout_absorber() {
        // Node 1 stores the least heat, but it is serving 80 % of the
        // cluster's routed replica reads: draining it would dump that
        // fan-out back onto the leaders. Node 2 — slightly hotter on
        // stored heat but idle on reads — is the cheaper drain.
        let mut v = heat_view(&[(0, 6.0), (1, 1.0), (2, 2.0)]);
        v.reports[1].replica_fanout = 0.8;
        let pick = coldest_drain_target(&v, &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(pick, Some(NodeId(2)));
        // With no fan-out, stored heat alone decides: node 1 drains.
        v.reports[1].replica_fanout = 0.0;
        let pick = coldest_drain_target(&v, &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(pick, Some(NodeId(1)));
    }

    #[test]
    fn partial_detach_releases_only_the_subsided_sources_helper() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            skew_threshold: 1.5,
            skew_cooldown: 0,
            ..Default::default()
        });
        // Sources 0 and 1 each wired to their own helper (3, 4). Source 0
        // stays hot — the cluster-wide skew persists, so the global
        // subsidence detach stays silent — while source 1 cooled below
        // the band: only *its* helper is released.
        let v = heat_view(&[(0, 10.0), (1, 0.2), (2, 2.0), (3, 0.0), (4, 0.0)]);
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        let pairs = [(NodeId(0), NodeId(3)), (NodeId(1), NodeId(4))];
        match p.evaluate(&v, &[], &data, false, &pairs) {
            Decision::DetachHelpers { helpers } => assert_eq!(helpers, vec![NodeId(4)]),
            other => panic!("expected a per-source detach, got {other:?}"),
        }
    }

    #[test]
    fn shared_helper_stays_while_any_of_its_sources_is_hot() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            skew_threshold: 1.5,
            skew_cooldown: 0,
            ..Default::default()
        });
        // One helper serves both sources; source 1 subsided but source 0
        // still burns: the shared helper must not be torn away.
        let v = heat_view(&[(0, 10.0), (1, 0.2), (2, 2.0), (3, 0.0)]);
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        let pairs = [(NodeId(0), NodeId(3)), (NodeId(1), NodeId(3))];
        assert_eq!(p.evaluate(&v, &[], &data, false, &pairs), Decision::Hold);
    }

    #[test]
    fn helpers_first_escalation_never_ships() {
        // escalation_fires = 1: every skew fire attaches helpers — the
        // configuration for workloads known to be transient.
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            skew_threshold: 1.5,
            skew_cooldown: 0,
            helper: wattdb_common::HelperPolicyConfig {
                escalation_fires: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        let skewed = heat_view(&[(0, 10.0), (1, 1.0), (2, 1.0)]);
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        match p.evaluate(&skewed, &[], &data, false, &[]) {
            Decision::AttachHelpers { sources, .. } => assert_eq!(sources, vec![NodeId(0)]),
            other => panic!("helpers-first config must never rebalance, got {other:?}"),
        }
    }

    #[test]
    fn zero_escalation_fires_disables_helper_escalation() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            skew_threshold: 1.5,
            skew_cooldown: 0,
            helper: wattdb_common::HelperPolicyConfig {
                escalation_fires: 0,
                ..Default::default()
            },
            ..Default::default()
        });
        let skewed = heat_view(&[(0, 10.0), (1, 1.0), (2, 1.0)]);
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        // Fires forever, never escalates: the pre-helper behaviour.
        for _ in 0..5 {
            match p.evaluate(&skewed, &[], &data, false, &[]) {
                Decision::Rebalance { .. } | Decision::Hold => {}
                other => panic!("escalation disabled, got {other:?}"),
            }
        }
    }

    #[test]
    fn skew_streak_survives_the_hysteresis_band() {
        // Threshold 2.0, rearm 0.9: skew dipping to 1.9 (inside the
        // [1.8, 2.0) band) holds the streak; dipping to 1.6 resets it.
        let cfg = PolicyConfig {
            patience: 3,
            skew_threshold: 2.0,
            skew_cooldown: 0,
            ..Default::default()
        };
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        // skew = max/mean over 3 nodes: craft exact ratios.
        let above = heat_view(&[(0, 9.0), (1, 1.0), (2, 2.0)]); // 9/4  = 2.25
        let band = heat_view(&[(0, 19.0), (1, 4.0), (2, 7.0)]); // 19/10 = 1.9
        let below = heat_view(&[(0, 8.0), (1, 3.0), (2, 4.0)]); // 8/5  = 1.6

        let mut p = ElasticityPolicy::new(cfg);
        p.evaluate(&above, &[], &data, false, &[]);
        p.evaluate(&above, &[], &data, false, &[]);
        p.evaluate(&band, &[], &data, false, &[]); // streak held, not advanced
        match p.evaluate(&above, &[], &data, false, &[]) {
            Decision::Rebalance { .. } => {}
            other => panic!("band preserved the streak, got {other:?}"),
        }

        let mut p = ElasticityPolicy::new(cfg);
        p.evaluate(&above, &[], &data, false, &[]);
        p.evaluate(&above, &[], &data, false, &[]);
        p.evaluate(&below, &[], &data, false, &[]); // full reset
        assert_eq!(p.evaluate(&above, &[], &data, false, &[]), Decision::Hold);
    }

    // ------------------------------------------------- the apply contract

    use crate::api::WattDb;
    use crate::cluster::Lifecycle;

    /// Four nodes, data on n0–n2, n3 standby.
    fn deployment(replication: usize) -> WattDb {
        WattDb::builder()
            .nodes(4)
            .warehouses(3)
            .density(0.01)
            .segment_pages(8)
            .io_scale(4000) // a rebalance stays in flight for the whole test
            .seed(11)
            .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
            .replication(replication)
            .build()
    }

    /// Queue a real follower copy onto `to` on a mover chain: an `n0`
    /// segment's follower elsewhere is re-homed there.
    fn queue_copy_onto(cl: &ClusterRc, sim: &mut Sim, to: NodeId) {
        let rehome = {
            let c = cl.borrow();
            let (seg, set) = (c.replication.map().iter())
                .find(|(_, s)| s.leader == NodeId(0) && !s.followers.contains(&to))
                .expect("an n0 segment followed elsewhere");
            let (leader, from) = (set.leader, set.followers[0]);
            wattdb_planner::FollowerRehome {
                seg,
                leader,
                from,
                to,
            }
        };
        crate::failover::schedule_follower_rehomes(cl, sim, &[rehome]);
    }

    fn apply_on(db: &mut WattDb, decision: &Decision) -> Result<Applied, &'static str> {
        db.with_runtime(|cl, sim| apply(cl, sim, decision, &PolicyConfig::default()))
    }

    /// Warm every segment on `node` through the synthetic injection path.
    fn warm(db: &mut WattDb, node: NodeId, reads: u32) {
        let now = db.now();
        db.with_runtime(|cl, _| {
            let mut c = cl.borrow_mut();
            let segs: Vec<_> = c.seg_dir.on_node(node).map(|m| m.id).collect();
            for seg in segs {
                for _ in 0..reads {
                    c.heat.record_read(seg, now);
                }
            }
        });
    }

    #[test]
    fn apply_names_each_refusal_at_its_guard() {
        let scale_out = |targets: &[u16]| Decision::ScaleOut {
            sources: vec![NodeId(0)],
            targets: targets.iter().map(|&n| NodeId(n)).collect(),
        };
        let drain = |n: u16| Decision::ScaleIn {
            drain: vec![NodeId(n)],
        };
        // (replication factor, in flight: a rebalance n0 → n3 unreplicated,
        // else a follower copy n0 → n2 on a chain, decision, reason)
        let table: [(usize, bool, Decision, &str); 7] = [
            (0, true, scale_out(&[3]), "rebalance in flight"),
            (0, true, drain(1), "rebalance in flight"),
            (
                0,
                true,
                drain(3),
                "drain node is part of the active migration",
            ),
            // A copy on a chain is a mover in flight: the map is
            // mid-reconciliation, so the drain must wait.
            (1, true, drain(1), "rebalance in flight"),
            (
                1,
                true,
                drain(2),
                "drain node is part of the active migration",
            ),
            // At factor 2 the two survivors cannot host a third copy.
            (2, false, drain(2), "drain node hosts follower replicas"),
            (0, false, scale_out(&[]), "no applicable plan"),
        ];
        for (factor, in_flight, decision, reason) in table {
            let mut db = deployment(factor);
            if in_flight && factor == 0 {
                db.rebalance(0.5, &[NodeId(0)], &[NodeId(3)]);
            }
            if in_flight && factor > 0 {
                db.with_runtime(|cl, sim| queue_copy_onto(cl, sim, NodeId(2)));
            }
            assert_eq!(db.rebalancing(), in_flight);
            let spans_before = db.with_cluster(|c| c.telemetry.spans.started());
            assert_eq!(
                apply_on(&mut db, &decision),
                Err(reason),
                "{decision:?} at factor {factor}, in flight {in_flight}"
            );
            // A refusal starts nothing: no span, no node marked draining.
            db.with_cluster(|c| {
                assert_eq!(c.telemetry.spans.started(), spans_before);
                assert!(c.draining_nodes().is_empty());
                assert_eq!(c.powerdown_span, None);
            });
        }
        assert_eq!(
            apply_on(&mut deployment(0), &Decision::Hold),
            Err("no applicable plan")
        );
    }

    /// Five nodes: data on n0–n2, n3 and n4 powered on but holding no
    /// segment. At `factor` 3 every segment starts followed by the other
    /// two data nodes, and each n1 segment gets its missing copy on n3.
    fn spare_actives(factor: usize) -> WattDb {
        let mut db = WattDb::builder()
            .nodes(5)
            .warehouses(3)
            .density(0.01)
            .segment_pages(8)
            .seed(11)
            .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
            .replication(factor)
            .build();
        db.with_runtime(|cl, _| {
            let c = &mut *cl.borrow_mut();
            c.power_on(NodeId(3));
            c.power_on(NodeId(4));
            let led_by_n1: Vec<_> = (c.replication.map().iter())
                .filter(|(_, set)| set.leader == NodeId(1) && set.followers.len() < factor)
                .map(|(seg, _)| seg)
                .collect();
            for seg in led_by_n1 {
                c.replication.add_copy(seg, NodeId(3), 0, &c.nodes);
            }
        });
        db
    }

    #[test]
    fn drain_guard_checks_the_plan_that_runs() {
        let drain = |nodes: &[u16]| Decision::ScaleIn {
            drain: nodes.iter().map(|&n| NodeId(n)).collect(),
        };
        // Draining n1 and n2 leaves n0 as the only data node, so every
        // leader moves there. An n1 segment (followers n0, n2, n3) then
        // needs one copy off {n0, n3}: n4 hosts it. A plan that also sent
        // leaders to the empty n3 and n4 would put that segment's leader on
        // n4 and find no host for the copy.
        let mut db = spare_actives(3);
        assert!(db.with_cluster(|c| c.replication.map().followed_by(NodeId(3)).len()) > 0);
        assert_eq!(apply_on(&mut db, &drain(&[1, 2])).map(|_| ()), Ok(()));
        assert_eq!(
            db.with_cluster(|c| c.draining_nodes()),
            vec![NodeId(1), NodeId(2)]
        );
        // Draining every data node leaves no target, so no plan runs: with
        // copies on the drained nodes the follower guard refuses first,
        // without any it is "no applicable plan".
        for (factor, reason) in [
            (3, "drain node hosts follower replicas"),
            (1, "drain node hosts follower replicas"),
            (0, "no applicable plan"),
        ] {
            let mut db = spare_actives(factor);
            assert_eq!(
                apply_on(&mut db, &drain(&[0, 1, 2])),
                Err(reason),
                "factor {factor}"
            );
            assert!(db.with_cluster(|c| c.draining_nodes()).is_empty());
        }
    }

    #[test]
    fn applied_carries_the_span_and_prediction_of_what_started() {
        let span_name = |db: &WattDb, span: Option<wattdb_telemetry::SpanId>| {
            db.with_cluster(|c| {
                let s = c.telemetry.spans.get(span.expect("a span")).expect("kept");
                (s.name.clone(), s.end.is_none())
            })
        };

        // ScaleOut on a cold cluster: the fraction fallback's rebalance.
        let mut db = deployment(0);
        let out = apply_on(
            &mut db,
            &Decision::ScaleOut {
                sources: vec![NodeId(0)],
                targets: vec![NodeId(3)],
            },
        )
        .expect("applied");
        assert_eq!(out.planner, Planner::Fraction);
        assert_eq!(span_name(&db, out.span), ("rebalance".into(), true));
        assert_eq!(
            out.span,
            db.with_cluster(|c| c.mover.as_ref().unwrap().span)
        );
        assert_eq!(out.predicted, Some(0.0), "no heat recorded yet");
        assert_eq!(db.with_cluster(|c| c.life(NodeId(3))), Lifecycle::Active);

        // ScaleIn: the rebalance span, plus an open power-down span kept on
        // the cluster until the node suspends; the node is now draining.
        let mut db = deployment(0);
        warm(&mut db, NodeId(2), 4);
        let drain = apply_on(
            &mut db,
            &Decision::ScaleIn {
                drain: vec![NodeId(2)],
            },
        )
        .expect("applied");
        assert_eq!(drain.planner, Planner::HeatAware);
        assert_eq!(span_name(&db, drain.span), ("rebalance".into(), true));
        assert!(drain.predicted.expect("planned heat") > 0.0);
        let pd = db.with_cluster(|c| c.powerdown_span);
        assert_eq!(span_name(&db, pd), ("power-down".into(), true));
        assert!(pd > drain.span, "power-down opens after the rebalance span");
        assert_eq!(
            db.with_cluster(|c| c.draining_nodes()),
            vec![NodeId(2)],
            "the drained node left the placement pools"
        );

        // AttachHelpers: the helpers span and the plan's predicted relief.
        let mut db = deployment(0);
        warm(&mut db, NodeId(0), 50);
        let sources = vec![NodeId(0)];
        let attach = apply_on(
            &mut db,
            &Decision::AttachHelpers {
                sources,
                targets: vec![NodeId(1)],
            },
        )
        .expect("applied");
        assert_eq!(attach.planner, Planner::HeatAware);
        assert_eq!(span_name(&db, attach.span), ("helpers".into(), true));
        assert_eq!(attach.span, db.with_cluster(|c| c.helpers.span()));
        let relief = attach.predicted.expect("predicted relief");
        assert!(relief > 0.0);
        let predicted = db.with_cluster(|c| {
            let span = c.telemetry.spans.get(attach.span.expect("response open"));
            span.and_then(|s| s.attr_f64("predicted_relief_mbps"))
        });
        assert_eq!(Some(relief), predicted);

        // DetachHelpers closes that span inside apply; the result still
        // points at it.
        let helpers = db.with_cluster(|c| c.helpers.nodes());
        assert!(!helpers.is_empty());
        let detach = apply_on(&mut db, &Decision::DetachHelpers { helpers }).expect("applied");
        assert_eq!(detach.span, attach.span);
        assert_eq!(detach.predicted, None);
        assert_eq!(span_name(&db, detach.span), ("helpers".into(), false));
        assert_eq!(db.with_cluster(|c| c.helpers.span()), None);
    }

    // --------------------------------------------------- the plan contract

    /// Four nodes and no simulator: data on n0–n2, n3 standby, n0 hot.
    fn loaded(scheme: Scheme, replication: usize) -> ClusterRc {
        let data = [NodeId(0), NodeId(1), NodeId(2)];
        let cfg = crate::cluster::ClusterConfig {
            nodes: 4,
            scheme,
            segment_pages: 8,
            seed: 11,
            replication,
            ..Default::default()
        };
        let cl = Cluster::new(cfg, &data);
        let tpcc = wattdb_tpcc::TpccConfig {
            warehouses: 3,
            density: 0.01,
            seed: 11,
        };
        {
            let c = &mut *cl.borrow_mut();
            c.load_tpcc(tpcc, &data).expect("dataset loads");
            let plan = crate::heat::plan_replicas(c, SimTime::ZERO);
            c.replication.place(&plan, &c.nodes);
            let hot: Vec<SegmentId> = c.seg_dir.on_node(NodeId(0)).map(|m| m.id).collect();
            for seg in hot {
                for _ in 0..50 {
                    c.heat.record_read(seg, SimTime::ZERO);
                }
            }
        }
        cl
    }

    /// One line per outcome: the refusal, or the plan's planner, what moves
    /// from where to where, and every other step it carries.
    fn shape(p: &Result<ControlPlan, &'static str>) -> String {
        let p = match p {
            Ok(p) => p,
            Err(reason) => return format!("refused: {reason}"),
        };
        use crate::migration::Pending;
        let list = |nodes: &[NodeId]| {
            let names: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
            names.join(",")
        };
        let mut out = format!("{:?}", p.planner);
        let kind = match p.moves.first() {
            Some(Pending::Range(_)) => "ranges",
            _ => "segments",
        };
        let from_to = p.moves.iter().map(|m| match *m {
            Pending::Segment(m) => (m.from, m.to),
            Pending::Range(m) => (m.from, m.to),
            Pending::Copy(m) => (m.from, m.to),
        });
        if !p.sources.is_empty() {
            assert!(
                !p.moves.is_empty(),
                "a plan with sources moves something: {p:?}"
            );
            for (from, to) in from_to {
                assert!(p.sources.contains(&from) && p.power_up.contains(&to));
            }
            out += &format!(" {kind} {}→{}", list(&p.sources), list(&p.power_up));
        }
        if !p.drain.is_empty() {
            out += &format!(" drain {}", list(&p.drain));
        }
        if let Some(a) = &p.attach {
            let pairs: Vec<String> = a.pairs.iter().map(|(s, h)| format!("{s}+{h}")).collect();
            out += &format!(" attach {} scripted={}", pairs.join(","), a.scripted);
        }
        if !p.detach.is_empty() {
            out += &format!(" detach {}", list(&p.detach));
        }
        if let Some(failed) = p.promote {
            out += &format!(" promote {failed}");
        }
        out
    }

    #[test]
    fn plan_maps_every_decision_to_its_plan_or_its_refusal() {
        let nodes = |ns: &[u16]| ns.iter().map(|&n| NodeId(n)).collect::<Vec<_>>();
        let scale_out = |targets: &[u16]| Decision::ScaleOut {
            sources: nodes(&[0]),
            targets: nodes(targets),
        };
        let skew = (nodes(&[0]), nodes(&[1]));
        let no_helper = PolicyConfig {
            helper: HelperPolicyConfig {
                min_net_heat: f64::MAX, // nobody clears the floor
                ..Default::default()
            },
            ..Default::default()
        };
        const NO_PLAN: &str = "refused: no applicable plan";
        // (decision, config, [heat-aware, fraction planner, logical scheme])
        let table: Vec<(Decision, PolicyConfig, [&str; 3])> = vec![
            (Decision::Hold, PolicyConfig::default(), [NO_PLAN; 3]),
            (
                scale_out(&[3]),
                PolicyConfig::default(),
                [
                    "HeatAware segments n0→n3",
                    "Fraction segments n0→n3",
                    "Fraction ranges n0→n3",
                ],
            ),
            (scale_out(&[]), PolicyConfig::default(), [NO_PLAN; 3]),
            (
                Decision::Rebalance {
                    sources: skew.0.clone(),
                    targets: skew.1.clone(),
                },
                PolicyConfig::default(),
                ["HeatAware segments n0→n1", NO_PLAN, NO_PLAN],
            ),
            (
                Decision::AttachHelpers {
                    sources: skew.0.clone(),
                    targets: skew.1.clone(),
                },
                PolicyConfig::default(),
                ["HeatAware attach n0+n3 scripted=false", NO_PLAN, NO_PLAN],
            ),
            // An empty helper plan falls back to the skew rebalance and
            // keeps an (empty) attachment to report under.
            (
                Decision::AttachHelpers {
                    sources: skew.0.clone(),
                    targets: skew.1.clone(),
                },
                no_helper,
                [
                    "HeatAware segments n0→n1 attach  scripted=false",
                    NO_PLAN,
                    NO_PLAN,
                ],
            ),
            // n3 is not attached: nothing to release.
            (
                Decision::DetachHelpers {
                    helpers: nodes(&[3]),
                },
                PolicyConfig::default(),
                [NO_PLAN; 3],
            ),
            (
                Decision::ScaleIn { drain: nodes(&[2]) },
                PolicyConfig::default(),
                [
                    "HeatAware segments n2→n0,n1 drain n2",
                    "Fraction segments n2→n0,n1 drain n2",
                    "Fraction ranges n2→n0,n1 drain n2",
                ],
            ),
            (
                Decision::Promote {
                    failed: NodeId(2),
                    orphaned: Vec::new(),
                },
                PolicyConfig::default(),
                [
                    "HeatAware promote n2",
                    "Fraction promote n2",
                    "HeatAware promote n2",
                ],
            ),
        ];
        let arms = [
            (Scheme::Physiological, Planner::HeatAware),
            (Scheme::Physiological, Planner::Fraction),
            (Scheme::Logical, Planner::HeatAware),
        ];
        for (i, (scheme, planner)) in arms.into_iter().enumerate() {
            let cl = loaded(scheme, 0);
            let c = cl.borrow();
            let before = c.telemetry.export_jsonl();
            for (decision, cfg, expected) in &table {
                let cfg = PolicyConfig { planner, ..*cfg };
                let got = plan(&c, SimTime::ZERO, decision, &cfg);
                let again = plan(&c, SimTime::ZERO, decision, &cfg);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{again:?}"),
                    "plan is a function"
                );
                assert_eq!(
                    shape(&got),
                    expected[i],
                    "{decision:?} under {scheme:?}/{planner:?}"
                );
            }
            // Pure: planning (twice) left no trace on the flight recorder
            // and no node changed state.
            assert_eq!(c.telemetry.export_jsonl(), before);
            assert_eq!(c.active_nodes(), nodes(&[0, 1, 2]));
            assert!(c.draining_nodes().is_empty() && c.mover.is_none());
        }
    }

    #[test]
    fn plan_reads_helpers_replicas_and_the_mover_without_a_sim() {
        use crate::migration::{MoveController, MoverChain};
        use wattdb_planner::PlannedMove;
        let cfg = PolicyConfig::default();
        let drain = |n: u16| Decision::ScaleIn {
            drain: vec![NodeId(n)],
        };
        let plan_of =
            |cl: &ClusterRc, d: &Decision| shape(&plan(&cl.borrow(), SimTime::ZERO, d, &cfg));

        // An attached helper is released by name, and only if attached.
        let cl = loaded(Scheme::Physiological, 0);
        let policy_helper = HelperAttach {
            helpers: vec![NodeId(3)],
            ..Default::default()
        };
        crate::helpers::attach(&mut cl.borrow_mut(), &policy_helper, SimTime::ZERO);
        let detach = Decision::DetachHelpers {
            helpers: vec![NodeId(1), NodeId(3)],
        };
        assert_eq!(plan_of(&cl, &detach), "HeatAware detach n3");

        // A heat-planned drain empties its node and re-homes the follower
        // copies it hosts; with a replacement copy onto it still on a
        // chain the drain is refused by name.
        let cl = loaded(Scheme::Physiological, 1);
        let p = plan(&cl.borrow(), SimTime::ZERO, &drain(2), &cfg).expect("covered drain");
        {
            let c = cl.borrow();
            let segment = |m: &Pending| matches!(m, Pending::Segment(_));
            assert!(
                p.moves.iter().all(segment),
                "segment scheme plans segment moves"
            );
            assert_eq!(p.moves.len(), c.seg_dir.on_node(NodeId(2)).count());
            assert_eq!(
                p.rehomes.len(),
                c.replication.map().followed_by(NodeId(2)).len()
            );
            assert!(!p.rehomes.is_empty(), "n2 hosted follower copies");
        }
        queue_copy_onto(&cl, &mut Sim::new(), NodeId(2));
        assert_eq!(
            plan_of(&cl, &drain(2)),
            "refused: drain node is part of the active migration"
        );

        // A rebalance in flight (n0 → n3) refuses everything but a
        // promotion, and names a drain aimed at one of its nodes.
        let cl = loaded(Scheme::Physiological, 0);
        {
            let mut c = cl.borrow_mut();
            let m = c.seg_dir.on_node(NodeId(0)).next().expect("n0 holds data");
            let mv = PlannedMove {
                seg: m.id,
                table: m.table,
                range: m.key_range.expect("loaded segments have ranges"),
                from: NodeId(0),
                to: NodeId(3),
            };
            c.mover = Some(MoveController {
                chains: vec![MoverChain {
                    source: NodeId(0),
                    queue: [Pending::Segment(mv)].into(),
                    ..Default::default()
                }],
                ..Default::default()
            });
        }
        let scale_out = Decision::ScaleOut {
            sources: vec![NodeId(1)],
            targets: vec![NodeId(3)],
        };
        assert_eq!(plan_of(&cl, &scale_out), "refused: rebalance in flight");
        assert_eq!(plan_of(&cl, &drain(1)), "refused: rebalance in flight");
        assert_eq!(
            plan_of(&cl, &drain(3)),
            "refused: drain node is part of the active migration"
        );
        let promote = Decision::Promote {
            failed: NodeId(2),
            orphaned: Vec::new(),
        };
        assert_eq!(plan_of(&cl, &promote), "HeatAware promote n2");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Replay an arbitrary skew sequence through the trigger and
            /// count the fires: between any two fires there must be at
            /// least `patience + cooldown` windows, nothing fires on an
            /// unarmed window, and nothing fires without `patience` armed
            /// windows behind it.
            #[test]
            fn skew_trigger_never_oscillates(
                skews in proptest::collection::vec(0.5f64..4.0, 1..80),
                patience in 1u32..4,
                cooldown in 0u32..4,
            ) {
                let threshold = 2.0;
                let cfg = PolicyConfig {
                    patience,
                    skew_threshold: threshold,
                    skew_cooldown: cooldown,
                    ..Default::default()
                };
                let mut p = ElasticityPolicy::new(cfg);
                let data = [NodeId(0), NodeId(1)];
                let mut fires = Vec::new();
                let mut armed_run = 0u32;
                let mut ever_armed = false;
                for (i, &skew) in skews.iter().enumerate() {
                    // Three active nodes whose max/mean tracks the drawn
                    // skew: heats (s, max(0, 3−s), 0) give a realized
                    // skew of max(s, 3−s) for s ≤ 3, saturating at 3.
                    let v = heat_view(&[
                        (0, skew * 100.0),
                        (1, (3.0 - skew).max(0.0) * 100.0),
                        (2, 0.0),
                    ]);
                    let (realized, _) = v.heat_skew(&[]);
                    let armed_now = realized > threshold;
                    ever_armed |= armed_now;
                    let d = p.evaluate(&v, &[], &data, false, &[]);
                    let fired = matches!(d, Decision::Rebalance { .. });
                    if fired {
                        prop_assert!(armed_now, "fired on an unarmed window {i}");
                        prop_assert!(
                            armed_run + 1 >= patience,
                            "fired at window {i} with only {armed_run} armed predecessors"
                        );
                        fires.push(i);
                    }
                    if armed_now {
                        armed_run += 1;
                    } else if realized < threshold * SKEW_REARM {
                        armed_run = 0;
                    }
                    if fired {
                        armed_run = 0;
                    }
                }
                for w in fires.windows(2) {
                    prop_assert!(
                        w[1] - w[0] >= (patience + cooldown) as usize,
                        "fires {w:?} closer than patience {patience} + cooldown {cooldown}"
                    );
                }
                // A sequence that never arms the trigger never fires.
                if !ever_armed {
                    prop_assert!(fires.is_empty());
                }
            }

            /// Renumbering the nodes must renumber — not change — the
            /// drain choice: the coldest physical node drains no matter
            /// what id it carries.
            #[test]
            fn drain_choice_is_invariant_under_renumbering(
                heats in proptest::collection::vec(0.0f64..100.0, 2..8),
                rot in 1usize..7,
            ) {
                // Distinct heats (perturb by index) on nodes 1..=n; node 0
                // is the master and stays fixed under renumbering.
                let n = heats.len();
                let rows: Vec<(u16, f64)> = std::iter::once((0u16, 1000.0))
                    .chain(
                        heats
                            .iter()
                            .enumerate()
                            .map(|(i, &h)| (i as u16 + 1, h + i as f64 * 1e-3)),
                    )
                    .collect();
                let view_a = heat_view(&rows);
                let data_a: Vec<NodeId> = (0..=n as u16).map(NodeId).collect();
                let pick_a = coldest_drain_target(&view_a, &data_a).unwrap();

                // Renumber the data nodes by rotation: old id i → perm(i).
                let perm = |id: NodeId| {
                    if id == NodeId(0) {
                        NodeId(0)
                    } else {
                        NodeId(((id.raw() as usize - 1 + rot) % n) as u16 + 1)
                    }
                };
                let rows_b: Vec<(u16, f64)> = rows
                    .iter()
                    .map(|&(id, h)| (perm(NodeId(id)).raw(), h))
                    .collect();
                let view_b = heat_view(&rows_b);
                let data_b: Vec<NodeId> = data_a.iter().map(|&n| perm(n)).collect();
                let pick_b = coldest_drain_target(&view_b, &data_b).unwrap();
                prop_assert_eq!(
                    pick_b,
                    perm(pick_a),
                    "renumbering changed the physical drain choice"
                );
            }
        }
    }
}
