//! The threshold-driven elasticity policy of §3.4.
//!
//! "The master checks the incoming performance data to predefined
//! thresholds — with both upper and lower bounds. If an overloaded
//! component is detected, it will decide where to distribute data and
//! whether to power on additional nodes [...] Similarly, underutilized
//! nodes trigger a scale-in protocol." The CPU ceiling is 80 %.
//!
//! [`ElasticityPolicy`] is that controller and nothing more. It reads one
//! signal, each active node's CPU: a node over `cpu_high` for `patience`
//! windows scales the cluster out onto standbys; a streak of `patience`
//! windows in which every active node sits below `cpu_low` scales in the
//! **coldest** drainable node (its segments are the cheapest to
//! relocate); a dead node is failed over by the autopilot before the
//! policy is asked. Everything else holds. Fig. 8
//! helpers are scripted: a [`ControlPlan`] attaches them next to the
//! rebalance they serve, and they leave when it completes.
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

use wattdb_common::{KeyRange, NodeId, SegmentId, SimTime};
use wattdb_planner::Planner;
use wattdb_sim::Sim;

use crate::cluster::{Cluster, ClusterRc, Scheme};
use crate::heat;
use crate::migration::{nodes_in_flight, run, Applied, ControlPlan, Pending, RangeMove};
use crate::monitor::ClusterView;

/// Policy thresholds.
#[derive(Debug, Clone, Copy)]
pub struct PolicyConfig {
    /// Scale out when an active node's CPU exceeds this (paper: 0.8).
    pub cpu_high: f64,
    /// Scale in when all active nodes sit below this.
    pub cpu_low: f64,
    /// Consecutive breaching windows before acting (hysteresis).
    pub patience: u32,
    /// Which planner turns decisions into segment moves.
    pub planner: Planner,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            cpu_high: 0.8,
            cpu_low: 0.25,
            patience: 3,
            planner: Planner::HeatAware,
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

/// The policy's own state frozen at the top of every
/// [`ElasticityPolicy::evaluate`] call: the CPU streak counters as of the
/// previous window (this window's breach, if any, increments them after
/// the freeze). The telemetry timeline records them with every decision —
/// `Hold` included — beside the CPU readings the view carries, so
/// `explain()` can say *why* nothing happened.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicySignals {
    /// Consecutive hot windows before this one.
    pub high_streak: u32,
    /// Consecutive all-low windows before this one.
    pub low_streak: u32,
}

/// Stateful policy evaluated once per monitoring window.
#[derive(Debug)]
pub struct ElasticityPolicy {
    cfg: PolicyConfig,
    high_streak: u32,
    low_streak: u32,
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
            signals: PolicySignals::default(),
        }
    }

    /// The signal vector the most recent [`ElasticityPolicy::evaluate`]
    /// call acted on (see [`PolicySignals`] for freeze semantics).
    pub fn signals(&self) -> PolicySignals {
        self.signals
    }

    /// Evaluate one monitoring view. `standby` lists nodes available to
    /// power on; `active_with_data` the nodes currently serving.
    ///
    /// Precedence: CPU saturation (scale-out) beats everything — an
    /// overloaded cluster needs more hardware. A hot cluster with no
    /// standby to power on holds, and so does a window between the
    /// bounds.
    pub fn evaluate(
        &mut self,
        view: &ClusterView,
        standby: &[NodeId],
        active_with_data: &[NodeId],
    ) -> Decision {
        // Freeze the streaks the branches below act on: the telemetry
        // timeline attaches them to this window's decision.
        self.signals = PolicySignals {
            high_streak: self.high_streak,
            low_streak: self.low_streak,
        };
        let hot: Vec<NodeId> = (view.reports.iter())
            .filter(|r| r.active && r.cpu > self.cfg.cpu_high)
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
            return Decision::Hold;
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
                if let Some(n) = coldest_drain_target(view, active_with_data) {
                    return Decision::ScaleIn { drain: vec![n] };
                }
            }
            return Decision::Hold;
        }
        self.low_streak = 0;
        self.high_streak = 0;
        Decision::Hold
    }

    /// Thresholds in force.
    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }
}

/// The coldest drainable node: least reported heat, ties broken by
/// lowest CPU, then highest id (the legacy drain order). The master
/// (node 0) is never drained while another candidate exists — it cannot
/// be suspended afterwards anyway.
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
    candidates
        .into_iter()
        .filter_map(|n| view.reports.iter().find(|r| r.node == n && r.active))
        .min_by(|a, b| {
            (a.heat.total_cmp(&b.heat))
                .then(a.cpu.total_cmp(&b.cpu))
                .then(b.node.cmp(&a.node))
        })
        .map(|r| r.node)
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
    match decision {
        Decision::Hold | Decision::Promote { .. } => Err(NO_PLAN),
        Decision::ScaleOut { targets, .. } if targets.is_empty() => Err(NO_PLAN),
        // No heat recorded (or nothing movable improves balance): fall
        // back to the fraction heuristic so the cluster still reacts to
        // the CPU signal. Logical partitioning moves ranges, so it always
        // takes the fraction cut.
        Decision::ScaleOut { sources, targets } => {
            let p = heat_aware.then(|| heat::plan_scale_out(c, now, sources, targets));
            Ok(match p.filter(|p| !p.moves.is_empty()) {
                Some(p) => ControlPlan::planned(&p, targets),
                None => ControlPlan::fraction(c, now, MOVE_FRACTION, sources, targets),
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
            let hosts_copies = (drain.iter()).any(|&n| !c.replication.followed_by(n).is_empty());
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
                    cpu,
                    net_tx: 0.0,
                    heat: 0.0,
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
                    cpu: 0.5,
                    net_tx: 0.0,
                    heat,
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
        assert_eq!(p.evaluate(&hot, &standby, &data), Decision::Hold);
        match p.evaluate(&hot, &standby, &data) {
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
        assert_eq!(p.evaluate(&hot, &[], &[NodeId(0)]), Decision::Hold);
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
        assert_eq!(p.evaluate(&hot, &[], &data), Decision::Hold);
        assert_eq!(p.evaluate(&hot, &[], &data), Decision::Hold);
        assert_eq!(p.evaluate(&hot, &[], &data), Decision::Hold);
        let standby = [NodeId(2)];
        match p.evaluate(&hot, &standby, &data) {
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
        assert_eq!(p.evaluate(&idle, &[], &data), Decision::Hold);
        match p.evaluate(&idle, &[], &data) {
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
        match p.evaluate(&v, &[], &data) {
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
    fn equal_heat_drains_the_idler_node_then_the_higher_id() {
        let mut v = heat_view(&[(0, 0.0), (1, 2.0), (2, 2.0), (3, 2.0)]);
        let data = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        v.reports[2].cpu = 0.1;
        assert_eq!(coldest_drain_target(&v, &data), Some(NodeId(2)));
        v.reports[2].cpu = 0.5;
        assert_eq!(coldest_drain_target(&v, &data), Some(NodeId(3)));
    }

    #[test]
    fn never_drain_the_last_data_node() {
        let mut p = ElasticityPolicy::new(PolicyConfig {
            patience: 1,
            ..Default::default()
        });
        let idle = view(&[(0, 0.05)]);
        assert_eq!(p.evaluate(&idle, &[], &[NodeId(0)]), Decision::Hold);
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
        p.evaluate(&hot, &standby, &data);
        p.evaluate(&hot, &standby, &data);
        p.evaluate(&cool, &standby, &data); // streak resets
        assert_eq!(p.evaluate(&hot, &standby, &data), Decision::Hold);
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
            let (seg, leader, followers) = crate::replication::sites(&c)
                .find(|&(_, l, f)| l == NodeId(0) && !f.contains(&to))
                .expect("an n0 segment followed elsewhere");
            let from = followers[0];
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
            let n1_short: Vec<_> = crate::replication::sites(c)
                .filter(|&(_, l, f)| l == NodeId(1) && f.len() < factor)
                .map(|(seg, ..)| seg)
                .collect();
            for seg in n1_short {
                crate::replication::add_copy(c, seg, NodeId(3), 0);
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
        assert!(db.with_cluster(|c| c.replication.followed_by(NodeId(3)).len()) > 0);
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

        // A scripted helper attachment: the helpers span and no prediction;
        // its detach closes that span and still points at it.
        let mut db = deployment(0);
        let attach = db.run(ControlPlan {
            attach: Some(crate::migration::HelperAttach::manual(
                &[NodeId(0)],
                &[NodeId(3)],
            )),
            ..Default::default()
        });
        assert_eq!(span_name(&db, attach.span), ("helpers".into(), true));
        assert_eq!(attach.span, db.with_cluster(|c| c.helpers.span()));
        assert_eq!(attach.predicted, None);
        let detach = db.run(ControlPlan {
            detach: vec![NodeId(3)],
            ..Default::default()
        });
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
            crate::replication::place(c, &plan);
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
    fn plan_reads_replicas_and_the_mover_without_a_sim() {
        use crate::migration::{MoveController, MoverChain};
        use wattdb_planner::PlannedMove;
        let cfg = PolicyConfig::default();
        let drain = |n: u16| Decision::ScaleIn {
            drain: vec![NodeId(n)],
        };
        let plan_of =
            |cl: &ClusterRc, d: &Decision| shape(&plan(&cl.borrow(), SimTime::ZERO, d, &cfg));

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
            assert_eq!(p.rehomes.len(), c.replication.followed_by(NodeId(2)).len());
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
