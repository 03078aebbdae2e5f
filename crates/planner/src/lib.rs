//! # WattDB-RS planner: heat-aware rebalance planning
//!
//! The paper's master "checks the incoming performance data […] and decides
//! where to distribute data" (§3.4), but a *fraction* heuristic — shave the
//! upper half of each hot node's key-ordered segments — is heat-blind: a
//! scale-out can ship cold segments while the hot ones stay put. This crate
//! plans segment placement from the workload instead:
//!
//! * [`plan_scale_out`] relieves overloaded sources by greedy bin-packing:
//!   it moves the segments with the best heat-per-byte ratio onto the
//!   coldest targets until every source sits within
//!   [`SCALE_OUT_TOLERANCE`] of the mean heat — minimizing bytes shipped
//!   for the balance achieved, and never splitting a segment.
//! * [`plan_drain_replicated`] empties nodes selected for scale-in,
//!   spreading their segments hottest-first across the remaining nodes
//!   (longest-processing-time scheduling) instead of dumping everything
//!   onto one target, and re-homes the follower copies they host.
//! * [`plan_fraction`] is the fraction heuristic itself: the engine runs it
//!   for every segment-scheme fraction rebalance (scripted, and the
//!   policy's fallback), and experiments and property tests compare the
//!   heat-aware plans against it on the same inputs.
//!
//! The three segment planners differ only in which segment goes where:
//! each books its moves through one private ledger, which keeps the
//! plan's predicted per-node heat, its byte and heat totals and the bytes
//! each destination has taken, so a term added to every plan is written
//! once. [`plan_replicas`] places follower copies.
//!
//! Inputs are plain rows, one type per concept: [`SegmentStat`] (id,
//! placement, footprint bytes, heat) for a segment that may move,
//! [`ReplicaSite`] for a segment's leader and followers, and [`HostRow`]
//! for a node that may take a follower copy. The crate holds no cluster
//! state and performs no I/O, so it can be property-tested exhaustively.
//!
//! ## Stationary vs. moving hotspots
//!
//! Heat is access *history*, so plans are only as good as the hotspot is
//! stationary. Read/update-heavy ranges (warehouse, district, customer
//! rows) stay hot where they are and the planner's predictions hold;
//! insert-heavy tables with ascending keys (orders, order-lines) have an
//! *advancing* hot range — the segments that were hot cool off as inserts
//! move past them, so relocating them buys less than the heat table
//! suggests. The engine plans for where heat is *going*: its heat layer
//! (`wattdb_core::heat`) tracks each segment's heat velocity and hands
//! this crate stats projected `HeatConfig::horizon` ahead, so the planner
//! itself stays a pure function of the heat it is given.

use std::collections::BTreeMap;

use wattdb_common::{DenseMap, KeyRange, NodeId, SegmentId, TableId};

/// Which algorithm plans rebalance moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Planner {
    /// The fraction heuristic ([`plan_fraction`]): move a fixed fraction
    /// of each source's key-ordered segments, targets assigned
    /// round-robin.
    Fraction,
    /// Heat-aware greedy bin-packing over per-segment access heat
    /// (default).
    #[default]
    HeatAware,
}

impl Planner {
    /// Display label used in experiment output and event logs.
    pub fn label(self) -> &'static str {
        match self {
            Planner::Fraction => "fraction",
            Planner::HeatAware => "heat-aware",
        }
    }
}

/// One segment's planning inputs: where it lives, what it costs to ship,
/// how hot it runs.
#[derive(Debug, Clone, Copy)]
pub struct SegmentStat {
    /// Segment id.
    pub seg: SegmentId,
    /// Owning table.
    pub table: TableId,
    /// Covered key range (used verbatim in the resulting moves).
    pub range: KeyRange,
    /// Node currently storing the segment.
    pub node: NodeId,
    /// Bytes a move would ship (disk footprint × the experiment's
    /// `io_scale`).
    pub bytes: u64,
    /// Decayed access heat at planning time.
    pub heat: f64,
}

/// Allowed overshoot above the mean per-node heat in
/// [`plan_scale_out`]: a source stops shedding once its heat is
/// ≤ `mean × (1 + SCALE_OUT_TOLERANCE)`.
pub const SCALE_OUT_TOLERANCE: f64 = 0.1;

/// One planned segment relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedMove {
    /// Moving segment.
    pub seg: SegmentId,
    /// Table it belongs to.
    pub table: TableId,
    /// Covered key range.
    pub range: KeyRange,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
}

/// A complete rebalance plan with its predicted effect.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Planner that produced the plan.
    pub planner: Planner,
    /// Moves in execution order.
    pub moves: Vec<PlannedMove>,
    /// Total bytes the plan ships.
    pub bytes_planned: u64,
    /// Total heat the plan relocates, in the heat it was given: the
    /// engine plans on heat projected `HeatConfig::horizon` ahead. This
    /// is not the launch-time heat that `RebalanceReport::heat_planned`
    /// and the `rebalance` span carry.
    pub heat_planned: f64,
    /// Predicted per-node heat after the plan executes, over the nodes the
    /// plan was allowed to touch (sources and targets).
    pub predicted: BTreeMap<NodeId, f64>,
    /// Hottest node in the planning domain before any move.
    pub initial_max_heat: f64,
}

impl Plan {
    /// Hottest node in the planning domain after the plan executes.
    pub fn predicted_max_heat(&self) -> f64 {
        self.predicted.values().copied().fold(0.0, f64::max)
    }

    /// True when nothing needs to move.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// A segment plan under construction: the [`Plan`] so far plus the bytes
/// each destination has been assigned. Every segment planner books its
/// moves through [`Ledger::ship`], so the totals and the predicted heat
/// always come from the same arithmetic in the same order.
struct Ledger {
    plan: Plan,
    assigned_bytes: BTreeMap<NodeId, u64>,
}

impl Ledger {
    /// An empty plan over `domain` (duplicates collapse), each node
    /// starting at the summed heat of the segments it stores.
    fn new(
        planner: Planner,
        stats: &[SegmentStat],
        domain: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let mut predicted: BTreeMap<NodeId, f64> = domain.into_iter().map(|n| (n, 0.0)).collect();
        for s in stats {
            if let Some(h) = predicted.get_mut(&s.node) {
                *h += s.heat;
            }
        }
        let initial_max_heat = predicted.values().copied().fold(0.0, f64::max);
        Ledger {
            plan: Plan {
                planner,
                moves: Vec::new(),
                bytes_planned: 0,
                heat_planned: 0.0,
                predicted,
                initial_max_heat,
            },
            assigned_bytes: BTreeMap::new(),
        }
    }

    /// `node`'s heat with the moves booked so far.
    fn heat(&self, node: NodeId) -> f64 {
        self.plan.predicted[&node]
    }

    /// The coldest node among `choices` (ties broken by fewest assigned
    /// bytes, then lowest id, for determinism).
    fn coldest(&self, choices: &[NodeId]) -> Option<NodeId> {
        let bytes = |n: &NodeId| self.assigned_bytes.get(n).copied().unwrap_or(0);
        choices.iter().copied().min_by(|a, b| {
            (self.heat(*a).partial_cmp(&self.heat(*b)))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| bytes(a).cmp(&bytes(b)))
                .then_with(|| a.cmp(b))
        })
    }

    /// Book `stat`'s move from the node storing it to `to`.
    fn ship(&mut self, stat: &SegmentStat, to: NodeId) {
        let predicted = &mut self.plan.predicted;
        *predicted.get_mut(&stat.node).expect("source in domain") -= stat.heat;
        *predicted.get_mut(&to).expect("destination in domain") += stat.heat;
        *self.assigned_bytes.entry(to).or_insert(0) += stat.bytes;
        self.plan.bytes_planned += stat.bytes;
        self.plan.heat_planned += stat.heat;
        self.plan.moves.push(PlannedMove {
            seg: stat.seg,
            table: stat.table,
            range: stat.range,
            from: stat.node,
            to,
        });
    }
}

/// Plan a scale-out: relieve `sources` by moving their hottest-per-byte
/// segments onto `targets` until every source's heat is within
/// [`SCALE_OUT_TOLERANCE`] of the mean over the planning domain
/// (sources ∪ targets) — or no further move can improve the balance.
///
/// Guarantees:
/// * segments are never split and never land on a source;
/// * every move strictly lowers the maximum of the involved pair, so the
///   predicted maximum never exceeds the initial maximum;
/// * cold segments (zero heat) are never shipped — bytes buy balance or
///   they stay home.
pub fn plan_scale_out(stats: &[SegmentStat], sources: &[NodeId], targets: &[NodeId]) -> Plan {
    let domain = sources.iter().chain(targets).copied();
    let mut ledger = Ledger::new(Planner::HeatAware, stats, domain);
    // Destinations are targets only — never another (possibly also hot)
    // source.
    let dests: Vec<NodeId> = targets
        .iter()
        .copied()
        .filter(|t| !sources.contains(t))
        .collect();
    if dests.is_empty() {
        return ledger.plan;
    }
    let total: f64 = ledger.plan.predicted.values().sum();
    let ceiling = total / ledger.plan.predicted.len() as f64 * (1.0 + SCALE_OUT_TOLERANCE);

    // Hottest sources first: the worst imbalance gets first pick of the
    // empty targets.
    let mut src_order: Vec<NodeId> = sources.to_vec();
    src_order.sort_by(|a, b| {
        (ledger.heat(*b).partial_cmp(&ledger.heat(*a)))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(b))
    });
    src_order.dedup();

    for src in src_order {
        // Candidates: this source's segments carrying heat, best
        // heat-per-byte first (most balance bought per byte shipped).
        let mut cands: Vec<&SegmentStat> = stats
            .iter()
            .filter(|s| s.node == src && s.heat > 0.0)
            .collect();
        cands.sort_by(|a, b| {
            let ra = a.heat / a.bytes.max(1) as f64;
            let rb = b.heat / b.bytes.max(1) as f64;
            rb.partial_cmp(&ra)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    b.heat
                        .partial_cmp(&a.heat)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.seg.cmp(&b.seg))
        });
        for cand in cands {
            if ledger.heat(src) <= ceiling {
                break;
            }
            let Some(dest) = ledger.coldest(&dests) else {
                break;
            };
            // Only move if the pair's maximum strictly improves; shifting
            // the hotspot to the target ships bytes for nothing.
            if ledger.heat(dest) + cand.heat >= ledger.heat(src) {
                continue;
            }
            ledger.ship(cand, dest);
        }
    }
    ledger.plan
}

// ----------------------------------------------------------------- replicas

/// One node's row as a *host*: a node that may take a follower copy
/// ([`plan_replicas`], [`plan_drain_replicated`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostRow {
    /// The node.
    pub node: NodeId,
    /// Its current decayed heat.
    pub heat: f64,
}

/// One segment's replication: its leader and its follower hosts. The same
/// row is a planning input — the followers a segment already has
/// ([`plan_replicas`], kept and never duplicated) or all its current
/// followers, staying and draining ([`plan_drain_replicated`]) — and a
/// planned placement, whose followers are the **new** ones to attach
/// ([`ReplicaPlan::placements`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSite {
    /// The segment.
    pub seg: SegmentId,
    /// Its leader — never a follower host, and unchanged by a placement.
    pub leader: NodeId,
    /// Follower hosts, in assignment order for a placement.
    pub followers: Vec<NodeId>,
}

/// A complete replica placement plan.
#[derive(Debug, Clone, Default)]
pub struct ReplicaPlan {
    /// Per-segment follower additions; segments already at factor are
    /// omitted.
    pub placements: Vec<ReplicaSite>,
}

impl ReplicaPlan {
    /// True when every segment already has its followers.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Total follower attachments the plan makes.
    pub fn additions(&self) -> usize {
        self.placements.iter().map(|p| p.followers.len()).sum()
    }
}

/// Plan follower placement: bring every segment in `sites` up to
/// `factor` followers, drawing hosts from `hosts`.
///
/// Failure domains are nodes, so the guarantees are:
/// * a follower never lands on its segment's leader;
/// * a segment's followers are pairwise distinct (and distinct from the
///   followers it already has);
/// * hosts rank by how many copies the plan has given them so far, then
///   by heat ([`HostRow::heat`]), then by id: follower load spreads across
///   the cluster, coldest first, instead of piling every copy onto the
///   single coldest node.
///
/// A segment that cannot reach factor (not enough distinct eligible
/// hosts) gets as many followers as exist — the plan never invents a
/// co-located copy to hit the number.
pub fn plan_replicas(sites: &[ReplicaSite], hosts: &[HostRow], factor: usize) -> ReplicaPlan {
    let mut plan = ReplicaPlan::default();
    if factor == 0 {
        return plan;
    }
    // One row per host, deterministic: duplicates collapse to the first.
    let mut pool: Vec<&HostRow> = hosts.iter().collect();
    pool.sort_by_key(|h| h.node);
    let mut seen = std::collections::BTreeSet::new();
    pool.retain(|h| seen.insert(h.node));
    let mut assigned: BTreeMap<NodeId, usize> = BTreeMap::new();

    for site in sites {
        let existing = &site.followers;
        if existing.len() >= factor {
            continue;
        }
        let deficit = factor - existing.len();
        let mut followers = Vec::with_capacity(deficit);
        for _ in 0..deficit {
            let pick = pool
                .iter()
                .filter(|h| {
                    h.node != site.leader
                        && !existing.contains(&h.node)
                        && !followers.contains(&h.node)
                })
                .min_by(|a, b| {
                    let (ca, cb) = (
                        assigned.get(&a.node).copied().unwrap_or(0),
                        assigned.get(&b.node).copied().unwrap_or(0),
                    );
                    ca.cmp(&cb)
                        .then_with(|| {
                            a.heat
                                .partial_cmp(&b.heat)
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .then_with(|| a.node.cmp(&b.node))
                })
                .map(|h| h.node);
            let Some(host) = pick else {
                break;
            };
            *assigned.entry(host).or_insert(0) += 1;
            followers.push(host);
        }
        if !followers.is_empty() {
            plan.placements.push(ReplicaSite {
                seg: site.seg,
                leader: site.leader,
                followers,
            });
        }
    }
    plan
}

/// One planned follower re-home: the copy on `from` (a draining node) is
/// replaced by a fresh copy shipped from `leader` to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowerRehome {
    /// The segment whose copy moves.
    pub seg: SegmentId,
    /// The segment's leader *after* the drain's leader moves execute —
    /// the source of the backfill copy.
    pub leader: NodeId,
    /// Draining node losing the copy.
    pub from: NodeId,
    /// Surviving node gaining the copy.
    pub to: NodeId,
}

/// An atomic replica-aware drain: the leader moves emptying the drained
/// nodes *plus* the follower re-homes keeping every affected segment at
/// factor. Executing only half of it is the bug this plan exists to
/// prevent.
#[derive(Debug, Clone)]
pub struct DrainPlan {
    /// Leader moves emptying the drained nodes (LPT onto the coldest
    /// survivors, preferring destinations that do not already hold a
    /// follower copy of the moving segment).
    pub plan: Plan,
    /// Follower re-homes, one per follower copy the drain would orphan
    /// (coldest-first via [`plan_replicas`], never on the post-move
    /// leader).
    pub rehomes: Vec<FollowerRehome>,
    /// Follower copies found on the drained nodes.
    pub orphaned_copies: usize,
    /// Follower slots the plan could *not* cover: affected segments that
    /// would still sit below `factor` after every re-home lands (not
    /// enough distinct surviving hosts). Non-zero means the drain should
    /// be refused, not half-executed.
    pub uncovered: usize,
}

impl DrainPlan {
    /// True when every follower copy the drain would orphan has a
    /// replacement host — the drain can proceed without losing
    /// redundancy.
    pub fn is_fully_covered(&self) -> bool {
        self.uncovered == 0
    }
}

/// Plan a replica-aware scale-in drain: *every* segment on the `drain`
/// nodes must leave (nodes holding data must not power off). Segments are
/// assigned hottest-first to the coldest remaining node —
/// longest-processing-time scheduling — so a drained node's hot segments
/// spread across the survivors instead of piling onto one. In the same
/// plan, every follower copy the drained nodes host is re-homed via
/// [`plan_replicas`] so the drain never drops a segment below `factor`;
/// with no follower copies (`sites` empty) only the leader moves remain.
///
/// Besides:
/// * a drained segment's leader move prefers destinations that do not
///   already hold one of its follower copies, so the move itself does
///   not silently evict a copy (falling back to a follower host only
///   when every survivor holds one);
/// * re-homes draw from `hosts` (minus the drained nodes), coldest
///   first, never the segment's post-move leader, never a surviving
///   follower host;
/// * segments already below factor before the drain are *not* topped up
///   here — background repair owns that backlog; the plan only preserves
///   the copies the drain would orphan, and reports what it could not
///   cover in [`DrainPlan::uncovered`].
pub fn plan_drain_replicated(
    stats: &[SegmentStat],
    drain: &[NodeId],
    remaining: &[NodeId],
    sites: &[ReplicaSite],
    hosts: &[HostRow],
    factor: usize,
) -> DrainPlan {
    let site_of: DenseMap<SegmentId, &ReplicaSite> = sites.iter().map(|s| (s.seg, s)).collect();

    // Leader moves: hottest first onto the coldest survivor (LPT), with a
    // per-segment preference for destinations outside the segment's
    // follower set.
    let dests: Vec<NodeId> = remaining
        .iter()
        .copied()
        .filter(|n| !drain.contains(n))
        .collect();
    let domain = drain.iter().chain(&dests).copied();
    let mut ledger = Ledger::new(Planner::HeatAware, stats, domain);
    if !dests.is_empty() {
        let mut evacuees: Vec<&SegmentStat> =
            stats.iter().filter(|s| drain.contains(&s.node)).collect();
        evacuees.sort_by(|a, b| {
            b.heat
                .partial_cmp(&a.heat)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.bytes.cmp(&a.bytes))
                .then_with(|| a.seg.cmp(&b.seg))
        });
        for seg in evacuees {
            let followers: &[NodeId] = site_of
                .get(&seg.seg)
                .map(|s| s.followers.as_slice())
                .unwrap_or(&[]);
            let preferred: Vec<NodeId> = dests
                .iter()
                .copied()
                .filter(|d| !followers.contains(d))
                .collect();
            let dest = (ledger.coldest(&preferred))
                .or_else(|| ledger.coldest(&dests))
                .expect("dests non-empty");
            ledger.ship(seg, dest);
        }
    }
    let plan = ledger.plan;

    // Follower re-homes: every copy hosted on a drained node gets a
    // replacement, planned against the *post-move* leaders so a backfill
    // source is never its own destination. Each need keeps the surviving
    // followers; `lost` holds the draining ones, index for index.
    let mut needs = Vec::new();
    let mut lost_by_need: Vec<Vec<NodeId>> = Vec::new();
    for site in sites {
        let (lost, kept): (Vec<NodeId>, Vec<NodeId>) =
            site.followers.iter().partition(|f| drain.contains(f));
        if lost.is_empty() {
            continue;
        }
        let leader = (plan.moves.iter())
            .find(|m| m.seg == site.seg)
            .map_or(site.leader, |m| m.to);
        needs.push(ReplicaSite {
            seg: site.seg,
            leader,
            followers: kept,
        });
        lost_by_need.push(lost);
    }
    let host_pool: Vec<HostRow> = hosts
        .iter()
        .copied()
        .filter(|h| !drain.contains(&h.node))
        .collect();
    let rp = plan_replicas(&needs, &host_pool, factor);

    let mut rehomes = Vec::new();
    let mut uncovered = 0usize;
    for (need, lost) in needs.iter().zip(&lost_by_need) {
        let planned: &[NodeId] = (rp.placements.iter())
            .find(|p| p.seg == need.seg)
            .map_or(&[], |p| p.followers.as_slice());
        // Pair each orphaned copy with a planned host; extra plan slots
        // (pre-existing deficit top-ups) are left to background repair.
        for (&from, &to) in lost.iter().zip(planned) {
            rehomes.push(FollowerRehome {
                seg: need.seg,
                leader: need.leader,
                from,
                to,
            });
        }
        let kept = need.followers.len() + lost.len().min(planned.len());
        let pre_drain = need.followers.len() + lost.len();
        uncovered += pre_drain.min(factor).saturating_sub(kept);
    }

    DrainPlan {
        plan,
        rehomes,
        orphaned_copies: lost_by_need.iter().map(Vec::len).sum(),
        uncovered,
    }
}

/// The fraction heuristic, as the engine runs it under the segment
/// schemes: per (table, source), keep the lower `1 − fraction` of the
/// key-ordered segments the source *stores* and move the rest to targets
/// round-robin by source index. Heat-blind, so it is also the baseline the
/// heat-aware plans are compared against.
pub fn plan_fraction(
    stats: &[SegmentStat],
    fraction: f64,
    sources: &[NodeId],
    targets: &[NodeId],
) -> Plan {
    let domain = sources.iter().chain(targets).copied();
    let mut ledger = Ledger::new(Planner::Fraction, stats, domain);
    if targets.is_empty() {
        return ledger.plan;
    }
    for (i, &src) in sources.iter().enumerate() {
        let to = targets[i % targets.len()];
        let mut tables: Vec<TableId> = stats
            .iter()
            .filter(|s| s.node == src)
            .map(|s| s.table)
            .collect();
        tables.sort_unstable();
        tables.dedup();
        for table in tables {
            let mut segs: Vec<&SegmentStat> = stats
                .iter()
                .filter(|s| s.node == src && s.table == table)
                .collect();
            segs.sort_by_key(|s| (s.range.start, s.seg));
            let keep = ((segs.len() as f64) * (1.0 - fraction)).round() as usize;
            for s in segs.into_iter().skip(keep) {
                ledger.ship(s, to);
            }
        }
    }
    ledger.plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattdb_common::Key;

    fn stat(seg: u64, node: u16, bytes: u64, heat: f64) -> SegmentStat {
        SegmentStat {
            seg: SegmentId(seg),
            table: TableId(1),
            range: KeyRange::new(Key(seg * 100), Key(seg * 100 + 100)),
            node: NodeId(node),
            bytes,
            heat,
        }
    }

    fn max_heat(plan: &Plan) -> f64 {
        plan.predicted_max_heat()
    }

    #[test]
    fn scale_out_balances_single_hot_source() {
        // Four equal segments, all heat on node 0, one fresh target.
        let stats: Vec<_> = (0..4).map(|i| stat(i, 0, 100, 1.0)).collect();
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)]);
        assert_eq!(plan.moves.len(), 2, "half the heat moves: {plan:?}");
        assert!(plan.moves.iter().all(|m| m.to == NodeId(1)));
        assert!((max_heat(&plan) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scale_out_prefers_heat_per_byte() {
        // A huge lukewarm segment vs small hot ones: the small hot ones
        // ship first, buying balance with far fewer bytes.
        let stats = vec![
            stat(0, 0, 10_000, 3.0),
            stat(1, 0, 100, 2.5),
            stat(2, 0, 100, 2.5),
            stat(3, 0, 100, 2.0),
        ];
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)]);
        assert!(
            plan.moves.iter().all(|m| m.seg != SegmentId(0)),
            "the huge segment stays: {plan:?}"
        );
        assert!(plan.bytes_planned <= 300);
        assert!(max_heat(&plan) < 10.0, "balance improved");
    }

    #[test]
    fn scale_out_never_ships_cold_segments() {
        let stats = vec![
            stat(0, 0, 100, 4.0),
            stat(1, 0, 100, 0.0),
            stat(2, 0, 100, 0.0),
        ];
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)]);
        assert!(
            plan.moves.iter().all(|m| m.seg == SegmentId(0)),
            "only the hot segment may ship: {plan:?}"
        );
    }

    #[test]
    fn scale_out_without_targets_is_empty() {
        let stats = vec![stat(0, 0, 100, 4.0)];
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[]);
        assert!(plan.is_empty());
    }

    #[test]
    fn scale_out_never_worsens_the_maximum() {
        // One indivisible hot segment: moving it would only shift the
        // hotspot, so the plan leaves it.
        let stats = vec![stat(0, 0, 100, 10.0)];
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)]);
        assert!(plan.is_empty(), "{plan:?}");
        assert!((max_heat(&plan) - plan.initial_max_heat).abs() < 1e-9);
    }

    #[test]
    fn drain_moves_everything_and_spreads_heat() {
        let stats = vec![
            stat(0, 2, 100, 8.0),
            stat(1, 2, 100, 6.0),
            stat(2, 2, 100, 1.0),
            stat(3, 2, 100, 1.0),
            stat(4, 0, 100, 1.0), // survivor's existing load
        ];
        let plan =
            plan_drain_replicated(&stats, &[NodeId(2)], &[NodeId(0), NodeId(1)], &[], &[], 0).plan;
        assert_eq!(plan.moves.len(), 4, "every segment leaves the drain");
        assert!(plan.moves.iter().all(|m| m.to != NodeId(2)));
        // LPT: the two hot segments land on different survivors.
        let hot0 = plan.moves.iter().find(|m| m.seg == SegmentId(0)).unwrap();
        let hot1 = plan.moves.iter().find(|m| m.seg == SegmentId(1)).unwrap();
        assert_ne!(hot0.to, hot1.to, "hot segments spread: {plan:?}");
        assert_eq!(plan.predicted[&NodeId(2)], 0.0);
    }

    #[test]
    fn fraction_mirrors_the_legacy_heuristic() {
        let stats: Vec<_> = (0..4).map(|i| stat(i, 0, 100, i as f64)).collect();
        let plan = plan_fraction(&stats, 0.5, &[NodeId(0)], &[NodeId(1)]);
        // Keep the lower half in key order, move the upper half.
        let moved: Vec<u64> = plan.moves.iter().map(|m| m.seg.raw()).collect();
        assert_eq!(moved, vec![2, 3]);
        assert_eq!(plan.bytes_planned, 200);
    }

    #[test]
    fn skewed_heat_heat_aware_beats_fraction_on_both_axes() {
        // Hot range at the *bottom* of the key space (the fraction
        // heuristic moves the top): heat-aware must win on max heat
        // without shipping more bytes.
        let mut stats = Vec::new();
        for i in 0..8 {
            let heat = if i < 2 { 10.0 } else { 0.5 };
            stats.push(stat(i, 0, 100, heat));
        }
        let heat_plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)]);
        let frac_plan = plan_fraction(&stats, 0.5, &[NodeId(0)], &[NodeId(1)]);
        assert!(
            max_heat(&heat_plan) < max_heat(&frac_plan),
            "heat-aware {} vs fraction {}",
            max_heat(&heat_plan),
            max_heat(&frac_plan)
        );
        assert!(heat_plan.bytes_planned <= frac_plan.bytes_planned);
    }

    // ----------------------------------------------------------- replicas

    fn host(node: u16, heat: f64) -> HostRow {
        HostRow {
            node: NodeId(node),
            heat,
        }
    }

    #[test]
    fn replicas_never_co_locate_with_the_leader_and_stay_distinct() {
        let hosts = [host(1, 5.0), host(2, 1.0), host(3, 2.0)];
        let needs = [site(1, 1, &[]), site(2, 2, &[])];
        let plan = plan_replicas(&needs, &hosts, 2);
        assert_eq!(plan.additions(), 4);
        for p in &plan.placements {
            assert!(!p.followers.contains(&p.leader), "{plan:?}");
            let mut uniq = p.followers.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), p.followers.len(), "{plan:?}");
        }
    }

    #[test]
    fn replicas_fill_coldest_first_and_spread_load() {
        // Three segments on node 1, factor 1: the followers spread across
        // the other hosts (coldest first) instead of piling onto one.
        let hosts = [host(1, 9.0), host(2, 1.0), host(3, 2.0), host(4, 3.0)];
        let needs = [site(1, 1, &[]), site(2, 1, &[]), site(3, 1, &[])];
        let plan = plan_replicas(&needs, &hosts, 1);
        let picked: Vec<NodeId> = plan
            .placements
            .iter()
            .flat_map(|p| p.followers.iter().copied())
            .collect();
        assert_eq!(
            picked,
            vec![NodeId(2), NodeId(3), NodeId(4)],
            "coldest first, spread by assignment count: {plan:?}"
        );
    }

    #[test]
    fn replica_deficit_only_and_capacity_bounds() {
        let hosts = [host(2, 0.0), host(3, 1.0)];
        // Already at factor: nothing planned.
        let plan = plan_replicas(&[site(1, 1, &[2])], &hosts, 1);
        assert!(plan.is_empty(), "{plan:?}");
        // Deficit of one: only the missing follower is added, avoiding
        // the survivor.
        let plan = plan_replicas(&[site(1, 1, &[2])], &hosts, 2);
        assert_eq!(plan.placements[0].followers, vec![NodeId(3)]);
        // Not enough distinct hosts: as many as exist, never a co-located
        // copy to hit the number.
        let plan = plan_replicas(&[site(1, 1, &[])], &hosts, 5);
        assert_eq!(plan.placements[0].followers, vec![NodeId(2), NodeId(3)]);
        // Factor zero disables planning.
        assert!(plan_replicas(&[site(1, 1, &[])], &hosts, 0).is_empty());
        // The leader being the only host yields nothing.
        let only_leader = [host(1, 0.0)];
        assert!(plan_replicas(&[site(1, 1, &[])], &only_leader, 1).is_empty());
    }

    // ------------------------------------------------- replica-aware drain

    fn site(seg: u64, leader: u16, followers: &[u16]) -> ReplicaSite {
        ReplicaSite {
            seg: SegmentId(seg),
            leader: NodeId(leader),
            followers: followers.iter().map(|&n| NodeId(n)).collect(),
        }
    }

    #[test]
    fn replicated_drain_rehomes_every_orphaned_copy() {
        // Node 3 drains. It leads segment 30 and follows segments 10/20
        // (led by nodes 1 and 2). The plan must move segment 30 out AND
        // re-home both follower copies onto the survivors.
        let stats = vec![
            stat(10, 1, 100, 2.0),
            stat(20, 2, 100, 2.0),
            stat(30, 3, 100, 1.0),
        ];
        let sites = [site(10, 1, &[3]), site(20, 2, &[3]), site(30, 3, &[1])];
        let hosts = [host(1, 2.0), host(2, 2.0), host(4, 0.0)];
        let dp = plan_drain_replicated(
            &stats,
            &[NodeId(3)],
            &[NodeId(1), NodeId(2), NodeId(4)],
            &sites,
            &hosts,
            1,
        );
        assert_eq!(dp.plan.moves.len(), 1, "segment 30 leaves: {dp:?}");
        assert_eq!(dp.orphaned_copies, 2);
        assert_eq!(dp.rehomes.len(), 2, "{dp:?}");
        assert!(dp.is_fully_covered());
        for r in &dp.rehomes {
            assert_eq!(r.from, NodeId(3));
            assert_ne!(r.to, NodeId(3), "never back onto the drain: {dp:?}");
            assert_ne!(r.to, r.leader, "never on the leader: {dp:?}");
        }
    }

    #[test]
    fn replicated_drain_leader_moves_avoid_follower_hosts() {
        // Segment 30 (led by draining node 3) has its follower copy on
        // node 1. Node 1 is the coldest survivor, but landing the leader
        // there would evict the copy — node 2 must win instead.
        let stats = vec![stat(30, 3, 100, 1.0), stat(40, 2, 100, 0.5)];
        let sites = [site(30, 3, &[1])];
        let hosts = [host(1, 0.0), host(2, 0.5)];
        let dp = plan_drain_replicated(
            &stats,
            &[NodeId(3)],
            &[NodeId(1), NodeId(2)],
            &sites,
            &hosts,
            1,
        );
        let mv = dp
            .plan
            .moves
            .iter()
            .find(|m| m.seg == SegmentId(30))
            .unwrap();
        assert_eq!(mv.to, NodeId(2), "follower host avoided: {dp:?}");
        // With node 2 gone, the follower host is the only destination —
        // the fallback still empties the drain rather than wedging.
        let dp = plan_drain_replicated(&stats, &[NodeId(3)], &[NodeId(1)], &sites, &hosts[..1], 1);
        let mv = dp
            .plan
            .moves
            .iter()
            .find(|m| m.seg == SegmentId(30))
            .unwrap();
        assert_eq!(mv.to, NodeId(1), "fallback: {dp:?}");
    }

    #[test]
    fn replicated_drain_rehomes_against_post_move_leaders() {
        // Segment 30's leader moves from draining node 3 onto node 1; its
        // follower copy (also on node 3) must re-home away from the NEW
        // leader, not the old one.
        let stats = vec![stat(30, 3, 100, 1.0)];
        let sites = [site(30, 3, &[4])];
        let hosts = [host(1, 0.0), host(4, 0.0)];
        let dp = plan_drain_replicated(
            &stats,
            &[NodeId(3), NodeId(4)],
            &[NodeId(1)],
            &sites,
            &hosts,
            1,
        );
        // Leader lands on node 1; the follower copy on draining node 4
        // has no host left (only survivor IS the new leader): uncovered.
        assert_eq!(dp.plan.moves[0].to, NodeId(1));
        assert_eq!(dp.orphaned_copies, 1);
        assert!(dp.rehomes.is_empty(), "{dp:?}");
        assert_eq!(dp.uncovered, 1, "refusal signal: {dp:?}");
        assert!(!dp.is_fully_covered());
    }

    #[test]
    fn replicated_drain_leaves_pre_existing_deficits_to_repair() {
        // Factor 2 but segment 10 already lost one follower before the
        // drain: the plan re-homes only the copy the drain orphans; the
        // old deficit stays background repair's job and does not block.
        let stats = vec![stat(10, 1, 100, 1.0)];
        let sites = [site(10, 1, &[3])];
        let hosts = [host(2, 0.0), host(4, 0.0), host(5, 0.0)];
        let dp = plan_drain_replicated(
            &stats,
            &[NodeId(3)],
            &[NodeId(2), NodeId(4), NodeId(5)],
            &sites,
            &hosts,
            2,
        );
        assert_eq!(
            dp.rehomes.len(),
            1,
            "one orphaned copy, one re-home: {dp:?}"
        );
        assert!(dp.is_fully_covered(), "old deficit never blocks: {dp:?}");
    }

    #[test]
    fn greedy_never_ships_more_than_fraction_on_uniform_segments() {
        // Brute-force sweep (single source, single target, equal-size
        // segments): the stop-at-ceiling + strict-improvement guards keep
        // the heat-aware plan at or under the fraction plan's bytes.
        let mut rng = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for case in 0..500 {
            let n = 1 + (next() % 16) as usize;
            let stats: Vec<_> = (0..n)
                .map(|i| stat(i as u64, 0, 100, (next() % 100) as f64))
                .collect();
            let heat_plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)]);
            let frac_plan = plan_fraction(&stats, 0.5, &[NodeId(0)], &[NodeId(1)]);
            assert!(
                heat_plan.bytes_planned <= frac_plan.bytes_planned,
                "case {case}: heat {} > fraction {} for {stats:?}",
                heat_plan.bytes_planned,
                frac_plan.bytes_planned
            );
        }
    }
}
