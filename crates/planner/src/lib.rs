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
//!   coldest targets until every source sits within a configurable
//!   tolerance of the mean heat — minimizing bytes shipped for the balance
//!   achieved, and never splitting a segment.
//! * [`plan_drain`] empties nodes selected for scale-in, spreading their
//!   segments hottest-first across the remaining nodes (longest-processing-
//!   time scheduling) instead of dumping everything onto one target.
//! * [`plan_fraction`] reproduces the legacy fraction heuristic on the same
//!   inputs, so experiments and property tests can compare plans
//!   byte-for-byte.
//!
//! Inputs are plain [`SegmentStat`] rows (id, placement, footprint bytes,
//! decayed heat); the crate holds no cluster state and performs no I/O, so
//! it can be property-tested exhaustively.
//!
//! ## Stationary vs. moving hotspots
//!
//! Heat is access *history*, so plans are only as good as the hotspot is
//! stationary. Read/update-heavy ranges (warehouse, district, customer
//! rows) stay hot where they are and the planner's predictions hold;
//! insert-heavy tables with ascending keys (orders, order-lines) have an
//! *advancing* hot range — the segments that were hot cool off as inserts
//! move past them, so relocating them buys less than the heat table
//! suggests. Tracking heat velocity to plan for where heat is *going* is
//! an open item (see the repository ROADMAP).

use std::collections::BTreeMap;

use wattdb_common::{DenseMap, KeyRange, NodeId, SegmentId, TableId};

/// Which algorithm plans rebalance moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Planner {
    /// Legacy heuristic: move a fixed fraction of each source's
    /// key-ordered segments, targets assigned round-robin.
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

/// Planner tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlanConfig {
    /// Allowed overshoot above the mean per-node heat: a source stops
    /// shedding once its heat is ≤ `mean × (1 + tolerance)`.
    pub tolerance: f64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self { tolerance: 0.1 }
    }
}

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
    /// Total heat the plan relocates.
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

/// Sum per-node heat over the given domain.
fn heat_by_node(stats: &[SegmentStat], domain: &[NodeId]) -> BTreeMap<NodeId, f64> {
    let mut by_node: BTreeMap<NodeId, f64> = domain.iter().map(|&n| (n, 0.0)).collect();
    for s in stats {
        if let Some(h) = by_node.get_mut(&s.node) {
            *h += s.heat;
        }
    }
    by_node
}

/// The coldest node among `choices` (ties broken by fewest assigned bytes,
/// then lowest id, for determinism).
fn coldest(
    choices: &[NodeId],
    heat: &BTreeMap<NodeId, f64>,
    assigned_bytes: &BTreeMap<NodeId, u64>,
) -> Option<NodeId> {
    choices.iter().copied().min_by(|a, b| {
        let (ha, hb) = (heat[a], heat[b]);
        ha.partial_cmp(&hb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                assigned_bytes
                    .get(a)
                    .unwrap_or(&0)
                    .cmp(assigned_bytes.get(b).unwrap_or(&0))
            })
            .then_with(|| a.cmp(b))
    })
}

/// Plan a scale-out: relieve `sources` by moving their hottest-per-byte
/// segments onto `targets` until every source's heat is within
/// `cfg.tolerance` of the mean over the planning domain (sources ∪
/// targets) — or no further move can improve the balance.
///
/// Guarantees:
/// * segments are never split and never land on a source;
/// * every move strictly lowers the maximum of the involved pair, so the
///   predicted maximum never exceeds the initial maximum;
/// * cold segments (zero heat) are never shipped — bytes buy balance or
///   they stay home.
pub fn plan_scale_out(
    stats: &[SegmentStat],
    sources: &[NodeId],
    targets: &[NodeId],
    cfg: &PlanConfig,
) -> Plan {
    let mut domain: Vec<NodeId> = sources.iter().chain(targets.iter()).copied().collect();
    domain.sort_unstable();
    domain.dedup();
    let mut node_heat = heat_by_node(stats, &domain);
    let initial_max_heat = node_heat.values().copied().fold(0.0, f64::max);
    let total: f64 = node_heat.values().sum();
    let mean = if domain.is_empty() {
        0.0
    } else {
        total / domain.len() as f64
    };
    let ceiling = mean * (1.0 + cfg.tolerance.max(0.0));

    let mut moves = Vec::new();
    let mut bytes_planned = 0u64;
    let mut heat_planned = 0.0f64;
    let mut assigned_bytes: BTreeMap<NodeId, u64> = BTreeMap::new();

    if targets.is_empty() {
        return Plan {
            planner: Planner::HeatAware,
            moves,
            bytes_planned,
            heat_planned,
            predicted: node_heat,
            initial_max_heat,
        };
    }

    // Hottest sources first: the worst imbalance gets first pick of the
    // empty targets.
    let mut src_order: Vec<NodeId> = sources.to_vec();
    src_order.sort_by(|a, b| {
        node_heat[b]
            .partial_cmp(&node_heat[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(b))
    });
    src_order.dedup();

    // Destinations are targets only — never another (possibly also hot)
    // source.
    let dests: Vec<NodeId> = targets
        .iter()
        .copied()
        .filter(|t| !sources.contains(t))
        .collect();
    if dests.is_empty() {
        return Plan {
            planner: Planner::HeatAware,
            moves,
            bytes_planned,
            heat_planned,
            predicted: node_heat,
            initial_max_heat,
        };
    }

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
            if node_heat[&src] <= ceiling {
                break;
            }
            let Some(dest) = coldest(&dests, &node_heat, &assigned_bytes) else {
                break;
            };
            // Only move if the pair's maximum strictly improves; shifting
            // the hotspot to the target ships bytes for nothing.
            if node_heat[&dest] + cand.heat >= node_heat[&src] {
                continue;
            }
            *node_heat.get_mut(&src).expect("source in domain") -= cand.heat;
            *node_heat.get_mut(&dest).expect("target in domain") += cand.heat;
            *assigned_bytes.entry(dest).or_insert(0) += cand.bytes;
            bytes_planned += cand.bytes;
            heat_planned += cand.heat;
            moves.push(PlannedMove {
                seg: cand.seg,
                table: cand.table,
                range: cand.range,
                from: src,
                to: dest,
            });
        }
    }

    Plan {
        planner: Planner::HeatAware,
        moves,
        bytes_planned,
        heat_planned,
        predicted: node_heat,
        initial_max_heat,
    }
}

/// Plan a scale-in drain: *every* segment on the `drain` nodes must leave
/// (nodes holding data must not power off). Segments are assigned
/// hottest-first to the coldest remaining node — longest-processing-time
/// scheduling — so a drained node's hot segments spread across the
/// survivors instead of piling onto one. This is
/// [`plan_drain_replicated`] over a cluster with no follower copies.
pub fn plan_drain(
    stats: &[SegmentStat],
    drain: &[NodeId],
    remaining: &[NodeId],
    cfg: &PlanConfig,
) -> Plan {
    plan_drain_replicated(stats, drain, remaining, cfg, &[], &[], 0).plan
}

// ------------------------------------------------------------------ helpers

/// One node's load row for helper planning: how hot it runs overall and
/// how much of that heat is *net/remote-heavy* — the component a Fig. 8
/// helper (log shipping + remote buffer extension) actually relieves.
/// Under the cost-based heat signal the caller splits the components from
/// per-segment cost vectors; under the count signal `net_heat` falls back
/// to the total heat (the legacy signal cannot attribute components).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLoadStat {
    /// The (active) node carrying the load.
    pub node: NodeId,
    /// Total decayed heat of the node's segments.
    pub heat: f64,
    /// The net/remote-heavy component of that heat.
    pub net_heat: f64,
}

/// One node eligible to serve as a helper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HelperCandidate {
    /// Candidate node.
    pub node: NodeId,
    /// Its current decayed heat (zero for standbys).
    pub heat: f64,
    /// Its current NIC load (net-heavy heat component, or measured
    /// transmit utilization — zero for standbys). A helper takes on its
    /// source's log shipping and remote-buffer traffic, so a candidate
    /// whose NIC is already busy relieves less than an idle one.
    pub net: f64,
    /// True when the node is in standby — the preferred helper pool: a
    /// standby brings fresh DRAM and an idle NIC at the cost of powering
    /// on, while an active node lends capacity it may still need.
    pub standby: bool,
}

/// Helper-planning knobs (the planner-facing subset of the policy's
/// `HelperPolicyConfig`).
#[derive(Debug, Clone, Copy)]
pub struct HelperConfig {
    /// Most source→helper assignments in one plan.
    pub max_helpers: usize,
    /// Sources with less net heat than this get no helper.
    pub min_net_heat: f64,
}

impl Default for HelperConfig {
    fn default() -> Self {
        Self {
            max_helpers: 2,
            min_net_heat: 0.0,
        }
    }
}

/// One planned helper attachment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HelperAssignment {
    /// Hot source whose log shipping and buffer overflow the helper takes.
    pub source: NodeId,
    /// The helper node.
    pub helper: NodeId,
    /// The source's net-heat component at planning time — what the
    /// attachment is predicted to relieve.
    pub net_heat: f64,
}

/// A complete helper plan with its predicted effect.
#[derive(Debug, Clone, Default)]
pub struct HelperPlan {
    /// Assignments in descending source net-heat order.
    pub assignments: Vec<HelperAssignment>,
    /// Total net/remote-heavy heat the plan relieves (the sum over the
    /// helped sources).
    pub predicted_relief: f64,
    /// The eligible candidate pool in preference order — standbys first,
    /// then idle-NIC, then coldest — one rendered line per candidate
    /// (`"n3 standby net=0.000 heat=0.000"`). Recorded on the helper span
    /// so an exported timeline shows why each helper won over the
    /// alternatives.
    pub ranking: Vec<String>,
}

impl HelperPlan {
    /// True when no helper is worth attaching.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The helper nodes of the plan, in assignment order.
    pub fn helpers(&self) -> Vec<NodeId> {
        self.assignments.iter().map(|a| a.helper).collect()
    }

    /// The helped sources of the plan, in assignment order.
    pub fn sources(&self) -> Vec<NodeId> {
        self.assignments.iter().map(|a| a.source).collect()
    }
}

/// Plan helper attachments: rank `sources` by their net/remote-heavy heat
/// component and pair the heaviest with helpers drawn from `candidates`,
/// one helper per source, at most `cfg.max_helpers` assignments.
///
/// Helper choice prefers standbys, then idle-NIC candidates (a busy NIC
/// cannot absorb a source's shipping traffic), then the coldest
/// remaining ones. The plan never assigns:
/// * a node listed in `excluded` (migration sources/targets, nodes
///   already helping);
/// * a source to itself (or to another helped source);
/// * the master (`NodeId(0)`) while any alternative candidate exists;
/// * more than one source to the same helper.
///
/// Sources below `cfg.min_net_heat` are not helped — their pain is not
/// remote traffic. With a zero floor (the default) even a source with no
/// net component qualifies, ranked last: a log-shipping helper still
/// relieves its commit path. Cold sources (no heat at all) never get a
/// helper. With distinct heat signals the choice depends only on the
/// *signals*, so renumbering the nodes renames the answer without
/// changing which physical nodes pair up.
pub fn plan_helpers(
    sources: &[NodeLoadStat],
    candidates: &[HelperCandidate],
    excluded: &[NodeId],
    cfg: &HelperConfig,
) -> HelperPlan {
    let mut plan = HelperPlan::default();
    if cfg.max_helpers == 0 {
        return plan;
    }
    // Net-heaviest sources first; deterministic tie-break on id.
    let mut ranked: Vec<&NodeLoadStat> = sources
        .iter()
        .filter(|s| s.heat > 0.0 && s.net_heat >= cfg.min_net_heat)
        .collect();
    ranked.sort_by(|a, b| {
        b.net_heat
            .partial_cmp(&a.net_heat)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                b.heat
                    .partial_cmp(&a.heat)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.node.cmp(&b.node))
    });
    // One row per node, best-ranked occurrence wins: duplicate input rows
    // sort apart by their heats, so adjacent-only dedup would let a node
    // collect two helpers.
    let mut seen = std::collections::BTreeSet::new();
    ranked.retain(|s| seen.insert(s.node));

    // Eligible helpers: not excluded, not a source. Standbys first, then
    // the coldest actives; the master only as the pool of last resort.
    let is_source = |n: NodeId| sources.iter().any(|s| s.node == n);
    let eligible: Vec<&HelperCandidate> = candidates
        .iter()
        .filter(|c| !excluded.contains(&c.node) && !is_source(c.node))
        .collect();
    let mut pool: Vec<&HelperCandidate> = eligible
        .iter()
        .copied()
        .filter(|c| c.node != NodeId(0))
        .collect();
    if pool.is_empty() {
        pool = eligible;
    }
    pool.sort_by(|a, b| {
        b.standby
            .cmp(&a.standby)
            .then_with(|| {
                a.net
                    .partial_cmp(&b.net)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| {
                a.heat
                    .partial_cmp(&b.heat)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| a.node.cmp(&b.node))
    });
    // As above: best-ranked occurrence per node, or a duplicate candidate
    // row would let the same helper serve two sources.
    let mut seen = std::collections::BTreeSet::new();
    pool.retain(|c| seen.insert(c.node));
    plan.ranking = pool
        .iter()
        .map(|c| {
            format!(
                "{} {} net={:.3} heat={:.3}",
                c.node,
                if c.standby { "standby" } else { "active" },
                c.net,
                c.heat
            )
        })
        .collect();

    let mut next = pool.into_iter();
    for src in ranked.into_iter().take(cfg.max_helpers) {
        let Some(helper) = next.next() else {
            break;
        };
        plan.predicted_relief += src.net_heat;
        plan.assignments.push(HelperAssignment {
            source: src.node,
            helper: helper.node,
            net_heat: src.net_heat,
        });
    }
    plan
}

// ----------------------------------------------------------------- replicas

/// One segment's replica-planning input: its leader and the followers it
/// already has (kept, never duplicated by the plan).
#[derive(Debug, Clone)]
pub struct ReplicaNeed {
    /// The segment needing followers.
    pub seg: SegmentId,
    /// Its current leader — never a follower host.
    pub leader: NodeId,
    /// Followers already in place (after a failure: the survivors).
    pub existing: Vec<NodeId>,
}

/// One segment's planned follower additions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaPlacement {
    /// The segment.
    pub seg: SegmentId,
    /// Its leader (unchanged by the plan).
    pub leader: NodeId,
    /// **New** followers to attach, in assignment order.
    pub followers: Vec<NodeId>,
}

/// A complete replica placement plan.
#[derive(Debug, Clone, Default)]
pub struct ReplicaPlan {
    /// Per-segment follower additions; segments already at factor are
    /// omitted.
    pub placements: Vec<ReplicaPlacement>,
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

/// Plan follower placement: bring every segment in `needs` up to
/// `factor` followers, drawing hosts from `hosts`.
///
/// Failure domains are nodes, so the guarantees are:
/// * a follower never lands on its segment's leader;
/// * a segment's followers are pairwise distinct (and distinct from any
///   `existing` survivor);
/// * hosts fill coldest-first ([`NodeLoadStat::heat`]), preferring idle
///   NICs ([`NodeLoadStat::net_heat`]) among equally cold hosts, with a
///   per-host assignment count spreading follower load across the
///   cluster instead of piling every copy onto the single coldest node.
///
/// A segment that cannot reach factor (not enough distinct eligible
/// hosts) gets as many followers as exist — the plan never invents a
/// co-located copy to hit the number.
pub fn plan_replicas(needs: &[ReplicaNeed], hosts: &[NodeLoadStat], factor: usize) -> ReplicaPlan {
    let mut plan = ReplicaPlan::default();
    if factor == 0 {
        return plan;
    }
    // One row per host, deterministic: duplicates collapse to the first.
    let mut pool: Vec<&NodeLoadStat> = hosts.iter().collect();
    pool.sort_by_key(|h| h.node);
    let mut seen = std::collections::BTreeSet::new();
    pool.retain(|h| seen.insert(h.node));
    let mut assigned: BTreeMap<NodeId, usize> = BTreeMap::new();

    for need in needs {
        if need.existing.len() >= factor {
            continue;
        }
        let deficit = factor - need.existing.len();
        let mut followers = Vec::with_capacity(deficit);
        for _ in 0..deficit {
            let pick = pool
                .iter()
                .filter(|h| {
                    h.node != need.leader
                        && !need.existing.contains(&h.node)
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
                        .then_with(|| {
                            a.net_heat
                                .partial_cmp(&b.net_heat)
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
            plan.placements.push(ReplicaPlacement {
                seg: need.seg,
                leader: need.leader,
                followers,
            });
        }
    }
    plan
}

/// One segment's *current* replication state, as planning input for a
/// replica-aware drain: which node leads it and which nodes hold its
/// follower copies (both the ones staying and the ones about to drain).
#[derive(Debug, Clone)]
pub struct ReplicaSite {
    /// The replicated segment.
    pub seg: SegmentId,
    /// Its current leader.
    pub leader: NodeId,
    /// All current follower hosts.
    pub followers: Vec<NodeId>,
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

/// Plan a replica-aware scale-in drain: empty the `drain` nodes like
/// [`plan_drain`] *and*, in the same plan, re-home every follower copy
/// they host via [`plan_replicas`] so the drain never drops a segment
/// below `factor`.
///
/// Beyond [`plan_drain`]'s guarantees:
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
    _cfg: &PlanConfig,
    sites: &[ReplicaSite],
    hosts: &[NodeLoadStat],
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
    let mut domain: Vec<NodeId> = drain.iter().chain(dests.iter()).copied().collect();
    domain.sort_unstable();
    domain.dedup();
    let mut node_heat = heat_by_node(stats, &domain);
    let initial_max_heat = node_heat.values().copied().fold(0.0, f64::max);

    let mut moves = Vec::new();
    let mut bytes_planned = 0u64;
    let mut heat_planned = 0.0f64;
    let mut assigned_bytes: BTreeMap<NodeId, u64> = BTreeMap::new();

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
            let dest = coldest(&preferred, &node_heat, &assigned_bytes)
                .or_else(|| coldest(&dests, &node_heat, &assigned_bytes))
                .expect("dests non-empty");
            *node_heat.get_mut(&seg.node).expect("drain in domain") -= seg.heat;
            *node_heat.get_mut(&dest).expect("dest in domain") += seg.heat;
            *assigned_bytes.entry(dest).or_insert(0) += seg.bytes;
            bytes_planned += seg.bytes;
            heat_planned += seg.heat;
            moves.push(PlannedMove {
                seg: seg.seg,
                table: seg.table,
                range: seg.range,
                from: seg.node,
                to: dest,
            });
        }
    }

    // Follower re-homes: every copy hosted on a drained node gets a
    // replacement, planned against the *post-move* leaders so a backfill
    // source is never its own destination.
    let mut needs = Vec::new();
    let mut lost_by_seg: Vec<(SegmentId, Vec<NodeId>)> = Vec::new();
    let mut orphaned_copies = 0usize;
    for site in sites {
        let lost: Vec<NodeId> = site
            .followers
            .iter()
            .copied()
            .filter(|f| drain.contains(f))
            .collect();
        if lost.is_empty() {
            continue;
        }
        orphaned_copies += lost.len();
        let existing: Vec<NodeId> = site
            .followers
            .iter()
            .copied()
            .filter(|f| !drain.contains(f))
            .collect();
        let leader = moves
            .iter()
            .find(|m| m.seg == site.seg)
            .map(|m| m.to)
            .unwrap_or(site.leader);
        needs.push(ReplicaNeed {
            seg: site.seg,
            leader,
            existing,
        });
        lost_by_seg.push((site.seg, lost));
    }
    let host_pool: Vec<NodeLoadStat> = hosts
        .iter()
        .copied()
        .filter(|h| !drain.contains(&h.node))
        .collect();
    let rp = plan_replicas(&needs, &host_pool, factor);

    let mut rehomes = Vec::new();
    let mut uncovered = 0usize;
    for (need, (seg, lost)) in needs.iter().zip(lost_by_seg.iter()) {
        let planned: &[NodeId] = rp
            .placements
            .iter()
            .find(|p| p.seg == *seg)
            .map(|p| p.followers.as_slice())
            .unwrap_or(&[]);
        // Pair each orphaned copy with a planned host; extra plan slots
        // (pre-existing deficit top-ups) are left to background repair.
        for (from, to) in lost.iter().zip(planned.iter()) {
            rehomes.push(FollowerRehome {
                seg: *seg,
                leader: need.leader,
                from: *from,
                to: *to,
            });
        }
        let executed = lost.len().min(planned.len());
        let kept = need.existing.len() + executed;
        let pre_drain = need.existing.len() + lost.len();
        uncovered += pre_drain.min(factor).saturating_sub(kept);
    }

    DrainPlan {
        plan: Plan {
            planner: Planner::HeatAware,
            moves,
            bytes_planned,
            heat_planned,
            predicted: node_heat,
            initial_max_heat,
        },
        rehomes,
        orphaned_copies,
        uncovered,
    }
}

/// The legacy fraction heuristic expressed in planner terms, for
/// apples-to-apples comparison: per (table, source), keep the lower
/// `1 − fraction` of key-ordered segments and move the rest to targets
/// round-robin by source index.
pub fn plan_fraction(
    stats: &[SegmentStat],
    fraction: f64,
    sources: &[NodeId],
    targets: &[NodeId],
) -> Plan {
    let mut domain: Vec<NodeId> = sources.iter().chain(targets.iter()).copied().collect();
    domain.sort_unstable();
    domain.dedup();
    let mut node_heat = heat_by_node(stats, &domain);
    let initial_max_heat = node_heat.values().copied().fold(0.0, f64::max);

    let mut moves = Vec::new();
    let mut bytes_planned = 0u64;
    let mut heat_planned = 0.0f64;
    if targets.is_empty() {
        return Plan {
            planner: Planner::Fraction,
            moves,
            bytes_planned,
            heat_planned,
            predicted: node_heat,
            initial_max_heat,
        };
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
                *node_heat.get_mut(&src).expect("source in domain") -= s.heat;
                *node_heat.get_mut(&to).expect("target in domain") += s.heat;
                bytes_planned += s.bytes;
                heat_planned += s.heat;
                moves.push(PlannedMove {
                    seg: s.seg,
                    table: s.table,
                    range: s.range,
                    from: src,
                    to,
                });
            }
        }
    }

    Plan {
        planner: Planner::Fraction,
        moves,
        bytes_planned,
        heat_planned,
        predicted: node_heat,
        initial_max_heat,
    }
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
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)], &PlanConfig::default());
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
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)], &PlanConfig::default());
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
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)], &PlanConfig::default());
        assert!(
            plan.moves.iter().all(|m| m.seg == SegmentId(0)),
            "only the hot segment may ship: {plan:?}"
        );
    }

    #[test]
    fn scale_out_without_targets_is_empty() {
        let stats = vec![stat(0, 0, 100, 4.0)];
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[], &PlanConfig::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn scale_out_never_worsens_the_maximum() {
        // One indivisible hot segment: moving it would only shift the
        // hotspot, so the plan leaves it.
        let stats = vec![stat(0, 0, 100, 10.0)];
        let plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)], &PlanConfig::default());
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
        let plan = plan_drain(
            &stats,
            &[NodeId(2)],
            &[NodeId(0), NodeId(1)],
            &PlanConfig::default(),
        );
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
        let cfg = PlanConfig { tolerance: 0.1 };
        let heat_plan = plan_scale_out(&stats, &[NodeId(0)], &[NodeId(1)], &cfg);
        let frac_plan = plan_fraction(&stats, 0.5, &[NodeId(0)], &[NodeId(1)]);
        assert!(
            max_heat(&heat_plan) < max_heat(&frac_plan),
            "heat-aware {} vs fraction {}",
            max_heat(&heat_plan),
            max_heat(&frac_plan)
        );
        assert!(heat_plan.bytes_planned <= frac_plan.bytes_planned);
    }

    // ------------------------------------------------------------ helpers

    fn load(node: u16, heat: f64, net: f64) -> NodeLoadStat {
        NodeLoadStat {
            node: NodeId(node),
            heat,
            net_heat: net,
        }
    }

    fn cand(node: u16, heat: f64, standby: bool) -> HelperCandidate {
        HelperCandidate {
            node: NodeId(node),
            heat,
            net: 0.0,
            standby,
        }
    }

    #[test]
    fn helpers_go_to_the_net_heaviest_sources() {
        // Node 1 is hottest overall but node 2 carries the most *net*
        // heat: node 2 gets the first (standby) helper.
        let sources = [load(1, 100.0, 5.0), load(2, 60.0, 40.0)];
        let cands = [cand(3, 0.0, true), cand(4, 0.0, true)];
        let plan = plan_helpers(&sources, &cands, &[], &HelperConfig::default());
        assert_eq!(plan.assignments.len(), 2);
        assert_eq!(plan.assignments[0].source, NodeId(2));
        assert_eq!(plan.assignments[0].helper, NodeId(3));
        assert_eq!(plan.assignments[1].source, NodeId(1));
        assert_eq!(plan.assignments[1].helper, NodeId(4));
        assert!((plan.predicted_relief - 45.0).abs() < 1e-9);
    }

    #[test]
    fn helper_pool_prefers_standbys_then_coldest_actives() {
        let sources = [load(1, 50.0, 50.0)];
        // A cold active, an even colder active, and one standby: the
        // standby wins despite the actives' low heat.
        let cands = [cand(2, 1.0, false), cand(3, 0.5, false), cand(4, 0.0, true)];
        let plan = plan_helpers(&sources, &cands, &[], &HelperConfig::default());
        assert_eq!(plan.helpers(), vec![NodeId(4)]);
        // Without the standby, the coldest active is next in line.
        let plan = plan_helpers(&sources, &cands[..2], &[], &HelperConfig::default());
        assert_eq!(plan.helpers(), vec![NodeId(3)]);
    }

    #[test]
    fn helper_pool_prefers_idle_nics_among_actives() {
        let sources = [load(1, 50.0, 50.0)];
        // Node 2 is colder overall but its NIC is saturated; node 3 runs
        // hotter with an idle NIC. The idle NIC wins — a busy NIC cannot
        // absorb the source's shipping traffic.
        let cands = [
            HelperCandidate {
                node: NodeId(2),
                heat: 1.0,
                net: 8.0,
                standby: false,
            },
            HelperCandidate {
                node: NodeId(3),
                heat: 2.0,
                net: 0.0,
                standby: false,
            },
        ];
        let plan = plan_helpers(&sources, &cands, &[], &HelperConfig::default());
        assert_eq!(plan.helpers(), vec![NodeId(3)], "{plan:?}");
        // A standby still outranks any active, busy NIC or not.
        let with_standby = [
            cands[1],
            HelperCandidate {
                node: NodeId(4),
                heat: 0.0,
                net: 0.0,
                standby: true,
            },
        ];
        let plan = plan_helpers(&sources, &with_standby, &[], &HelperConfig::default());
        assert_eq!(plan.helpers(), vec![NodeId(4)]);
    }

    #[test]
    fn helper_plan_records_the_candidate_ranking() {
        // The plan carries the pool in preference order — standby first,
        // then idle-NIC, then coldest — so the helper span can show why
        // the winner won.
        let sources = [load(1, 50.0, 50.0)];
        let cands = [
            HelperCandidate {
                node: NodeId(2),
                heat: 1.0,
                net: 8.0,
                standby: false,
            },
            HelperCandidate {
                node: NodeId(3),
                heat: 2.0,
                net: 0.0,
                standby: false,
            },
            HelperCandidate {
                node: NodeId(4),
                heat: 0.0,
                net: 0.0,
                standby: true,
            },
        ];
        let plan = plan_helpers(&sources, &cands, &[], &HelperConfig::default());
        assert_eq!(
            plan.ranking,
            vec![
                "n4 standby net=0.000 heat=0.000",
                "n3 active net=0.000 heat=2.000",
                "n2 active net=8.000 heat=1.000",
            ]
        );
        assert_eq!(plan.helpers(), vec![NodeId(4)]);
    }

    #[test]
    fn helpers_never_come_from_excluded_or_source_nodes() {
        let sources = [load(1, 50.0, 50.0), load(2, 40.0, 30.0)];
        let cands = [
            cand(1, 50.0, false), // a source — never helps itself
            cand(2, 40.0, false), // the other source
            cand(3, 0.0, true),   // excluded (e.g. migration target)
            cand(4, 0.0, true),
        ];
        let plan = plan_helpers(
            &sources,
            &cands,
            &[NodeId(3)],
            &HelperConfig {
                max_helpers: 4,
                min_net_heat: 0.0,
            },
        );
        assert_eq!(plan.helpers(), vec![NodeId(4)], "{plan:?}");
        assert_eq!(plan.sources(), vec![NodeId(1)]);
    }

    #[test]
    fn master_helps_only_as_last_resort() {
        let sources = [load(1, 50.0, 50.0)];
        let with_alternative = [cand(0, 0.0, false), cand(2, 5.0, false)];
        let plan = plan_helpers(&sources, &with_alternative, &[], &HelperConfig::default());
        assert_eq!(plan.helpers(), vec![NodeId(2)], "master spared: {plan:?}");
        let master_only = [cand(0, 0.0, false)];
        let plan = plan_helpers(&sources, &master_only, &[], &HelperConfig::default());
        assert_eq!(plan.helpers(), vec![NodeId(0)], "last resort: {plan:?}");
    }

    #[test]
    fn duplicate_rows_collapse_to_the_best_ranked_occurrence() {
        // Duplicate source rows sort apart by their heats; the node must
        // still collect exactly one helper (from its best-ranked row).
        let sources = [load(1, 50.0, 10.0), load(2, 40.0, 5.0), load(1, 10.0, 3.0)];
        let cands = [cand(3, 0.0, true), cand(4, 0.0, true), cand(5, 0.0, true)];
        let plan = plan_helpers(
            &sources,
            &cands,
            &[],
            &HelperConfig {
                max_helpers: 3,
                min_net_heat: 0.0,
            },
        );
        assert_eq!(plan.sources(), vec![NodeId(1), NodeId(2)], "{plan:?}");
        // Same for candidates: a helper listed twice (with differing
        // heats) serves at most one source.
        let sources = [load(1, 50.0, 10.0), load(2, 40.0, 5.0)];
        let dup_cands = [
            cand(3, 2.0, false),
            cand(3, 1.0, false),
            cand(4, 5.0, false),
        ];
        let plan = plan_helpers(
            &sources,
            &dup_cands,
            &[],
            &HelperConfig {
                max_helpers: 3,
                min_net_heat: 0.0,
            },
        );
        assert_eq!(plan.helpers(), vec![NodeId(3), NodeId(4)], "{plan:?}");
    }

    #[test]
    fn net_heat_floor_and_cap_bound_the_plan() {
        let sources = [load(1, 9.0, 9.0), load(2, 8.0, 8.0), load(3, 1.0, 0.4)];
        let cands = [cand(4, 0.0, true), cand(5, 0.0, true), cand(6, 0.0, true)];
        // The floor silences node 3; the cap keeps one assignment.
        let plan = plan_helpers(
            &sources,
            &cands,
            &[],
            &HelperConfig {
                max_helpers: 1,
                min_net_heat: 1.0,
            },
        );
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].source, NodeId(1));
        // A zero-net source still gets a helper under the zero floor (log
        // shipping relieves its commit path), ranked behind any net-heavy
        // source — but any positive floor excludes it.
        let cpu_only = [load(1, 9.0, 0.0), load(2, 5.0, 3.0)];
        let plan = plan_helpers(&cpu_only, &cands, &[], &HelperConfig::default());
        assert_eq!(plan.sources(), vec![NodeId(2), NodeId(1)], "{plan:?}");
        let plan = plan_helpers(
            &cpu_only,
            &cands,
            &[],
            &HelperConfig {
                max_helpers: 2,
                min_net_heat: 0.5,
            },
        );
        assert_eq!(plan.sources(), vec![NodeId(2)], "{plan:?}");
        // A cold source (no heat at all) never gets one.
        let cold = [load(1, 0.0, 0.0)];
        let plan = plan_helpers(&cold, &cands, &[], &HelperConfig::default());
        assert!(plan.is_empty(), "{plan:?}");
        // max_helpers = 0 disables planning outright.
        let plan = plan_helpers(
            &sources,
            &cands,
            &[],
            &HelperConfig {
                max_helpers: 0,
                min_net_heat: 0.0,
            },
        );
        assert!(plan.is_empty());
    }

    // ----------------------------------------------------------- replicas

    fn need(seg: u64, leader: u16, existing: &[u16]) -> ReplicaNeed {
        ReplicaNeed {
            seg: SegmentId(seg),
            leader: NodeId(leader),
            existing: existing.iter().map(|&n| NodeId(n)).collect(),
        }
    }

    #[test]
    fn replicas_never_co_locate_with_the_leader_and_stay_distinct() {
        let hosts = [load(1, 5.0, 0.0), load(2, 1.0, 0.0), load(3, 2.0, 0.0)];
        let needs = [need(1, 1, &[]), need(2, 2, &[])];
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
        let hosts = [
            load(1, 9.0, 0.0),
            load(2, 1.0, 0.0),
            load(3, 2.0, 0.0),
            load(4, 3.0, 0.0),
        ];
        let needs = [need(1, 1, &[]), need(2, 1, &[]), need(3, 1, &[])];
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
    fn replicas_prefer_idle_nics_among_equally_cold_hosts() {
        // Two standby-cold hosts; node 3's NIC already carries traffic.
        let hosts = [load(2, 0.0, 4.0), load(3, 0.0, 0.0)];
        let plan = plan_replicas(&[need(1, 1, &[])], &hosts, 1);
        // Equal heat → the idle NIC wins the tie.
        assert_eq!(plan.placements[0].followers, vec![NodeId(3)], "{plan:?}");
    }

    #[test]
    fn replica_deficit_only_and_capacity_bounds() {
        let hosts = [load(2, 0.0, 0.0), load(3, 1.0, 0.0)];
        // Already at factor: nothing planned.
        let plan = plan_replicas(&[need(1, 1, &[2])], &hosts, 1);
        assert!(plan.is_empty(), "{plan:?}");
        // Deficit of one: only the missing follower is added, avoiding
        // the survivor.
        let plan = plan_replicas(&[need(1, 1, &[2])], &hosts, 2);
        assert_eq!(plan.placements[0].followers, vec![NodeId(3)]);
        // Not enough distinct hosts: as many as exist, never a co-located
        // copy to hit the number.
        let plan = plan_replicas(&[need(1, 1, &[])], &hosts, 5);
        assert_eq!(plan.placements[0].followers, vec![NodeId(2), NodeId(3)]);
        // Factor zero disables planning.
        assert!(plan_replicas(&[need(1, 1, &[])], &hosts, 0).is_empty());
        // The leader being the only host yields nothing.
        let only_leader = [load(1, 0.0, 0.0)];
        assert!(plan_replicas(&[need(1, 1, &[])], &only_leader, 1).is_empty());
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
        let hosts = [load(1, 2.0, 0.0), load(2, 2.0, 0.0), load(4, 0.0, 0.0)];
        let dp = plan_drain_replicated(
            &stats,
            &[NodeId(3)],
            &[NodeId(1), NodeId(2), NodeId(4)],
            &PlanConfig::default(),
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
        let hosts = [load(1, 0.0, 0.0), load(2, 0.5, 0.0)];
        let dp = plan_drain_replicated(
            &stats,
            &[NodeId(3)],
            &[NodeId(1), NodeId(2)],
            &PlanConfig::default(),
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
        let dp = plan_drain_replicated(
            &stats,
            &[NodeId(3)],
            &[NodeId(1)],
            &PlanConfig::default(),
            &sites,
            &hosts[..1],
            1,
        );
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
        let hosts = [load(1, 0.0, 0.0), load(4, 0.0, 0.0)];
        let dp = plan_drain_replicated(
            &stats,
            &[NodeId(3), NodeId(4)],
            &[NodeId(1)],
            &PlanConfig::default(),
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
        let hosts = [load(2, 0.0, 0.0), load(4, 0.0, 0.0), load(5, 0.0, 0.0)];
        let dp = plan_drain_replicated(
            &stats,
            &[NodeId(3)],
            &[NodeId(2), NodeId(4), NodeId(5)],
            &PlanConfig::default(),
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
            let tol = (case % 4) as f64 * 0.1;
            let heat_plan = plan_scale_out(
                &stats,
                &[NodeId(0)],
                &[NodeId(1)],
                &PlanConfig { tolerance: tol },
            );
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
