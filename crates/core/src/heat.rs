//! Per-segment heat tracking: the data the heat-aware planner plans from.
//!
//! Every executor access resolves to a segment; the [`HeatTable`] charges
//! that segment an increment on top of an exponentially decayed running
//! total — an EWMA in simulated time. Decay is applied lazily at
//! touch/read time, so idle segments cost nothing to age.
//!
//! **What one access is worth** depends on the configured signal:
//!
//! * **Cost-based** (the default, [`CostModel`] present): the access's
//!   actual hardware demand — a [`CostVector`] of core CPU time, buffer
//!   page touches, and interconnect bytes, the same currency as
//!   `wattdb_query`'s `CostTrace` — is scalarized into heat. A CPU-heavy
//!   scan/aggregation weighs what it costs; a cheap point read weighs
//!   what *it* costs. This is the query-cost-estimated planning of Arsov
//!   et al.: the planner balances *work*, not access counts.
//! * **Count-based** (cost tracing off, `CostModel` absent): flat
//!   per-access-kind weights (reads, writes, and remote page fetches
//!   weigh differently, see [`HeatConfig`]). Kept as the arm the
//!   `planner_shootout` mixed-operator cell and `tests/planner_cost.rs`
//!   compare cost-heat against.
//!
//! Either way the executor has **one call site per access**:
//! [`HeatTable::record_access_n`] at apply time; a count-based table
//! reduces the call to its flat weights.
//!
//! Heat is keyed by [`SegmentId`] and therefore *travels with the segment*
//! across physiological moves: after a rebalance the target node's rolled-
//! up heat immediately reflects its new load, which is exactly what the
//! next planning round needs.
//!
//! The [`drift`] submodule layers heat *velocity* on top: an EWMA of
//! per-window heat deltas that lets the planner plan against projected
//! heat — where the workload is going, not where it was (moving TPC-C
//! insert hotspots). [`plan_scale_out`] and [`plan_drain_replicated`] consume the
//! projected view whenever the cluster's drift horizon is non-zero, and
//! accumulate/project cost-heat exactly as they did count-heat.

use wattdb_common::{
    CostModel, CostVector, DenseMap, Heat, HeatConfig, NodeId, SegmentId, SimDuration, SimTime,
    TableId,
};
use wattdb_storage::SegmentDirectory;

use crate::cluster::Lifecycle;

pub mod drift;

pub use drift::DriftTracker;

/// What kind of record operation an access was (drives the flat-weight
/// fallback and the lifetime counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A point/range read.
    Read,
    /// An update/insert/delete.
    Write,
}

/// One segment's tracked heat, raw access counters, and accumulated cost.
#[derive(Debug, Clone, Copy)]
pub struct SegmentHeat {
    /// Decayed heat as of `last_touch`.
    pub heat: Heat,
    /// Local + remote read accesses (undecayed lifetime count).
    pub reads: u64,
    /// Write accesses (undecayed lifetime count).
    pub writes: u64,
    /// Accesses that needed a remote page fetch (undecayed lifetime count).
    pub remote_fetches: u64,
    /// Analytic scans executed over the segment (undecayed lifetime count).
    pub scans: u64,
    /// Undecayed lifetime hardware demand charged to the segment (zero
    /// when running count-based).
    pub cost: CostVector,
    /// When `heat` was last brought current.
    pub last_touch: SimTime,
}

/// A per-segment heat snapshot row, joined with catalog placement (what
/// [`HeatTable::snapshot`] returns).
#[derive(Debug, Clone, Copy)]
pub struct SegmentHeatStat {
    /// Segment id.
    pub seg: SegmentId,
    /// Owning table.
    pub table: TableId,
    /// Node storing the segment.
    pub node: NodeId,
    /// Decayed heat at snapshot time.
    pub heat: f64,
    /// Lifetime read accesses.
    pub reads: u64,
    /// Lifetime write accesses.
    pub writes: u64,
    /// Lifetime remote page fetches.
    pub remote_fetches: u64,
    /// Lifetime analytic scans.
    pub scans: u64,
    /// Lifetime hardware demand (zero when running count-based).
    pub cost: CostVector,
    /// Disk footprint in bytes (before `io_scale`).
    pub bytes: u64,
}

/// The cluster-wide heat table.
///
/// # Hot-path layout
///
/// Segment ids are allocated densely by the catalog, so the table is a
/// [`DenseMap`] — the record path is an array index, not a hash probe.
/// Decay stops paying a transcendental per access: the per-half-life factors `2^(−2^j µs / half_life)` are
/// precomputed once, and the factor for an arbitrary elapsed delta is
/// the product over the set bits of its microsecond count (≤ 64
/// multiplies, within ~1e-15 of the closed-form `exp2` — pinned ≤ 1e-9
/// by a regression test). [`HeatTable::decay_sweep`] additionally
/// brings every segment current once per monitoring window in one pass,
/// so planner reads inside the window see zero-elapsed entries.
#[derive(Debug)]
pub struct HeatTable {
    cfg: HeatConfig,
    /// Scalarization of cost vectors into heat; `None` falls back to the
    /// flat per-access weights in `cfg` (the count-based signal).
    model: Option<CostModel>,
    /// `pow2[j] = 2^(−(2^j µs) / half_life)`; all ones when decay is off.
    pow2: [f64; 64],
    /// Tracked segments (a segment never touched has no entry).
    slots: DenseMap<SegmentId, SegmentHeat>,
}

/// Decay factor `2^(−elapsed/half_life)` assembled from the cached
/// power-of-two factors: one multiply per set bit of the microsecond
/// delta.
#[inline]
fn factor_of(pow2: &[f64; 64], elapsed: SimDuration) -> f64 {
    let mut d = elapsed.as_micros();
    let mut f = 1.0;
    while d != 0 {
        f *= pow2[d.trailing_zeros() as usize];
        if f == 0.0 {
            return 0.0;
        }
        d &= d - 1;
    }
    f
}

impl HeatTable {
    /// Empty **count-based** table with the given decay/weight
    /// configuration (cost vectors are ignored).
    pub fn new(cfg: HeatConfig) -> Self {
        Self::with_cost_model(cfg, None)
    }

    /// Empty table; with a [`CostModel`] the heat signal is the
    /// scalarized access cost, without one it is the flat weighted count.
    pub fn with_cost_model(cfg: HeatConfig, model: Option<CostModel>) -> Self {
        let mut pow2 = [1.0f64; 64];
        let hl = cfg.half_life.as_micros();
        if hl > 0 {
            for (j, p) in pow2.iter_mut().enumerate() {
                *p = (-(((1u128 << j) as f64) / hl as f64)).exp2();
            }
        }
        Self {
            cfg,
            model,
            pow2,
            slots: DenseMap::new(),
        }
    }

    /// `heat` decayed by `elapsed` under the cached factors. Decay-off
    /// (`half_life == 0`) and zero elapsed return the value bit-for-bit
    /// unchanged, exactly like [`Heat::decayed`].
    #[inline]
    fn decay(&self, heat: Heat, elapsed: SimDuration) -> Heat {
        if self.cfg.half_life.as_micros() == 0 || elapsed.as_micros() == 0 {
            heat
        } else {
            Heat(heat.value() * factor_of(&self.pow2, elapsed))
        }
    }

    #[inline]
    fn entry(&self, seg: SegmentId) -> Option<&SegmentHeat> {
        self.slots.get(&seg)
    }

    /// Bring every tracked segment's heat current to `now` in one flat
    /// pass. The monitoring loop calls this once per window, so the
    /// planner's `node_heat`/`snapshot` reads inside the window hit
    /// zero-elapsed entries and the record path only ever decays across
    /// short intra-window deltas.
    pub fn decay_sweep(&mut self, now: SimTime) {
        if self.cfg.half_life.as_micros() == 0 {
            return;
        }
        let pow2 = self.pow2;
        for e in self.slots.values_mut() {
            let elapsed = now.since(e.last_touch);
            if elapsed.as_micros() != 0 {
                e.heat = Heat(e.heat.value() * factor_of(&pow2, elapsed));
                e.last_touch = now;
            }
        }
    }

    /// The tracking configuration in force.
    pub fn config(&self) -> &HeatConfig {
        &self.cfg
    }

    /// The cost model in force, if the table runs cost-based.
    pub fn cost_model(&self) -> Option<&CostModel> {
        self.model.as_ref()
    }

    /// Label of the heat signal in force — `"cost"` (scalarized access
    /// cost) or `"count"` (flat weighted access counts). The single
    /// source for every surface that reports the signal
    /// (`ClusterStatus::heat_signal`, `ControlEvent::signal`).
    pub fn signal_label(&self) -> &'static str {
        if self.model.is_some() {
            "cost"
        } else {
            "count"
        }
    }

    fn bump(&mut self, seg: SegmentId, now: SimTime, weight: f64) -> &mut SegmentHeat {
        let e = self.slots.get_or_insert_with(seg, || SegmentHeat {
            heat: Heat::ZERO,
            reads: 0,
            writes: 0,
            remote_fetches: 0,
            scans: 0,
            cost: CostVector::ZERO,
            last_touch: now,
        });
        let elapsed = now.since(e.last_touch);
        if self.cfg.half_life.as_micros() != 0 && elapsed.as_micros() != 0 {
            e.heat = Heat(e.heat.value() * factor_of(&self.pow2, elapsed));
        }
        e.heat += Heat(weight);
        e.last_touch = now;
        e
    }

    /// Charge one record operation. `cost` is the access's measured
    /// hardware demand (CPU charged by the executor, pages pulled through
    /// the buffer pool, remote-fetch bytes); `remote` marks accesses that
    /// needed a remote page fetch. Cost-based tables scalarize the vector;
    /// count-based tables reduce to exactly the flat weights
    /// (`read`/`write` plus the `remote` surcharge) and ignore the vector.
    pub fn record_access(
        &mut self,
        seg: SegmentId,
        now: SimTime,
        kind: AccessKind,
        cost: CostVector,
        remote: bool,
    ) {
        self.record_access_n(seg, now, kind, cost, remote, 1);
    }

    /// [`HeatTable::record_access`] for one executed carrier access
    /// standing in for `n` modeled accesses of the same shape (pooled
    /// client mode). `cost` is the *per-access* vector; the table scales
    /// heat, counters, and the accumulated cost by `n` — exactly, at
    /// `n == 1`, in both `f64` and `u64`.
    pub fn record_access_n(
        &mut self,
        seg: SegmentId,
        now: SimTime,
        kind: AccessKind,
        cost: CostVector,
        remote: bool,
        n: u64,
    ) {
        let per = match &self.model {
            Some(m) => m.heat_of(cost).value(),
            None => {
                let base = match kind {
                    AccessKind::Read => self.cfg.read_weight,
                    AccessKind::Write => self.cfg.write_weight,
                };
                base + if remote { self.cfg.remote_weight } else { 0.0 }
            }
        };
        let costed = self.model.is_some();
        let e = self.bump(seg, now, per * n as f64);
        match kind {
            AccessKind::Read => e.reads += n,
            AccessKind::Write => e.writes += n,
        }
        if remote {
            e.remote_fetches += n;
        }
        if costed {
            e.cost += CostVector {
                cpu: SimDuration::from_micros(cost.cpu.as_micros() * n),
                pages: cost.pages * n,
                net_bytes: cost.net_bytes * n,
            };
        }
    }

    /// Charge one analytic scan (plus any attached operators) executed
    /// over the segment. Cost-based tables charge the operator cost — the
    /// whole point of cost-heat: a scan weighs its CPU/pages/bytes, not
    /// its single access. Count-based tables charge one `read_weight`
    /// (one access is what the count signal can see).
    pub fn record_scan(&mut self, seg: SegmentId, now: SimTime, cost: CostVector) {
        let weight = match &self.model {
            Some(m) => m.heat_of(cost).value(),
            None => self.cfg.read_weight,
        };
        let costed = self.model.is_some();
        let e = self.bump(seg, now, weight);
        e.scans += 1;
        if costed {
            e.cost += cost;
        }
    }

    /// Charge a local read access at the flat `read_weight` whatever the
    /// configured signal: the entry point synthetic scenario drivers and
    /// tests inject heat through (the executor never calls it).
    pub fn record_read(&mut self, seg: SegmentId, now: SimTime) {
        let w = self.cfg.read_weight;
        self.bump(seg, now, w).reads += 1;
    }

    /// The segment's heat decayed to `now` (zero for never-touched
    /// segments).
    pub fn heat_of(&self, seg: SegmentId, now: SimTime) -> Heat {
        match self.entry(seg) {
            Some(e) => self.decay(e.heat, now.since(e.last_touch)),
            None => Heat::ZERO,
        }
    }

    /// Raw tracked state for a segment, if it was ever touched.
    pub fn stats(&self, seg: SegmentId) -> Option<&SegmentHeat> {
        self.entry(seg)
    }

    /// Total heat of the segments stored on `node`, decayed to `now` —
    /// the per-node signal rolled into monitoring reports.
    pub fn node_heat(&self, dir: &SegmentDirectory, node: NodeId, now: SimTime) -> Heat {
        dir.on_node(node)
            .map(|m| self.heat_of(m.id, now))
            .fold(Heat::ZERO, |a, b| a + b)
    }

    /// Joined per-segment snapshot over the whole catalog, hottest first.
    pub fn snapshot(&self, dir: &SegmentDirectory, now: SimTime) -> Vec<SegmentHeatStat> {
        let mut rows: Vec<SegmentHeatStat> = dir
            .iter()
            .map(|m| {
                let tracked = self.entry(m.id);
                SegmentHeatStat {
                    seg: m.id,
                    table: m.table,
                    node: m.node,
                    heat: self.heat_of(m.id, now).value(),
                    reads: tracked.map(|t| t.reads).unwrap_or(0),
                    writes: tracked.map(|t| t.writes).unwrap_or(0),
                    remote_fetches: tracked.map(|t| t.remote_fetches).unwrap_or(0),
                    scans: tracked.map(|t| t.scans).unwrap_or(0),
                    cost: tracked.map(|t| t.cost).unwrap_or(CostVector::ZERO),
                    bytes: m.disk_footprint().as_u64(),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.heat
                .partial_cmp(&a.heat)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.seg.cmp(&b.seg))
        });
        rows
    }
}

/// Heat-aware scale-out plan over the live cluster state: snapshot
/// [`segment_stats_projected`] and plan with the given tolerance. The
/// single entry point shared by `policy::plan` and the facade, so both
/// always produce the same plan for the same state. Plans run against
/// *projected* heat (heat plus drift velocity over the configured
/// horizon); with a zero horizon or no drift observations this is exactly
/// historical heat.
pub fn plan_scale_out(
    c: &crate::cluster::Cluster,
    now: SimTime,
    tolerance: f64,
    sources: &[NodeId],
    targets: &[NodeId],
) -> wattdb_planner::Plan {
    let stats = segment_stats_projected(c, now);
    wattdb_planner::plan_scale_out(
        &stats,
        sources,
        targets,
        &wattdb_planner::PlanConfig { tolerance },
    )
}

/// Replica-aware drain plan over the live cluster state (see
/// [`plan_scale_out`]): the leader moves emptying the drained nodes —
/// survivor targets ranked by projected heat, so the segments land on the
/// nodes that will *stay* cold — *plus* a re-home for every follower copy
/// the drained nodes host, planned atomically so a scale-in never
/// orphans redundancy (see [`wattdb_planner::plan_drain_replicated`]).
/// Re-home hosts are the active, healthy, non-draining survivors with
/// their projected heat and measured NIC utilization — the same pool and
/// ranking background repair uses.
pub fn plan_drain_replicated(
    c: &crate::cluster::Cluster,
    now: SimTime,
    tolerance: f64,
    drain: &[NodeId],
    remaining: &[NodeId],
) -> wattdb_planner::DrainPlan {
    let stats = segment_stats_projected(c, now);
    let sites: Vec<wattdb_planner::ReplicaSite> = c
        .replicas
        .iter()
        .map(|(seg, set)| wattdb_planner::ReplicaSite {
            seg,
            leader: set.leader,
            followers: set.followers.clone(),
        })
        .collect();
    let hosts: Vec<wattdb_planner::NodeLoadStat> = (c.nodes.iter())
        .filter(|n| n.life == Lifecycle::Active && !drain.contains(&n.id))
        .map(|n| host_row(c, n.id, now))
        .collect();
    wattdb_planner::plan_drain_replicated(
        &stats,
        drain,
        remaining,
        &wattdb_planner::PlanConfig { tolerance },
        &sites,
        &hosts,
        c.cfg.replication.factor,
    )
}

/// `node`'s row as a placement *host* — for follower copies and helper
/// duty: total decayed heat, and for `net_heat` the last windowed NIC
/// egress utilization the monitoring loop persisted (planners never
/// sample the stateful probes themselves).
fn host_row(
    c: &crate::cluster::Cluster,
    node: NodeId,
    now: SimTime,
) -> wattdb_planner::NodeLoadStat {
    wattdb_planner::NodeLoadStat {
        node,
        heat: c.heat.node_heat(&c.seg_dir, node, now).value(),
        net_heat: c.net_util.get(node.raw() as usize).copied().unwrap_or(0.0),
    }
}

/// Per-node helper-planning rows for the given nodes: total decayed heat
/// and its net/remote-heavy component.
///
/// Under the cost signal each segment's decayed heat is split by the
/// *net share* of its lifetime cost vector (`net_bytes ×
/// net_byte_weight` over the scalarized total), so a node whose heat is
/// mostly remote page fetches and record shipping ranks far above one
/// burning the same heat in local CPU. Under the count signal the
/// components are invisible and `net_heat` falls back to the total heat
/// (see [`wattdb_planner::NodeLoadStat`]).
pub fn node_load_stats(
    c: &crate::cluster::Cluster,
    now: SimTime,
    nodes: &[NodeId],
) -> Vec<wattdb_planner::NodeLoadStat> {
    let model = c.heat.cost_model();
    nodes
        .iter()
        .map(|&n| {
            let mut total = 0.0;
            let mut net = 0.0;
            for m in c.seg_dir.on_node(n) {
                let heat = c.heat.heat_of(m.id, now).value();
                total += heat;
                let share = match (model, c.heat.stats(m.id)) {
                    (Some(model), Some(s)) if !s.cost.is_zero() => {
                        let whole = model.heat_of(s.cost).value();
                        if whole > 0.0 {
                            let net_only = CostVector {
                                net_bytes: s.cost.net_bytes,
                                ..CostVector::ZERO
                            };
                            model.heat_of(net_only).value() / whole
                        } else {
                            0.0
                        }
                    }
                    // Count signal (or a synthetically warmed segment with
                    // no cost trace): components are invisible — fall back
                    // to the total.
                    _ => 1.0,
                };
                net += heat * share;
            }
            wattdb_planner::NodeLoadStat {
                node: n,
                heat: total,
                net_heat: net,
            }
        })
        .collect()
}

/// Helper plan over the live cluster state: rank `sources` by their
/// net/remote-heavy heat and pair the heaviest with helpers drawn from
/// the standbys and coldest actives — never a node entangled in the
/// in-flight migration, never one already helping, never the master
/// while an alternative exists. A source already wired to a helper is
/// dropped (it has its relief; planning is idempotent).
pub fn plan_helpers(
    c: &crate::cluster::Cluster,
    now: SimTime,
    cfg: &wattdb_common::HelperPolicyConfig,
    sources: &[NodeId],
) -> wattdb_planner::HelperPlan {
    let unhelped: Vec<NodeId> = sources
        .iter()
        .copied()
        .filter(|n| c.nodes[n.raw() as usize].helper.is_none())
        .collect();
    let loads = node_load_stats(c, now, &unhelped);
    let candidates: Vec<wattdb_planner::HelperCandidate> = c
        .nodes
        .iter()
        .map(|n| {
            // Among equally attractive actives the planner takes the one
            // with the idlest interconnect, since helper duty is pure
            // network traffic.
            let row = host_row(c, n.id, now);
            wattdb_planner::HelperCandidate {
                node: n.id,
                heat: row.heat,
                net: row.net_heat,
                // (A failed node also reads as down here; it is excluded
                // below, before any ranking.)
                standby: !n.life.is_up(),
            }
        })
        .collect();
    let mut excluded: Vec<NodeId> = crate::migration::nodes_in_flight(c).into_iter().collect();
    excluded.extend(c.failed_nodes());
    excluded.extend(c.helpers.nodes());
    // The full source list stays out of the candidate pool even where a
    // member was dropped from the loads above (already helped): a node
    // hot enough to be named a source never moonlights as a helper, and
    // neither does any node currently leaning on one.
    excluded.extend(sources.iter().copied());
    excluded.extend(c.nodes.iter().filter(|n| n.helper.is_some()).map(|n| n.id));
    wattdb_planner::plan_helpers(
        &loads,
        &candidates,
        &excluded,
        &wattdb_planner::HelperConfig {
            max_helpers: cfg.max_helpers,
            min_net_heat: cfg.min_net_heat,
        },
    )
}

/// Replica placement plan over the live cluster state: one
/// [`wattdb_planner::ReplicaNeed`] per segment whose follower count is
/// below `cfg.replication.factor` (leader = the current owner in the
/// segment catalog), hosted on the active, non-failed nodes. Host rows
/// carry total decayed heat plus the *measured* NIC utilization persisted
/// by the monitoring loop, so followers land on cold nodes with idle
/// interconnects — the same failure-domain spread the planner enforces
/// (never the leader's node, distinct nodes per segment). The single
/// entry point shared by bootstrap and post-failover re-replication.
pub fn plan_replicas(c: &crate::cluster::Cluster, now: SimTime) -> wattdb_planner::ReplicaPlan {
    let factor = c.cfg.replication.factor;
    if factor == 0 {
        return wattdb_planner::ReplicaPlan {
            placements: Vec::new(),
        };
    }
    let needs: Vec<wattdb_planner::ReplicaNeed> = c
        .seg_dir
        .iter()
        .filter(|m| !c.is_failed(m.node))
        .filter_map(|m| {
            let existing: Vec<NodeId> = c
                .replicas
                .followers_of(m.id)
                .iter()
                .copied()
                .filter(|&f| !c.is_failed(f))
                .collect();
            if existing.len() < factor {
                Some(wattdb_planner::ReplicaNeed {
                    seg: m.id,
                    leader: m.node,
                    existing,
                })
            } else {
                None
            }
        })
        .collect();
    let hosts: Vec<wattdb_planner::NodeLoadStat> = (c.nodes.iter())
        // A draining node is about to suspend: placing a fresh copy there
        // would only schedule its own re-home.
        .filter(|n| n.life == Lifecycle::Active)
        .map(|n| host_row(c, n.id, now))
        .collect();
    wattdb_planner::plan_replicas(&needs, &hosts, factor)
}

/// Planner inputs for the whole catalog: footprint bytes scaled by
/// `io_scale`, heat decayed to `now`.
pub fn segment_stats(
    c: &crate::cluster::Cluster,
    now: SimTime,
) -> Vec<wattdb_planner::SegmentStat> {
    c.seg_dir
        .iter()
        .map(|m| wattdb_planner::SegmentStat {
            seg: m.id,
            table: m.table,
            range: m.key_range.unwrap_or_else(wattdb_common::KeyRange::all),
            node: m.node,
            bytes: c.copy_bytes(m.id).expect("segment is in the catalog"),
            heat: c.heat.heat_of(m.id, now).value(),
        })
        .collect()
}

/// [`segment_stats`] with each segment's heat replaced by its *projected*
/// heat at the cluster's configured drift horizon (`cfg.drift.horizon`).
/// Identical to `segment_stats` when the horizon is zero or no drift has
/// been observed yet.
pub fn segment_stats_projected(
    c: &crate::cluster::Cluster,
    now: SimTime,
) -> Vec<wattdb_planner::SegmentStat> {
    let horizon = c.cfg.drift.horizon;
    let mut stats = segment_stats(c, now);
    if horizon.as_micros() == 0 || c.drift.is_empty() {
        return stats;
    }
    for s in &mut stats {
        s.heat = c.drift.projected(s.seg, s.heat, horizon);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattdb_common::{DiskId, SimDuration};

    fn table() -> HeatTable {
        HeatTable::new(HeatConfig {
            half_life: SimDuration::from_secs(10),
            read_weight: 1.0,
            write_weight: 2.0,
            remote_weight: 0.5,
        })
    }

    #[test]
    fn accesses_accumulate_with_weights() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        t.record_read(SegmentId(1), now);
        t.record_access(SegmentId(1), now, AccessKind::Write, CostVector::ZERO, true);
        let h = t.heat_of(SegmentId(1), now).value();
        assert!((h - 3.5).abs() < 1e-9, "{h}");
        let s = t.stats(SegmentId(1)).unwrap();
        assert_eq!((s.reads, s.writes, s.remote_fetches), (1, 1, 1));
    }

    #[test]
    fn heat_decays_between_touches() {
        let mut t = table();
        t.record_read(SegmentId(1), SimTime::from_secs(0));
        // One half-life later the original unit read is worth 0.5.
        let h = t.heat_of(SegmentId(1), SimTime::from_secs(10)).value();
        assert!((h - 0.5).abs() < 1e-9, "{h}");
        // Touching applies the decay before adding the new weight.
        t.record_read(SegmentId(1), SimTime::from_secs(10));
        let h2 = t.heat_of(SegmentId(1), SimTime::from_secs(10)).value();
        assert!((h2 - 1.5).abs() < 1e-9, "{h2}");
    }

    #[test]
    fn untouched_segments_are_cold() {
        let t = table();
        assert_eq!(t.heat_of(SegmentId(9), SimTime::from_secs(5)).value(), 0.0);
        assert!(t.stats(SegmentId(9)).is_none());
    }

    #[test]
    fn node_heat_rolls_up_per_placement() {
        let mut dir = SegmentDirectory::new();
        let a = dir.create(TableId(1), NodeId(0), DiskId::new(NodeId(0), 1), None, 16);
        let b = dir.create(TableId(1), NodeId(1), DiskId::new(NodeId(1), 1), None, 16);
        let mut t = table();
        let now = SimTime::from_secs(1);
        t.record_read(a, now);
        t.record_read(a, now);
        t.record_access(b, now, AccessKind::Write, CostVector::ZERO, false);
        assert!((t.node_heat(&dir, NodeId(0), now).value() - 2.0).abs() < 1e-9);
        assert!((t.node_heat(&dir, NodeId(1), now).value() - 2.0).abs() < 1e-9);
        // Heat follows the segment when the catalog relocates it.
        dir.relocate(a, NodeId(1), DiskId::new(NodeId(1), 1))
            .unwrap();
        assert_eq!(t.node_heat(&dir, NodeId(0), now).value(), 0.0);
        assert!((t.node_heat(&dir, NodeId(1), now).value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_sorts_hottest_first() {
        let mut dir = SegmentDirectory::new();
        let a = dir.create(TableId(1), NodeId(0), DiskId::new(NodeId(0), 1), None, 16);
        let b = dir.create(TableId(1), NodeId(0), DiskId::new(NodeId(0), 1), None, 16);
        let mut t = table();
        let now = SimTime::from_secs(1);
        t.record_read(a, now);
        t.record_access(b, now, AccessKind::Write, CostVector::ZERO, false);
        let snap = t.snapshot(&dir, now);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seg, b, "writes outweigh reads");
        assert!(snap[0].heat > snap[1].heat);
    }

    // ------------------------------------------------------ cost-based heat

    fn point_read_cost() -> CostVector {
        CostVector {
            cpu: SimDuration::from_micros(12),
            pages: 1,
            net_bytes: 0,
        }
    }

    #[test]
    fn count_fallback_reduces_exactly_to_the_flat_weights() {
        // The guarantee behind the executor's single call site: a
        // count-based table fed through `record_access` charges exactly
        // the flat weights (`read`/`write` plus the `remote` surcharge) on
        // the decayed total, whatever cost vectors the executor hands it.
        let mut unified = table();
        let cfg = *unified.config();
        let mut flat = LegacyRef {
            heat: 0.0,
            last: SimTime::ZERO,
            half_life: cfg.half_life,
        };
        let seg = SegmentId(7);
        let steps: &[(u64, AccessKind, bool)] = &[
            (0, AccessKind::Read, false),
            (3, AccessKind::Write, false),
            (3, AccessKind::Read, true),
            (14, AccessKind::Write, true),
            (40, AccessKind::Read, false),
        ];
        for &(secs, kind, remote) in steps {
            let now = SimTime::from_secs(secs);
            unified.record_access(seg, now, kind, point_read_cost(), remote);
            let base = match kind {
                AccessKind::Read => cfg.read_weight,
                AccessKind::Write => cfg.write_weight,
            };
            flat.touch(now, base + if remote { cfg.remote_weight } else { 0.0 });
            let (hu, hf) = (unified.heat_of(seg, now).value(), flat.at(now));
            assert!(
                (hu - hf).abs() < 1e-12,
                "trajectories diverged at t={secs}: unified {hu} vs flat weights {hf}"
            );
        }
        let u = unified.stats(seg).unwrap();
        assert_eq!((u.reads, u.writes, u.remote_fetches), (3, 2, 2));
        assert!(u.cost.is_zero(), "count-based tables accumulate no cost");
    }

    #[test]
    fn cost_model_scalarizes_instead_of_counting() {
        let mut t = HeatTable::with_cost_model(
            HeatConfig {
                half_life: SimDuration::ZERO,
                ..Default::default()
            },
            Some(CostModel {
                cpu_weight: 0.1,
                page_weight: 1.0,
                net_byte_weight: 0.01,
            }),
        );
        let now = SimTime::from_secs(1);
        let cost = CostVector {
            cpu: SimDuration::from_micros(30),
            pages: 2,
            net_bytes: 100,
        };
        t.record_access(SegmentId(1), now, AccessKind::Read, cost, true);
        let h = t.heat_of(SegmentId(1), now).value();
        assert!((h - (3.0 + 2.0 + 1.0)).abs() < 1e-9, "{h}");
        let s = t.stats(SegmentId(1)).unwrap();
        assert_eq!((s.reads, s.remote_fetches), (1, 1));
        assert_eq!(s.cost, cost, "lifetime cost accumulated");
        assert!(t.cost_model().is_some());
    }

    #[test]
    fn scans_weigh_their_cost_under_the_model_and_one_access_without() {
        let scan_cost = CostVector {
            cpu: SimDuration::from_micros(42_000), // 2000 records × 21 µs
            pages: 100,
            net_bytes: 0,
        };
        let now = SimTime::from_secs(1);
        let mut costed =
            HeatTable::with_cost_model(HeatConfig::default(), Some(CostModel::default()));
        costed.record_scan(SegmentId(1), now, scan_cost);
        costed.record_access(
            SegmentId(2),
            now,
            AccessKind::Read,
            point_read_cost(),
            false,
        );
        let (scan_h, read_h) = (
            costed.heat_of(SegmentId(1), now).value(),
            costed.heat_of(SegmentId(2), now).value(),
        );
        assert!(
            scan_h > 100.0 * read_h,
            "a heavy scan dwarfs a point read under cost-heat: {scan_h} vs {read_h}"
        );
        assert_eq!(costed.stats(SegmentId(1)).unwrap().scans, 1);
        // Count-based: the same scan is one access.
        let mut counted = table();
        counted.record_scan(SegmentId(1), now, scan_cost);
        let h = counted.heat_of(SegmentId(1), now).value();
        assert!((h - counted.config().read_weight).abs() < 1e-9, "{h}");
    }

    // ------------------------------------------------- lazy-decay regression

    /// The reference per-touch arithmetic: decay with a fresh `exp2` on
    /// every access, then add the weight (what `HeatTable::bump` did
    /// before the cached-factor refactor).
    struct LegacyRef {
        heat: f64,
        last: SimTime,
        half_life: SimDuration,
    }

    impl LegacyRef {
        fn touch(&mut self, now: SimTime, weight: f64) {
            self.heat = Heat(self.heat)
                .decayed(now.since(self.last), self.half_life)
                .value()
                + weight;
            self.last = now;
        }
        fn at(&self, now: SimTime) -> f64 {
            Heat(self.heat)
                .decayed(now.since(self.last), self.half_life)
                .value()
        }
    }

    /// Irregular access gaps — prime-ish microsecond offsets so the
    /// elapsed deltas exercise many bit patterns of the factor cache.
    fn access_schedule() -> Vec<(SimTime, f64)> {
        let mut out = Vec::new();
        let mut t: u64 = 1;
        for i in 0..200u64 {
            t += 13 + (i * i * 7919) % 5_000_003;
            out.push((SimTime(t), 1.0 + (i % 7) as f64));
        }
        out
    }

    /// An access-then-query sequence through the cached-factor path must
    /// stay within 1e-9 of the legacy fresh-`exp2` arithmetic, with or
    /// without interleaved window sweeps.
    #[test]
    fn cached_decay_matches_legacy_exp2_within_1e9() {
        for sweep_every in [0usize, 3] {
            let half_life = SimDuration::from_secs(30);
            let mut t = HeatTable::new(HeatConfig {
                half_life,
                read_weight: 1.0,
                write_weight: 2.0,
                remote_weight: 0.5,
            });
            let mut r = LegacyRef {
                heat: 0.0,
                last: SimTime::ZERO,
                half_life,
            };
            let seg = SegmentId(3);
            for (i, &(now, w)) in access_schedule().iter().enumerate() {
                t.bump(seg, now, w);
                r.touch(now, w);
                if sweep_every != 0 && i % sweep_every == 0 {
                    t.decay_sweep(now);
                }
                let (new, old) = (t.heat_of(seg, now).value(), r.at(now));
                let tol = 1e-9 * old.abs().max(1.0);
                assert!(
                    (new - old).abs() <= tol,
                    "diverged at step {i} (sweep_every={sweep_every}): \
                     cached {new} vs legacy {old}"
                );
                // …and when queried mid-idle, a half-life later.
                let later = now + half_life;
                let (new_l, old_l) = (t.heat_of(seg, later).value(), r.at(later));
                assert!(
                    (new_l - old_l).abs() <= 1e-9 * old_l.abs().max(1.0),
                    "idle query diverged at step {i}: {new_l} vs {old_l}"
                );
            }
        }
    }

    /// With decay off (`half_life = 0`) the refactor must be *bitwise*
    /// identical to the legacy arithmetic: pure weight accumulation,
    /// no factor ever applied, sweeps are no-ops.
    #[test]
    fn decay_off_is_bitwise_stable() {
        let mut t = HeatTable::new(HeatConfig {
            half_life: SimDuration::ZERO,
            read_weight: 1.0,
            write_weight: 2.0,
            remote_weight: 0.5,
        });
        let mut r = LegacyRef {
            heat: 0.0,
            last: SimTime::ZERO,
            half_life: SimDuration::ZERO,
        };
        let seg = SegmentId(5);
        for (i, &(now, w)) in access_schedule().iter().enumerate() {
            t.bump(seg, now, w);
            r.touch(now, w);
            t.decay_sweep(now);
            let (new, old) = (t.heat_of(seg, now).value(), r.at(now));
            assert_eq!(
                new.to_bits(),
                old.to_bits(),
                "decay-off bits diverged at step {i}: {new} vs {old}"
            );
        }
    }
}
