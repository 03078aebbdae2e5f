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
//!   per-access-kind weights ([`READ_WEIGHT`], [`WRITE_WEIGHT`], plus
//!   [`REMOTE_WEIGHT`] for a remote page fetch). Kept as the arm the
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
//! The same slot keeps the segment's heat *velocity*: every monitoring
//! window [`HeatTable::observe`] folds each segment's heat delta into an
//! EWMA, and [`segment_stats`] projects heat `horizon` ahead along it —
//! where the workload is going, not where it was (moving TPC-C insert
//! hotspots). [`plan_scale_out`] and [`plan_drain_replicated`] plan on
//! that projected view at `HeatConfig::horizon`; a zero horizon is
//! historical heat. Every segment is observed at the same instants, so
//! the EWMA weights are shared and velocity is linear in the deltas: when
//! a hotspot moves rather than grows, velocities sum to zero and the
//! unclamped projection conserves total heat exactly. Clamping at zero
//! (heat cannot go negative) is the only deviation.

use wattdb_common::{
    CostModel, CostVector, DenseMap, Heat, HeatConfig, NodeId, SegmentId, SimDuration, SimTime,
};
use wattdb_storage::SegmentDirectory;

use crate::cluster::Lifecycle;

/// Count-heat charged by one read.
pub const READ_WEIGHT: f64 = 1.0;
/// Count-heat charged by one write (update/insert/delete): writes dirty
/// pages and append log records.
pub const WRITE_WEIGHT: f64 = 2.0;
/// Count-heat surcharge for an access served by a remote page fetch —
/// the wire and remote disk the planner most wants to save by moving the
/// segment to where it is used.
pub const REMOTE_WEIGHT: f64 = 1.0;

/// What kind of record operation an access was (drives the flat-weight
/// fallback and the lifetime counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A point/range read.
    Read,
    /// An update/insert/delete.
    Write,
}

/// One segment's tracked heat, raw access counters, accumulated cost, and
/// heat velocity.
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
    /// EWMA heat velocity, heat units per second (zero until two windows
    /// have observed the segment).
    velocity: f64,
    /// Heat at the last window that observed the segment.
    seen_heat: f64,
    /// When the last window observed the segment (`None` before the
    /// first).
    seen_at: Option<SimTime>,
}

impl SegmentHeat {
    /// A slot with no heat, no history, and no observation.
    fn cold(now: SimTime) -> Self {
        Self {
            heat: Heat::ZERO,
            reads: 0,
            writes: 0,
            remote_fetches: 0,
            scans: 0,
            cost: CostVector::ZERO,
            last_touch: now,
            velocity: 0.0,
            seen_heat: 0.0,
            seen_at: None,
        }
    }
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
/// by a regression test). [`HeatTable::observe`] additionally brings
/// every segment current once per monitoring window in one pass, so
/// planner reads inside the window see zero-elapsed entries.
#[derive(Debug)]
pub struct HeatTable {
    cfg: HeatConfig,
    /// Scalarization of cost vectors into heat; `None` falls back to the
    /// flat per-access weights ([`READ_WEIGHT`] and its siblings: the
    /// count-based signal).
    model: Option<CostModel>,
    /// `pow2[j] = 2^(−(2^j µs) / half_life)`; all ones when decay is off.
    pow2: [f64; 64],
    /// Tracked segments (a segment neither touched nor observed by a
    /// window has no entry).
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
    /// pass, so reads inside the window hit zero-elapsed entries and the
    /// record path only ever decays across short intra-window deltas.
    fn decay_sweep(&mut self, now: SimTime) {
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

    /// Close one monitoring window: decay every slot to `now`, then fold
    /// each catalog segment's heat delta since the previous window into
    /// its velocity EWMA. A segment's first window only records its
    /// baseline (velocity needs two points); a catalog segment nothing
    /// has touched gets a zero slot.
    ///
    /// The blend weight is `α = 1 − 2^(−Δt / velocity_half_life)`, so an
    /// irregular cadence still forgets history at a constant rate per
    /// simulated second; a zero half-life makes each window replace the
    /// estimate.
    pub fn observe(&mut self, dir: &SegmentDirectory, now: SimTime) {
        self.decay_sweep(now);
        let hl = self.cfg.velocity_half_life.as_micros();
        for m in dir.iter() {
            let e = self
                .slots
                .get_or_insert_with(m.id, || SegmentHeat::cold(now));
            // Current to `now` after the sweep (or decay is off).
            let heat = e.heat.value();
            if let Some(at) = e.seen_at {
                let dt = now.since(at);
                if dt.as_micros() > 0 {
                    let raw = (heat - e.seen_heat) / dt.as_secs_f64();
                    let alpha = if hl == 0 {
                        1.0
                    } else {
                        1.0 - (-(dt.as_micros() as f64 / hl as f64)).exp2()
                    };
                    e.velocity = e.velocity * (1.0 - alpha) + raw * alpha;
                }
            }
            e.seen_heat = heat;
            e.seen_at = Some(now);
        }
    }

    /// The segment's velocity estimate in heat units per second (zero
    /// until two windows have observed it).
    pub fn velocity(&self, seg: SegmentId) -> f64 {
        self.entry(seg).map_or(0.0, |e| e.velocity)
    }

    /// The segment's heat at `now` projected `horizon` ahead along its
    /// velocity: `max(0, heat + velocity × horizon)`. With a zero horizon
    /// or a zero velocity this is [`HeatTable::heat_of`], bit for bit
    /// (heat is never negative).
    pub fn projected(&self, seg: SegmentId, now: SimTime, horizon: SimDuration) -> f64 {
        (self.heat_of(seg, now).value() + self.velocity(seg) * horizon.as_secs_f64()).max(0.0)
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
        let e = self
            .slots
            .get_or_insert_with(seg, || SegmentHeat::cold(now));
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
                    AccessKind::Read => READ_WEIGHT,
                    AccessKind::Write => WRITE_WEIGHT,
                };
                base + if remote { REMOTE_WEIGHT } else { 0.0 }
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
    /// its single access. Count-based tables charge one [`READ_WEIGHT`]
    /// (one access is what the count signal can see).
    pub fn record_scan(&mut self, seg: SegmentId, now: SimTime, cost: CostVector) {
        let weight = match &self.model {
            Some(m) => m.heat_of(cost).value(),
            None => READ_WEIGHT,
        };
        let costed = self.model.is_some();
        let e = self.bump(seg, now, weight);
        e.scans += 1;
        if costed {
            e.cost += cost;
        }
    }

    /// Charge a local read access at the flat [`READ_WEIGHT`] whatever
    /// the configured signal: the entry point synthetic scenario drivers
    /// and tests inject heat through (the executor never calls it).
    pub fn record_read(&mut self, seg: SegmentId, now: SimTime) {
        self.bump(seg, now, READ_WEIGHT).reads += 1;
    }

    /// The segment's heat decayed to `now` (zero for untracked segments).
    pub fn heat_of(&self, seg: SegmentId, now: SimTime) -> Heat {
        match self.entry(seg) {
            Some(e) => self.decay(e.heat, now.since(e.last_touch)),
            None => Heat::ZERO,
        }
    }

    /// Raw tracked state for a segment, if it was ever touched or observed
    /// by a window.
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
}

/// Heat-aware scale-out plan over the live cluster state: take
/// [`segment_stats`] at the configured horizon and plan with the
/// planner's tolerance (a source sheds until it sits within
/// [`wattdb_planner::SCALE_OUT_TOLERANCE`], 10 %, of the mean heat). The
/// single entry point shared by `policy::plan` and the facade, so both
/// always produce the same plan for the same state.
pub fn plan_scale_out(
    c: &crate::cluster::Cluster,
    now: SimTime,
    sources: &[NodeId],
    targets: &[NodeId],
) -> wattdb_planner::Plan {
    let stats = segment_stats(c, now, c.cfg.heat.horizon);
    wattdb_planner::plan_scale_out(&stats, sources, targets)
}

/// Replica-aware drain plan over the live cluster state (see
/// [`plan_scale_out`]): the leader moves emptying the drained nodes —
/// survivor targets ranked by projected heat, so the segments land on the
/// nodes that will *stay* cold — *plus* a re-home for every follower copy
/// the drained nodes host, planned atomically so a scale-in never
/// orphans redundancy (see [`wattdb_planner::plan_drain_replicated`]).
/// Re-home hosts are the active, healthy, non-draining survivors with
/// their decayed heat — the same pool and ranking background repair uses.
pub fn plan_drain_replicated(
    c: &crate::cluster::Cluster,
    now: SimTime,
    drain: &[NodeId],
    remaining: &[NodeId],
) -> wattdb_planner::DrainPlan {
    let stats = segment_stats(c, now, c.cfg.heat.horizon);
    let sites: Vec<wattdb_planner::ReplicaSite> = crate::replication::sites(c)
        .map(|(seg, leader, f)| wattdb_planner::ReplicaSite {
            seg,
            leader,
            followers: f.to_vec(),
        })
        .collect();
    let hosts: Vec<wattdb_planner::HostRow> = (c.nodes.iter())
        .filter(|n| n.life == Lifecycle::Active && !drain.contains(&n.id))
        .map(|n| host_row(c, n.id, now))
        .collect();
    wattdb_planner::plan_drain_replicated(
        &stats,
        drain,
        remaining,
        &sites,
        &hosts,
        c.cfg.replication,
    )
}

/// `node`'s row as a placement *host* for follower copies
/// ([`wattdb_planner::HostRow`]): its total decayed heat. Every caller
/// passes active nodes only.
fn host_row(c: &crate::cluster::Cluster, node: NodeId, now: SimTime) -> wattdb_planner::HostRow {
    wattdb_planner::HostRow {
        node,
        heat: c.heat.node_heat(&c.seg_dir, node, now).value(),
    }
}

/// Replica placement plan over the live cluster state: one
/// [`wattdb_planner::ReplicaSite`] per segment whose live follower count
/// is below `cfg.replication` (leader = the current owner in the segment
/// catalog, followers = the live ones), hosted on the active nodes. Host rows
/// carry total decayed heat, so followers spread over the least-loaded,
/// coldest nodes — under the failure-domain spread the planner enforces
/// (never the leader's node, distinct nodes per segment). The single
/// entry point shared by bootstrap and post-failover re-replication.
pub fn plan_replicas(c: &crate::cluster::Cluster, now: SimTime) -> wattdb_planner::ReplicaPlan {
    let factor = c.cfg.replication;
    if factor == 0 {
        return wattdb_planner::ReplicaPlan {
            placements: Vec::new(),
        };
    }
    let needs: Vec<wattdb_planner::ReplicaSite> = c
        .seg_dir
        .iter()
        .filter(|m| !c.is_failed(m.node))
        .filter_map(|m| {
            let followers: Vec<NodeId> = (c.replication.followers_of(m.id))
                .iter()
                .copied()
                .filter(|&f| !c.is_failed(f))
                .collect();
            (followers.len() < factor).then_some(wattdb_planner::ReplicaSite {
                seg: m.id,
                leader: m.node,
                followers,
            })
        })
        .collect();
    let hosts: Vec<wattdb_planner::HostRow> = (c.nodes.iter())
        // A draining node is about to suspend: placing a fresh copy there
        // would only schedule its own re-home.
        .filter(|n| n.life == Lifecycle::Active)
        .map(|n| host_row(c, n.id, now))
        .collect();
    wattdb_planner::plan_replicas(&needs, &hosts, factor)
}

/// Planner inputs for the whole catalog: footprint bytes scaled by
/// `io_scale`, heat decayed to `now` and projected `horizon` ahead
/// ([`HeatTable::projected`]). A zero horizon — or no window yet, when
/// every velocity is zero — gives historical heat bit for bit.
pub fn segment_stats(
    c: &crate::cluster::Cluster,
    now: SimTime,
    horizon: SimDuration,
) -> Vec<wattdb_planner::SegmentStat> {
    c.seg_dir
        .iter()
        .map(|m| wattdb_planner::SegmentStat {
            seg: m.id,
            table: m.table,
            range: m.key_range.unwrap_or_else(wattdb_common::KeyRange::all),
            node: m.node,
            bytes: c.copy_bytes(m.id).expect("segment is in the catalog"),
            heat: c.heat.projected(m.id, now, horizon),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wattdb_common::{DiskId, TableId};

    fn cfg() -> HeatConfig {
        HeatConfig {
            half_life: SimDuration::from_secs(10),
            ..Default::default()
        }
    }

    fn table() -> HeatTable {
        HeatTable::with_cost_model(cfg(), None)
    }

    #[test]
    fn accesses_accumulate_with_weights() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        t.record_read(SegmentId(1), now);
        t.record_access(SegmentId(1), now, AccessKind::Write, CostVector::ZERO, true);
        // One read, plus one write served by a remote fetch.
        let h = t.heat_of(SegmentId(1), now).value();
        assert!((h - 4.0).abs() < 1e-9, "{h}");
        let s = t.stats(SegmentId(1)).unwrap();
        assert_eq!((s.reads, s.writes, s.remote_fetches), (1, 1, 1));
    }

    #[test]
    fn default_weights_rank_writes_over_reads() {
        let mut t = HeatTable::with_cost_model(HeatConfig::default(), None);
        let now = SimTime::from_secs(1);
        t.record_access(SegmentId(1), now, AccessKind::Read, CostVector::ZERO, false);
        t.record_access(
            SegmentId(2),
            now,
            AccessKind::Write,
            CostVector::ZERO,
            false,
        );
        assert!(t.heat_of(SegmentId(2), now) > t.heat_of(SegmentId(1), now));
        assert!(HeatConfig::default().half_life > SimDuration::ZERO);
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

    /// Before the first window every velocity is zero, and a zero horizon
    /// multiplies any velocity away: either way the planner rows carry
    /// historical heat bit for bit, which is why projection needs no
    /// "no window yet" short-circuit.
    #[test]
    fn projection_is_historical_heat_before_any_window_and_at_zero_horizon() {
        let mut db = crate::api::WattDb::builder()
            .nodes(2)
            .warehouses(2)
            .density(0.02)
            .segment_pages(8)
            .seed(9)
            .initial_data_nodes(&[NodeId(0)])
            .build();
        db.start_oltp(8, SimDuration::from_millis(20));
        db.run_for(SimDuration::from_secs(2));
        // (historical heat, planner-row heat) of every segment, as bits.
        let rows = |db: &crate::api::WattDb, horizon| {
            let now = db.now();
            db.with_cluster(|c| {
                let historical: Vec<u64> = (c.seg_dir.iter())
                    .map(|m| c.heat.heat_of(m.id, now).value().to_bits())
                    .collect();
                let stats: Vec<u64> = (segment_stats(c, now, horizon).iter())
                    .map(|s| s.heat.to_bits())
                    .collect();
                (historical, stats)
            })
        };
        let horizon = db.with_cluster(|c| c.cfg.heat.horizon);
        let (historical, projected) = rows(&db, horizon);
        assert!(historical.iter().any(|&h| f64::from_bits(h) > 0.0));
        assert_eq!(projected, historical, "no window yet: history");
        // Two windows give the touched segments a velocity.
        for _ in 0..2 {
            db.with_runtime(|cl, sim| {
                let c = &mut *cl.borrow_mut();
                c.heat.observe(&c.seg_dir, sim.now());
            });
            db.run_for(SimDuration::from_secs(2));
        }
        let (historical, projected) = rows(&db, horizon);
        assert_ne!(projected, historical, "velocity now moves the projection");
        let (historical, at_zero) = rows(&db, SimDuration::ZERO);
        assert_eq!(at_zero, historical, "a zero horizon is history");
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
        let cfg = cfg();
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
                AccessKind::Read => READ_WEIGHT,
                AccessKind::Write => WRITE_WEIGHT,
            };
            flat.touch(now, base + if remote { REMOTE_WEIGHT } else { 0.0 });
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
        assert!((h - READ_WEIGHT).abs() < 1e-9, "{h}");
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
            let mut t = HeatTable::with_cost_model(HeatConfig { half_life, ..cfg() }, None);
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
        let mut t = HeatTable::with_cost_model(
            HeatConfig {
                half_life: SimDuration::ZERO,
                ..cfg()
            },
            None,
        );
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

/// Heat velocity and projection.
#[cfg(test)]
mod drift {
    mod tests {
        use crate::heat::*;
        use wattdb_common::{DiskId, Key, KeyRange, TableId};

        /// Decay disabled, so injected heats behave as plain counters and
        /// velocity arithmetic is exact.
        fn counter_table(velocity_half_life_secs: u64) -> HeatTable {
            HeatTable::with_cost_model(
                HeatConfig {
                    half_life: SimDuration::ZERO,
                    velocity_half_life: SimDuration::from_secs(velocity_half_life_secs),
                    ..Default::default()
                },
                None,
            )
        }

        /// Set `seg`'s heat outright as of `now`: models heat that moved
        /// away from a segment, which accesses (they only add) cannot.
        fn set_heat(t: &mut HeatTable, seg: SegmentId, now: SimTime, heat: f64) {
            let e = t.slots.get_or_insert_with(seg, || SegmentHeat::cold(now));
            e.heat = Heat(heat);
            e.last_touch = now;
        }

        fn dir_with(n: u64) -> (SegmentDirectory, Vec<SegmentId>) {
            let mut dir = SegmentDirectory::new();
            let segs = (0..n)
                .map(|i| {
                    dir.create(
                        TableId(1),
                        NodeId(0),
                        DiskId::new(NodeId(0), 1),
                        Some(KeyRange::new(Key(i * 1000), Key((i + 1) * 1000))),
                        16,
                    )
                })
                .collect();
            (dir, segs)
        }

        #[test]
        fn first_observation_is_a_baseline() {
            let (dir, segs) = dir_with(2);
            let mut heat = counter_table(0); // zero half-life: last delta wins
            heat.record_read(segs[0], SimTime::from_secs(1));
            heat.observe(&dir, SimTime::from_secs(1));
            assert_eq!(heat.velocity(segs[0]), 0.0);
            assert!(
                heat.stats(segs[1]).is_some(),
                "the window gave the untouched segment a zero slot"
            );
            // One second later with +2 heat: velocity reads exactly 2.0,
            // which it only can if the first window stored heat 1.0.
            for _ in 0..2 {
                heat.record_read(segs[0], SimTime::from_secs(2));
            }
            heat.observe(&dir, SimTime::from_secs(2));
            assert_eq!(heat.velocity(segs[0]), 2.0);
        }

        #[test]
        fn velocity_converges_on_a_linearly_advancing_hotspot() {
            // Segment 1's heat grows by exactly 2.0 per second; the EWMA
            // must converge to +2.0/s while the untouched neighbour stays
            // at zero.
            let (dir, segs) = dir_with(2);
            let mut heat = counter_table(2);
            for t in 0..40u64 {
                let now = SimTime::from_secs(t);
                for _ in 0..2 {
                    heat.record_read(segs[1], now);
                }
                heat.observe(&dir, now);
            }
            let v = heat.velocity(segs[1]);
            assert!((v - 2.0).abs() < 1e-3, "converged velocity: {v}");
            assert_eq!(heat.velocity(segs[0]), 0.0);
            // A segment whose heat stops changing settles at zero.
            let mut cooling = counter_table(2);
            for _ in 0..100 {
                cooling.record_read(segs[0], SimTime::ZERO);
            }
            cooling.observe(&dir, SimTime::ZERO);
            // No further touches, decay disabled: heat is flat, velocity ~0.
            for t in 1..20u64 {
                cooling.observe(&dir, SimTime::from_secs(t));
            }
            assert!(cooling.velocity(segs[0]).abs() < 1e-9);
        }

        #[test]
        fn projection_is_exact_for_constant_velocity() {
            // Once the velocity has converged on a constant-rate ramp, the
            // projected heat equals the heat the ramp will actually reach.
            let (dir, segs) = dir_with(1);
            let mut heat = counter_table(1);
            let rate = 3u64; // heat units per second
            let last = 60u64;
            for t in 0..=last {
                let now = SimTime::from_secs(t);
                if t > 0 {
                    for _ in 0..rate {
                        heat.record_read(segs[0], now);
                    }
                }
                heat.observe(&dir, now);
            }
            let now = SimTime::from_secs(last);
            let now_heat = heat.heat_of(segs[0], now).value();
            let projected = heat.projected(segs[0], now, SimDuration::from_secs(10));
            let truth = now_heat + (rate * 10) as f64;
            assert!(
                (projected - truth).abs() < 1e-6,
                "projected {projected} vs true future heat {truth}"
            );
            // Zero horizon returns the heat unchanged.
            assert_eq!(heat.projected(segs[0], now, SimDuration::ZERO), now_heat);
        }

        #[test]
        fn projection_clamps_at_zero() {
            let (dir, segs) = dir_with(1);
            let mut heat = counter_table(0); // zero half-life: last delta wins
            for _ in 0..10 {
                heat.record_read(segs[0], SimTime::ZERO);
            }
            heat.observe(&dir, SimTime::ZERO);
            // A cooling segment: one second later its heat has halved.
            let now = SimTime::from_secs(1);
            set_heat(&mut heat, segs[0], now, 5.0);
            heat.observe(&dir, now);
            assert!(heat.velocity(segs[0]) < 0.0, "cooling detected");
            let p = heat.projected(segs[0], now, SimDuration::from_secs(100));
            assert_eq!(p, 0.0, "projection clamps instead of going negative");
        }

        mod props {
            use super::*;
            use proptest::prelude::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(48))]

                /// Projected heat is never negative, and when total heat is
                /// conserved between windows (the hotspot moves rather than
                /// grows) the unclamped projection conserves total heat:
                /// clamping can only add, never lose.
                #[test]
                fn projection_non_negative_and_conserved(
                    shifts in proptest::collection::vec(0u64..5, 4..20),
                    horizon_secs in 1u64..30,
                ) {
                    let (dir, segs) = dir_with(5);
                    let mut heat = counter_table(8);
                    // Start with all heat on segment 0.
                    let total = 100u64;
                    for _ in 0..total {
                        heat.record_read(segs[0], SimTime::ZERO);
                    }
                    heat.observe(&dir, SimTime::ZERO);
                    // Each window "moves" `shift` units one segment to the
                    // right: a ledger of per-segment totals sets every
                    // segment's heat before the window observes it.
                    let mut ledger = [total, 0, 0, 0, 0];
                    for (t, &s) in shifts.iter().enumerate() {
                        let from = t % 4;
                        let moved = s.min(ledger[from]);
                        ledger[from] -= moved;
                        ledger[from + 1] += moved;
                        let now = SimTime::from_secs(t as u64 + 1);
                        for (i, &amount) in ledger.iter().enumerate() {
                            set_heat(&mut heat, segs[i], now, amount as f64);
                        }
                        heat.observe(&dir, now);
                    }
                    let now = SimTime::from_secs(shifts.len() as u64);
                    let horizon = SimDuration::from_secs(horizon_secs);
                    let mut sum_now = 0.0;
                    let mut sum_projected = 0.0;
                    let mut sum_unclamped = 0.0;
                    for &s in &segs {
                        let h = heat.heat_of(s, now).value();
                        let p = heat.projected(s, now, horizon);
                        prop_assert!(p >= 0.0, "projected heat negative: {p}");
                        sum_now += h;
                        sum_projected += p;
                        sum_unclamped += h + heat.velocity(s) * horizon.as_secs_f64();
                    }
                    // Velocities are a shared-weight EWMA of per-window
                    // deltas that sum to zero, so the unclamped totals
                    // agree exactly.
                    prop_assert!(
                        (sum_unclamped - sum_now).abs() < 1e-6,
                        "unclamped projection conserves heat: {sum_unclamped} vs {sum_now}"
                    );
                    // Clamping only ever adds heat back.
                    prop_assert!(sum_projected >= sum_unclamped - 1e-9);
                }

                /// Velocity estimates are independent of *which* segment id
                /// carries the load: relabelling segments relabels
                /// velocities.
                #[test]
                fn velocity_tracks_the_segment_not_the_label(
                    rate in 1u64..6,
                    windows in 3u64..12,
                ) {
                    let (dir, segs) = dir_with(3);
                    let mut heat = counter_table(5);
                    for t in 0..windows {
                        let now = SimTime::from_secs(t);
                        for _ in 0..rate {
                            heat.record_read(segs[2], now);
                        }
                        heat.observe(&dir, now);
                    }
                    prop_assert!(heat.velocity(segs[2]) > 0.0);
                    prop_assert_eq!(heat.velocity(segs[0]), 0.0);
                    prop_assert_eq!(heat.velocity(segs[1]), 0.0);
                }
            }
        }
    }
}
