//! The migration engine: physical, logical, and physiological
//! repartitioning (§4 of the paper).
//!
//! * **Physical** (§4.1): whole segments are copied to another node's disk
//!   under a short segment latch. Logical ownership does not change, so
//!   subsequent accesses from the owner pay a remote page fetch — the
//!   paper's reason physical partitioning "is not usable for a dynamic
//!   cluster".
//! * **Logical** (§4.2): records in a key range are deleted at the source
//!   and inserted at the target inside system transactions, batch by
//!   batch; ownership (and the router) moves with each batch. Scan I/O and
//!   record locking make this the slowest but fully general scheme.
//! * **Physiological** (§4.3): whole segments move *with their primary-key
//!   indexes*; only the two partitions' top indexes and the master's dual
//!   pointers are updated. The §4.3 protocol is followed step by step:
//!   master updated first, read lock on the source segment (waits out
//!   updaters, blocks new writers, never blocks readers under MVCC), bulk
//!   copy at raw device speed, ownership switch, redirect window, cleanup.
//!
//! # Plan, then run
//!
//! Nothing here decides. A [`ControlPlan`] — produced by
//! [`crate::policy::plan`] from a decision, or filled in by a script
//! through [`crate::api::WattDb::run`] — says which nodes to power, what
//! to move, what to drain, which follower copies to re-home and which
//! helpers (Fig. 8) to wire or release; [`run`] carries it out. `run` is
//! the only code outside `cluster.rs` that powers a node on, marks a
//! drain, installs the [`MoveController`], wires a helper or opens the
//! `failover` / `helpers` / `rebalance` / `power-up` / `power-down`
//! spans, and it returns what it started ([`Applied`]) instead of leaving
//! callers to read it back. The step machines below then move the data;
//! helper state lives in one [`HelperDeployment`] on the cluster.
//! [`settle`] is `run`'s counterpart: once a window it closes the
//! episodes whose work has landed — the failover span when the factor is
//! restored, a finished drain by suspending its nodes.
//!
//! Bulk I/O volumes are multiplied by `cfg.io_scale` so the scaled-down
//! dataset produces the paper's 100 GB-class transfer times (see
//! [`crate::api::WattDbBuilder::io_scale`]).

use std::collections::VecDeque;

use wattdb_common::{
    ByteSize, Key, KeyRange, NodeId, SegmentId, SimDuration, SimTime, TableId, TxnId,
};
use wattdb_planner::Planner;
use wattdb_sim::{Completion, Sim};
use wattdb_txn::{LockAcquire, LockMode, LockTarget, TxnKind};
use wattdb_wal::LogPayload;

use crate::cluster::{Cluster, ClusterRc, Lifecycle, Scheme};
use crate::executor::{resume_grants, Waiter};

/// One planned segment move.
#[derive(Debug, Clone, Copy)]
pub struct SegmentMove {
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

impl From<&wattdb_planner::PlannedMove> for SegmentMove {
    fn from(m: &wattdb_planner::PlannedMove) -> Self {
        SegmentMove {
            seg: m.seg,
            table: m.table,
            range: m.range,
            from: m.from,
            to: m.to,
        }
    }
}

/// One planned logical range move (per table, per source).
#[derive(Debug, Clone, Copy)]
pub struct RangeMove {
    /// Table.
    pub table: TableId,
    /// Key range whose records move.
    pub range: KeyRange,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
}

/// Per-source migration chain state.
pub struct MoverChain {
    /// Chain id (used as the lock-waiter token).
    pub id: u64,
    /// Pending segment moves (physical/physiological).
    pub segments: VecDeque<SegmentMove>,
    /// Pending range moves (logical).
    pub ranges: VecDeque<RangeMove>,
    /// Cursor within the current logical range.
    pub cursor: Option<Key>,
    /// The system transaction currently held, if any.
    pub txn: Option<TxnId>,
    /// The segment currently locked/copied, if any.
    pub current: Option<SegmentMove>,
    /// Done flag.
    pub done: bool,
}

/// Cluster-wide migration controller.
pub struct MoveController {
    /// Scheme driving this rebalance.
    pub scheme: Scheme,
    /// Planner that produced the plan being executed.
    pub planner: Planner,
    /// Chains by id.
    pub chains: Vec<MoverChain>,
    /// Start time.
    pub started: SimTime,
    /// Segments moved.
    pub segments_moved: u64,
    /// Records moved (logical).
    pub records_moved: u64,
    /// Bytes shipped (after io_scale).
    pub bytes_moved: u64,
    /// Access heat the plan intended to relocate (decayed, at plan time).
    pub heat_planned: f64,
    /// Access heat actually relocated so far (decayed, at move time).
    pub heat_moved: f64,
    /// Tracing span covering this rebalance, closed by `maybe_finish`.
    pub span: Option<wattdb_telemetry::SpanId>,
    /// Child span covering the targets' power-on + boot, closed when the
    /// first chain starts moving.
    pub power_span: Option<wattdb_telemetry::SpanId>,
}

impl MoveController {
    /// Drop every *pending* move that sources from or targets `node` — the
    /// failover path's way of keeping a dead node out of the remaining
    /// plan. A move already in flight is left alone here;
    /// `segment_copy_done`'s failed-node guard voids it when the copy
    /// completes against a corpse.
    pub fn drop_node(&mut self, node: NodeId) {
        for ch in &mut self.chains {
            ch.segments.retain(|m| m.from != node && m.to != node);
            ch.ranges.retain(|m| m.from != node && m.to != node);
        }
    }
}

/// Plan which segments leave each source: the upper `fraction` of each
/// (table, source) partition's key-ordered segments, paired with targets
/// round-robin.
fn plan_segment_moves(
    c: &Cluster,
    fraction: f64,
    sources: &[NodeId],
    targets: &[NodeId],
) -> Vec<SegmentMove> {
    let mut moves = Vec::new();
    for (i, &src) in sources.iter().enumerate() {
        let to = targets[i % targets.len()];
        for part in c.partitions.values().filter(|p| p.node == src) {
            let segs = part.top.segments();
            if segs.is_empty() {
                continue;
            }
            let keep = ((segs.len() as f64) * (1.0 - fraction)).round() as usize;
            for (seg, range) in segs.into_iter().skip(keep) {
                moves.push(SegmentMove {
                    seg,
                    table: part.table,
                    range,
                    from: src,
                    to,
                });
            }
        }
    }
    moves
}

/// Plan logical range moves: the upper `fraction` *of the records* of each
/// (table, source) partition. The cut point is found by walking the
/// partition's segments in key order and accumulating their record counts
/// — cutting the raw key-space envelope instead would be meaningless,
/// since edge partitions extend to the key-space limits.
fn plan_range_moves(
    c: &Cluster,
    fraction: f64,
    sources: &[NodeId],
    targets: &[NodeId],
) -> Vec<RangeMove> {
    let mut moves = Vec::new();
    for (i, &src) in sources.iter().enumerate() {
        let to = targets[i % targets.len()];
        for part in c.partitions.values().filter(|p| p.node == src) {
            let segs = part.top.segments();
            if segs.is_empty() {
                continue;
            }
            let total: u64 = segs
                .iter()
                .map(|(s, _)| c.seg_dir.get(*s).map(|m| m.records).unwrap_or(0))
                .sum();
            if total == 0 {
                continue;
            }
            let keep = ((total as f64) * (1.0 - fraction)) as u64;
            let mut cum = 0u64;
            let mut cut = None;
            for (s, range) in &segs {
                if cum >= keep {
                    cut = Some(range.start);
                    break;
                }
                cum += c.seg_dir.get(*s).map(|m| m.records).unwrap_or(0);
            }
            let Some(cut) = cut else {
                continue;
            };
            let end = segs.last().expect("non-empty").1.end;
            let range = KeyRange::new(cut, end);
            if !range.is_empty() {
                moves.push(RangeMove {
                    table: part.table,
                    range,
                    from: src,
                    to,
                });
            }
        }
    }
    moves
}

/// How a rebalance's data moves.
#[derive(Debug, Clone)]
pub enum Moves {
    /// Whole segments (physical / physiological partitioning).
    Segments(Vec<SegmentMove>),
    /// Key ranges, record by record (logical partitioning).
    Ranges(Vec<RangeMove>),
}

impl Default for Moves {
    fn default() -> Self {
        Moves::Segments(Vec::new())
    }
}

/// Helpers to wire to their sources (Fig. 8): each source ships its log to
/// its helper and extends its buffer pool into the helper's DRAM.
#[derive(Debug, Clone, Default)]
pub struct HelperAttach {
    /// Every node joining the deployment, paired or not: all of them power
    /// on and are tracked until detached.
    pub helpers: Vec<NodeId>,
    /// `(source, helper)` wirings.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Scripted helpers belong to the rebalance they accompany and detach
    /// when it completes; the elasticity policy's own (`false`) ride out
    /// unrelated migrations and leave only on skew subsidence.
    pub scripted: bool,
    /// Predicted net-traffic relief (zero for a manual list).
    pub relief: f64,
    /// The planner's candidate ranking, kept on the `helpers` span so the
    /// exported timeline shows why each helper won over the alternatives.
    pub ranking: Vec<String>,
}

impl HelperAttach {
    /// A scripted Fig. 8 list: `sources[i]` pairs with
    /// `helpers[i % helpers.len()]`.
    pub fn manual(sources: &[NodeId], helpers: &[NodeId]) -> Self {
        HelperAttach {
            helpers: helpers.to_vec(),
            pairs: (sources.iter().copied())
                .zip(helpers.iter().copied().cycle())
                .collect(),
            scripted: true,
            ..Default::default()
        }
    }

    /// A planner-produced [`wattdb_planner::HelperPlan`]: one helper per
    /// assignment, with the plan's predicted relief and candidate ranking.
    pub fn planned(plan: &wattdb_planner::HelperPlan, scripted: bool) -> Self {
        HelperAttach {
            helpers: plan.helpers(),
            pairs: (plan.assignments.iter())
                .map(|a| (a.source, a.helper))
                .collect(),
            scripted,
            relief: plan.predicted_relief,
            ranking: plan.ranking.clone(),
        }
    }
}

/// Everything one control action does to the cluster, as plain data:
/// [`crate::policy::plan`] derives it from a decision, a script fills it
/// in by hand, and [`run`] is the only code that carries it out. The
/// default plan does nothing.
#[derive(Debug, Clone, Default)]
pub struct ControlPlan {
    /// The planner that produced the moves.
    pub planner: Planner,
    /// Fail over this dead node before anything else
    /// ([`crate::failover::handle_failure`]).
    pub promote: Option<NodeId>,
    /// Helpers to release.
    pub detach: Vec<NodeId>,
    /// Helpers to wire.
    pub attach: Option<HelperAttach>,
    /// Nodes to mark draining; their suspension is accounted under a
    /// `power-down` span [`settle`] closes.
    pub drain: Vec<NodeId>,
    /// One mover chain per source, in this order; a chain carries the
    /// moves leaving its source. Empty: no rebalance starts.
    pub sources: Vec<NodeId>,
    /// The moves.
    pub moves: Moves,
    /// The rebalance's targets, powered on before the moves start (a
    /// no-op on a node already up).
    pub power_up: Vec<NodeId>,
    /// Follower copies leaving the drained nodes, re-homed on survivors.
    pub rehomes: Vec<wattdb_planner::FollowerRehome>,
}

impl ControlPlan {
    /// Execute a planner [`wattdb_planner::Plan`]'s segment moves onto
    /// `targets`.
    pub fn planned(plan: &wattdb_planner::Plan, targets: &[NodeId]) -> Self {
        let moves: Vec<SegmentMove> = plan.moves.iter().map(SegmentMove::from).collect();
        let mut sources: Vec<NodeId> = moves.iter().map(|m| m.from).collect();
        sources.sort_unstable();
        sources.dedup();
        ControlPlan {
            planner: plan.planner,
            sources,
            moves: Moves::Segments(moves),
            power_up: targets.to_vec(),
            ..Default::default()
        }
    }

    /// The fraction heuristic: the upper `fraction` of each source's data
    /// — segments, or records under logical partitioning — goes to
    /// `targets` round-robin.
    pub fn fraction(c: &Cluster, fraction: f64, sources: &[NodeId], targets: &[NodeId]) -> Self {
        let moves = match c.cfg.scheme {
            Scheme::Logical => Moves::Ranges(plan_range_moves(c, fraction, sources, targets)),
            _ => Moves::Segments(plan_segment_moves(c, fraction, sources, targets)),
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

/// What a [`run`] started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Applied {
    /// The planner that produced the started work — `Planner::Fraction`
    /// when the heat-aware path fell back (logical scheme, no heat
    /// recorded, or an empty plan).
    pub planner: Planner,
    /// The span the work is accounted under: the `helpers` span for an
    /// attach or detach, else the `rebalance` span for moves (a drain
    /// additionally opens `power-down`, kept on the cluster until the
    /// nodes suspend), else the `failover` span for a promotion.
    pub span: Option<wattdb_telemetry::SpanId>,
    /// What the plan predicted: net-traffic relief for a helper
    /// attachment, heat to relocate for moves.
    pub predicted: Option<f64>,
}

/// A node list as a span attribute.
fn names(nodes: &[NodeId]) -> wattdb_telemetry::AttrValue {
    (nodes.iter().map(|n| n.to_string()))
        .collect::<Vec<_>>()
        .into()
}

/// Carry out a [`ControlPlan`]. The only code outside `cluster.rs` that
/// powers a node on, marks a drain, installs a mover, wires a helper, or
/// opens the `failover` / `helpers` / `rebalance` / `power-up` /
/// `power-down` spans — in that order, which is the order span ids are
/// allocated in — and where the replica-map invariant is checked after a
/// control action. Reports the first span the plan touched.
///
/// A plan with no sources, or one arriving while another rebalance is in
/// flight, starts no rebalance and powers no target: a chainless
/// controller would leave the cluster "rebalancing" forever, and
/// overwriting a live one would let the old plan's scheduled steps index
/// into the new one's chains.
pub fn run(cl: &ClusterRc, sim: &mut Sim, plan: ControlPlan) -> Applied {
    let now = sim.now();
    if let Some(failed) = plan.promote {
        // The failover span opens on first detection; promotion and
        // re-replication events attach to it until [`settle`] finds the
        // replication factor restored.
        {
            let mut c = cl.borrow_mut();
            let c = &mut *c;
            if c.failover_span.is_none() {
                let attrs = vec![
                    ("failed".into(), failed.to_string().into()),
                    ("rereplicated_base".into(), c.rereplication_bytes.into()),
                ];
                c.failover_span = Some(c.telemetry.start_span("failover", now, attrs));
            }
        }
        crate::failover::handle_failure(cl, sim, failed);
    }
    let mut report: Option<(Option<wattdb_telemetry::SpanId>, Option<f64>)> = None;
    let chains = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let launch = !plan.sources.is_empty() && c.mover.is_none();
        let attach = plan.attach.as_ref().filter(|a| !a.helpers.is_empty());
        let targets: &[NodeId] = if launch { &plan.power_up } else { &[] };
        // Targets coming up from standby get a "power-up" child span; the
        // ones already active boot nothing.
        let booted: Vec<NodeId> = (targets.iter().copied())
            .filter(|&t| c.life(t) == Lifecycle::Standby)
            .collect();
        for &n in attach.iter().flat_map(|a| &a.helpers).chain(targets) {
            c.power_on(n);
        }

        if !plan.detach.is_empty() {
            // A full detach closes the span: report it first.
            report = Some((c.helpers.span, None));
            detach_helper_set(c, &plan.detach, now);
        }

        if let Some(a) = attach {
            // Relief accounting: the first attach of a response snapshots
            // the shipped-bytes and remote-hit counters and opens its span
            // (closed when the last helper detaches); later attaches while
            // helpers remain wired fold their prediction into the same
            // response.
            match &mut c.helpers.baseline {
                None => {
                    c.helpers.baseline = Some(HelperBaseline {
                        at: now,
                        predicted: a.relief,
                        shipped_bytes: c.nodes.iter().map(|n| n.shipper.shipped_bytes()).sum(),
                        remote_hits: c.nodes.iter().map(|n| n.buffer.stats().remote_hits).sum(),
                    });
                    c.helpers.span = Some(c.telemetry.start_span(
                        "helpers",
                        now,
                        vec![
                            ("predicted_relief_mbps".into(), a.relief.into()),
                            ("scripted".into(), a.scripted.into()),
                        ],
                    ));
                }
                Some(b) => {
                    b.predicted += a.relief;
                    if let Some(span) = c.helpers.span {
                        let total = b.predicted.into();
                        c.telemetry
                            .spans
                            .set_attr(span, "predicted_relief_mbps", total);
                    }
                }
            }
            for &h in &a.helpers {
                match c.helpers.members.iter_mut().find(|m| m.node == h) {
                    Some(m) => m.scripted |= a.scripted,
                    None => c.helpers.members.push(HelperMember {
                        node: h,
                        scripted: a.scripted,
                    }),
                }
            }
            let remote_pages = c.cfg.buffer_pages;
            for &(src, h) in &a.pairs {
                if let Some(span) = c.helpers.span {
                    c.telemetry.spans.add_event(
                        span,
                        now,
                        "attach",
                        vec![
                            ("source".into(), src.to_string().into()),
                            ("helper".into(), h.to_string().into()),
                        ],
                    );
                }
                // A source whose helper is *reassigned* first detaches its
                // old shipping cursor — leaving it would accumulate an
                // unbounded unshipped backlog for a follower nobody ever
                // drains again.
                let node = &mut c.nodes[src.raw() as usize];
                if let Some(old) = node.helper.filter(|&old| old != h) {
                    node.shipper.detach(old);
                }
                node.helper = Some(h);
                node.buffer.set_remote_capacity(remote_pages);
                node.shipper.attach(h, &node.log);
            }
            if let Some(span) = c.helpers.span.filter(|_| !a.ranking.is_empty()) {
                let ranking = a.ranking.clone().into();
                c.telemetry
                    .spans
                    .set_attr(span, "candidate_ranking", ranking);
            }
        }
        if let Some(a) = &plan.attach {
            report = Some((c.helpers.span, Some(a.relief)));
        }

        for &n in &plan.drain {
            c.begin_drain(n);
        }

        if launch {
            let (segments, ranges): (&[SegmentMove], &[RangeMove]) = match &plan.moves {
                Moves::Segments(m) => (m, &[]),
                Moves::Ranges(m) => (&[], m),
            };
            assert!(
                segments.is_empty() || c.cfg.scheme != Scheme::Logical,
                "planned segment moves need a segment scheme (physical/physiological)"
            );
            // What the plan intends to relocate, valued at plan time.
            let heat_planned: f64 = (segments.iter())
                .map(|m| c.heat.heat_of(m.seg, now).value())
                .sum();
            let from: std::collections::BTreeSet<NodeId> = (segments.iter().map(|m| m.from))
                .chain(ranges.iter().map(|m| m.from))
                .collect();
            let rebalance = c.telemetry.start_span(
                "rebalance",
                now,
                vec![
                    ("scheme".into(), format!("{:?}", c.cfg.scheme).into()),
                    ("planner".into(), format!("{:?}", plan.planner).into()),
                    ("heat_planned".into(), heat_planned.into()),
                    ("chains".into(), plan.sources.len().into()),
                    ("sources".into(), names(&Vec::from_iter(from))),
                    ("targets".into(), names(targets)),
                ],
            );
            let power_span = (!booted.is_empty()).then(|| {
                let ps = (c.telemetry.spans).start_child("power-up", now, Some(rebalance));
                c.telemetry.spans.set_attr(ps, "nodes", names(&booted));
                ps
            });
            c.mover = Some(MoveController {
                scheme: c.cfg.scheme,
                planner: plan.planner,
                chains: (plan.sources.iter().enumerate())
                    .map(|(i, &src)| MoverChain {
                        id: i as u64,
                        segments: (segments.iter().filter(|m| m.from == src).copied()).collect(),
                        ranges: (ranges.iter().filter(|m| m.from == src).copied()).collect(),
                        cursor: None,
                        txn: None,
                        current: None,
                        done: false,
                    })
                    .collect(),
                started: now,
                segments_moved: 0,
                records_moved: 0,
                bytes_moved: 0,
                heat_planned,
                heat_moved: 0.0,
                span: Some(rebalance),
                power_span,
            });
            report.get_or_insert((Some(rebalance), Some(heat_planned)));
            plan.sources.len() as u64
        } else {
            0
        }
    };
    // The moves start once the freshly powered targets have booted.
    for id in 0..chains {
        let handle = cl.clone();
        sim.after(SimDuration::from_secs(5), move |sim| {
            next_step(&handle, sim, id)
        });
    }
    if !plan.rehomes.is_empty() {
        crate::failover::schedule_follower_rehomes(cl, sim, &plan.rehomes);
    }
    let mut c = cl.borrow_mut();
    let c = &mut *c;
    if !plan.drain.is_empty() {
        // The drain's eventual suspension is its own power transition,
        // closed when the emptied nodes reach standby.
        let attrs = vec![("drain".into(), names(&plan.drain))];
        c.powerdown_span = Some(c.telemetry.start_span("power-down", now, attrs));
    }
    c.assert_replica_invariants();
    let (span, predicted) = report.unwrap_or((plan.promote.and(c.failover_span), None));
    Applied {
        planner: plan.planner,
        span,
        predicted,
    }
}

/// A finished scale-in drain, as [`settle`] closed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettledDrain {
    /// The nodes the drain was emptying.
    pub drained: Vec<NodeId>,
    /// The nodes returned to standby.
    pub suspended: Vec<NodeId>,
    /// The `power-down` span, now closed.
    pub span: wattdb_telemetry::SpanId,
}

/// Close the episodes [`run`] opened whose work has landed since — once
/// per monitoring window, after the autopilot's failover and repair steps.
///
/// The `failover` span closes once no failed node is referenced by the
/// replica map and the replication factor is restored (immediately, when
/// replication is off). A scale-in whose moves have all landed suspends
/// its emptied nodes (§3.4's "shutdown the nodes currently not needed")
/// and closes the `power-down` span — even when the drained node died
/// first. Whatever could not suspend (leftover segments, follower
/// backfills still on the wire) rejoins the plannable pool rather than
/// staying excluded as "draining" forever; the next window re-decides.
/// The finished drain is returned for the caller to log.
pub fn settle(cl: &ClusterRc, sim: &Sim) -> Option<SettledDrain> {
    let now = sim.now();
    let mut c = cl.borrow_mut();
    let c = &mut *c;
    // (The map-wide under-replication scan runs only while one is open.)
    let factor = c.cfg.replication.factor;
    let recovered = c.failover_span.is_some()
        && !c.failed_nodes().any(|n| c.replicas.references(n))
        && (!c.cfg.replication.enabled()
            || (c.rereplication_inflight == 0 && c.replicas.under_replicated(factor).is_empty()));
    if let Some(span) = c.failover_span.take_if(|_| recovered) {
        let spans = &mut c.telemetry.spans;
        let base = (spans.get(span))
            .and_then(|s| s.attr_f64("rereplicated_base"))
            .unwrap_or(0.0) as u64;
        let shipped = c.rereplication_bytes.saturating_sub(base);
        spans.set_attr(span, "rereplicated_bytes", shipped.into());
        spans.end(span, now);
    }
    if c.mover.is_some() {
        return None;
    }
    let span = c.powerdown_span.take()?;
    let drained = c.draining_nodes();
    let suspended: Vec<NodeId> = (c.nodes.iter().map(|n| n.id))
        .filter(|&n| can_suspend(c, n))
        .collect();
    for &n in &suspended {
        c.power_off(n);
    }
    for &n in &drained {
        c.end_drain(n);
    }
    c.assert_replica_invariants();
    c.telemetry
        .spans
        .set_attr(span, "suspended", names(&suspended));
    c.telemetry.spans.end(span, now);
    Some(SettledDrain {
        drained,
        suspended,
        span,
    })
}

/// Can `node` power down to standby right now? Only a powered node that
/// holds no segments, runs no helper duty and hosts no follower copies (a
/// live follower host is still serving redundancy and reads; suspending
/// it would silently drop the replication factor) — never the master.
fn can_suspend(c: &Cluster, node: NodeId) -> bool {
    node != NodeId::MASTER
        && c.life(node).is_up()
        && c.seg_dir.on_node(node).next().is_none()
        && !c.helpers.contains(node)
        && c.replicas.followed_by(node).is_empty()
}

/// Resume a mover chain parked on a lock.
pub fn resume_mover(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let scheme = cl.borrow().mover.as_ref().map(|m| m.scheme);
    match scheme {
        Some(Scheme::Logical) => logical_acquire_locks(cl, sim, chain),
        Some(_) => segment_lock_granted(cl, sim, chain),
        None => {}
    }
}

fn next_step(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let scheme = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        match &mut c.mover {
            Some(m) => {
                // First chain to start moving marks boot completion for
                // the freshly powered targets.
                if let Some(ps) = m.power_span.take() {
                    c.telemetry.spans.end(ps, sim.now());
                }
                m.scheme
            }
            None => return,
        }
    };
    match scheme {
        Scheme::Physical | Scheme::Physiological => next_segment_move(cl, sim, chain),
        Scheme::Logical => next_logical_batch(cl, sim, chain),
    }
}

// ---------------------------------------------------------------- segments

fn next_segment_move(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let mv = {
        let mut c = cl.borrow_mut();
        let scheme = c.cfg.scheme;
        let m = c.mover.as_mut().expect("mover active");
        let Some(mv) = m.chains[chain as usize].segments.pop_front() else {
            m.chains[chain as usize].done = true;
            maybe_finish(&mut c, sim.now());
            return;
        };
        m.chains[chain as usize].current = Some(mv);
        // §4.3 step 1: the master is updated first, keeping both pointers —
        // only under physiological partitioning (physical never changes
        // logical ownership).
        if scheme == Scheme::Physiological {
            let c = &mut *c;
            let target_pid = c.partition_on(mv.table, mv.to);
            c.router
                .begin_move(mv.table, mv.range, target_pid, mv.to)
                .expect("routable move");
        }
        mv
    };
    // §4.3 step 2: read-lock the segment; pre-existing updaters must commit
    // first. Readers are unaffected (MVCC) or share the lock (MGL: IS).
    let granted = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let txn = c.txn.begin(TxnKind::System);
        let m = c.mover.as_mut().expect("mover active");
        m.chains[chain as usize].txn = Some(txn);
        match c
            .txn
            .locks
            .acquire(txn, LockTarget::Segment(mv.seg), LockMode::S)
        {
            LockAcquire::Granted => true,
            LockAcquire::Waiting => {
                c.lock_waiters.insert(txn, Waiter::Mover(chain));
                false
            }
            LockAcquire::Deadlock => {
                // Movers only hold one lock; a deadlock here means a user
                // upgrade cycle — retry shortly.
                let grants = c
                    .txn
                    .abort(txn, &mut c.indexes, &mut c.store)
                    .unwrap_or_default();
                let m = c.mover.as_mut().expect("mover active");
                m.chains[chain as usize].segments.push_front(mv);
                m.chains[chain as usize].txn = None;
                drop(grants);
                let handle = cl.clone();
                sim.after(SimDuration::from_millis(20), move |sim| {
                    next_segment_move(&handle, sim, chain)
                });
                return;
            }
        }
    };
    if granted {
        segment_lock_granted(cl, sim, chain);
    }
}

fn segment_lock_granted(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    // §4.3 step 3: flush dirty pages (checkpoint semantics), then copy the
    // segment at raw device speed: source disk read and wire transfer
    // pipelined (join), destination write overlapped with receive.
    let (mv, bytes, src_disk_idx) = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let m = c.mover.as_ref().expect("mover active");
        let mv = m.chains[chain as usize].current.expect("current move");
        let bytes = c.copy_bytes(mv.seg).expect("segment meta");
        let src_disk_idx = c.seg_dir.get(mv.seg).expect("segment meta").disk.index;
        c.mover.as_mut().expect("mover active").bytes_moved += bytes;
        // Log the move bracket on the source's WAL.
        c.nodes[mv.from.raw() as usize].log.append(
            TxnId::NONE,
            LogPayload::SegmentMoveStart {
                segment: mv.seg,
                to_node: mv.to.raw(),
            },
        );
        // Dirty pages of the segment flush before the copy.
        let dirty: Vec<_> = c.nodes[mv.from.raw() as usize]
            .buffer
            .dirty_pages()
            .into_iter()
            .filter(|p| p.segment == mv.seg)
            .collect();
        for p in &dirty {
            c.nodes[mv.from.raw() as usize].buffer.mark_clean(*p);
        }
        (mv, bytes, src_disk_idx)
    };
    // Join: disk read ∥ network ship; the later arm runs the completion
    // inside its own event (`Sim::join` would schedule it as a new one).
    use std::cell::Cell;
    use std::rc::Rc;
    let remaining = Rc::new(Cell::new(2u8));
    let make_arm = || {
        let remaining = remaining.clone();
        let handle = cl.clone();
        Completion::call(move |sim| {
            remaining.set(remaining.get() - 1);
            if remaining.get() == 0 {
                segment_copy_done(&handle, sim, chain);
            }
        })
    };
    let mut c = cl.borrow_mut();
    c.nodes[mv.from.raw() as usize].disks[src_disk_idx as usize].bulk_transfer(
        sim,
        ByteSize::bytes(bytes),
        make_arm(),
    );
    c.net
        .send(sim, mv.from, mv.to, ByteSize::bytes(bytes), make_arm());
}

fn segment_copy_done(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let mut follower_evicted = false;
    let grants = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let scheme = c.cfg.scheme;
        let now = sim.now();
        let m = c.mover.as_mut().expect("mover active");
        let mv = m.chains[chain as usize].current.take().expect("current");
        let txn = m.chains[chain as usize].txn.take().expect("mover txn");
        let mover_span = m.span;
        if c.is_failed(mv.from) || c.is_failed(mv.to) {
            // An endpoint died mid-copy: the copy's result is void. The
            // master's dual pointer rolls back (physiological only — the
            // other schemes never touched routing) and placement stays
            // put; failover re-covers ownership separately. The lock
            // releases so parked writers resume against the survivors.
            if scheme == Scheme::Physiological {
                c.router.abort_move(mv.table, mv.range).ok();
            }
            let (_, grants) = c.txn.commit(txn, &mut c.store).expect("system commit");
            grants
        } else {
            let m = c.mover.as_mut().expect("mover active");
            m.segments_moved += 1;
            m.heat_moved += c.heat.heat_of(mv.seg, now).value();
            match scheme {
                Scheme::Physiological => {
                    // §4.3 step 4: ownership switch — detach from the source's
                    // top index, attach to the target's; the per-segment PK
                    // index travels untouched. Then the master drops the old
                    // pointer.
                    let src_pid = c
                        .partitions
                        .values()
                        .find(|p| p.table == mv.table && p.node == mv.from)
                        .map(|p| p.id)
                        .expect("source partition");
                    c.hand_over(mv.seg, mv.table, mv.range, src_pid, mv.to)
                        .expect("ownership switch");
                    // Old buffered pages are dropped at the source.
                    c.nodes[mv.from.raw() as usize].buffer.evict_segment(mv.seg);
                    // Leadership follows ownership: the replica map tracks the
                    // move, the new leader's log becomes the segment's
                    // staleness reference, and shipping cursors re-wire to the
                    // new leader. A destination that held one of the segment's
                    // follower copies consumes it by becoming leader — the
                    // copy leaves the follower set *explicitly* and a backfill
                    // restores the factor instead of silently halving it.
                    if c.cfg.replication.enabled() && c.replicas.get(mv.seg).is_some() {
                        if c.replicas.followers_of(mv.seg).contains(&mv.to) {
                            c.replicas.remove_follower(mv.seg, mv.to);
                            follower_evicted = true;
                            if let Some(span) = mover_span {
                                c.telemetry.spans.add_event(
                                    span,
                                    now,
                                    "follower-evicted",
                                    vec![
                                        (
                                            "segment".into(),
                                            wattdb_telemetry::AttrValue::U64(mv.seg.raw()),
                                        ),
                                        ("node".into(), mv.to.to_string().into()),
                                    ],
                                );
                            }
                        }
                        c.replicas.set_leader(mv.seg, mv.to);
                        let lsn = c.nodes[mv.to.raw() as usize].log.last_lsn();
                        c.seg_last_write.insert(mv.seg, lsn);
                        c.sync_replica_cursors();
                    }
                }
                Scheme::Physical => {
                    // §4.1: only the physical placement changes; ownership and
                    // routing stay at the source. Future accesses pay the wire.
                    let disk = c.data_disk(mv.to, mv.seg);
                    c.seg_dir.relocate(mv.seg, mv.to, disk).expect("relocate");
                    c.nodes[mv.from.raw() as usize].buffer.evict_segment(mv.seg);
                }
                Scheme::Logical => unreachable!("segment moves not used logically"),
            }
            c.nodes[mv.from.raw() as usize]
                .log
                .append(TxnId::NONE, LogPayload::SegmentMoveEnd { segment: mv.seg });
            // Release the segment lock: queued writers resume, redirected to
            // the new owner by routing on their next op.
            let (_, grants) = c.txn.commit(txn, &mut c.store).expect("system commit");
            grants
        }
    };
    resume_grants(cl, sim, grants);
    // The consumed copy left the segment under factor: backfill through
    // the shared re-replication machinery, unless copies are already on
    // the wire (then the autopilot's background-repair pass — the single
    // reconciliation point — picks up whatever remains short).
    if follower_evicted && cl.borrow().rereplication_inflight == 0 {
        crate::failover::schedule_rereplication(cl, sim);
    }
    next_segment_move(cl, sim, chain);
}

// ----------------------------------------------------------------- logical

/// Records per logical-partitioning move batch: one mover transaction
/// moves up to this many keys before the next batch is scheduled.
const MIGRATION_BATCH: usize = 64;

fn next_logical_batch(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    // Pick the batch: up to `MIGRATION_BATCH` keys starting at the cursor.
    let planned = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        loop {
            let (rm, cursor) = {
                let m = c.mover.as_mut().expect("mover active");
                let ch = &mut m.chains[chain as usize];
                match ch.ranges.front().copied() {
                    None => {
                        ch.done = true;
                        break None;
                    }
                    Some(rm) => (rm, ch.cursor.unwrap_or(rm.range.start)),
                }
            };
            // Collect keys from the source partition's segments.
            let src_part = c
                .partitions
                .values()
                .find(|p| p.table == rm.table && p.node == rm.from)
                .expect("source partition");
            let scan_range = KeyRange::new(cursor, rm.range.end);
            let mut keys: Vec<Key> = Vec::with_capacity(MIGRATION_BATCH);
            'outer: for (seg, seg_range) in src_part.top.prune(scan_range) {
                let lo = seg_range.start.max(cursor);
                for (k, _) in c.indexes[&seg].range_scan(KeyRange::new(lo, rm.range.end)) {
                    keys.push(k);
                    if keys.len() >= MIGRATION_BATCH {
                        break 'outer;
                    }
                }
            }
            if keys.is_empty() {
                // Range drained: commit any held range transaction (MGL-RX
                // releases its pending-change locks here), collapse routing,
                // move on.
                let leftover = {
                    let m = c.mover.as_mut().expect("mover active");
                    m.chains[chain as usize].txn.take()
                };
                if let Some(txn) = leftover {
                    let _ = c.txn.commit(txn, &mut c.store);
                }
                // Leftover routing entries still marked moving complete, so
                // future inserts in the moved range land at the target.
                let _ = c.router.complete_move(rm.table, rm.range);
                let _ = c.router.coalesce(rm.table);
                let m = c.mover.as_mut().expect("mover active");
                let ch = &mut m.chains[chain as usize];
                ch.ranges.pop_front();
                ch.cursor = None;
                continue;
            }
            let last = *keys.last().expect("non-empty");
            let batch_end = if keys.len() < MIGRATION_BATCH {
                rm.range.end
            } else {
                Key(last.raw() + 1)
            };
            let batch_range = KeyRange::new(cursor, batch_end);
            let m = c.mover.as_mut().expect("mover active");
            m.chains[chain as usize].cursor = Some(batch_end);
            break Some((rm, batch_range, keys));
        }
    };
    let Some((rm, batch_range, keys)) = planned else {
        maybe_finish(&mut cl.borrow_mut(), sim.now());
        return;
    };
    // Master first: dual pointers for the batch range.
    {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let dst_pid = c.partition_on(rm.table, rm.to);
        c.router
            .begin_move(rm.table, batch_range, dst_pid, rm.to)
            .expect("routable");
        // Under MGL-RX one system transaction spans the whole range move:
        // its locks (and before-images, the "pending changes") are held
        // until the move finishes (§3.5/Fig. 3). Under MVCC each batch
        // commits promptly so versions stamp and readers advance.
        let existing = c
            .mover
            .as_ref()
            .and_then(|m| m.chains[chain as usize].txn)
            .filter(|_| c.txn.mode() == wattdb_txn::CcMode::LockingRx);
        let txn = existing.unwrap_or_else(|| c.txn.begin(TxnKind::System));
        let m = c.mover.as_mut().expect("mover");
        m.chains[chain as usize].txn = Some(txn);
        m.chains[chain as usize].current = Some(SegmentMove {
            seg: SegmentId(u64::MAX),
            table: rm.table,
            range: batch_range,
            from: rm.from,
            to: rm.to,
        });
        m.records_moved += keys.len() as u64;
        // Stash keys for the apply step.
        c.pending_logical_keys = keys;
    }
    logical_acquire_locks(cl, sim, chain);
}

/// Acquire X locks on every key of the pending batch; park on conflict.
fn logical_acquire_locks(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    enum Outcome {
        Ready,
        Parked,
        Deadlock,
    }
    let outcome = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let m = c.mover.as_ref().expect("mover");
        let txn = m.chains[chain as usize].txn.expect("txn");
        let mv = m.chains[chain as usize].current.expect("current");
        // §3.5: under MVCC the mover needs no record locks — readers use
        // old versions and writers version on top; only the MGL-RX
        // baseline X-locks the batch (its "pending changes" cost, Fig. 3).
        let keys = if c.txn.mode() == wattdb_txn::CcMode::Mvcc {
            Vec::new()
        } else {
            c.pending_logical_keys.clone()
        };
        let mut out = Outcome::Ready;
        for k in keys {
            match c
                .txn
                .locks
                .acquire(txn, LockTarget::Record(mv.table, k), LockMode::X)
            {
                LockAcquire::Granted => continue,
                LockAcquire::Waiting => {
                    c.lock_waiters.insert(txn, Waiter::Mover(chain));
                    out = Outcome::Parked;
                    break;
                }
                LockAcquire::Deadlock => {
                    out = Outcome::Deadlock;
                    break;
                }
            }
        }
        match out {
            Outcome::Deadlock => {
                let grants = c
                    .txn
                    .abort(txn, &mut c.indexes, &mut c.store)
                    .unwrap_or_default();
                c.lock_waiters.remove(&txn);
                // Rewind the batch: routing + cursor.
                let m = c.mover.as_mut().expect("mover");
                let mv = m.chains[chain as usize].current.take().expect("current");
                m.chains[chain as usize].txn = None;
                m.chains[chain as usize].cursor = Some(mv.range.start);
                c.router.abort_move(mv.table, mv.range).ok();
                drop(grants);
                Outcome::Deadlock
            }
            o => o,
        }
    };
    match outcome {
        Outcome::Ready => logical_copy_records(cl, sim, chain),
        Outcome::Parked => {}
        Outcome::Deadlock => {
            let handle = cl.clone();
            sim.after(SimDuration::from_millis(20), move |sim| {
                next_logical_batch(&handle, sim, chain)
            });
        }
    }
}

fn logical_copy_records(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    // Charge the batch's hardware demands, then apply the record moves.
    let (mv, scan_bytes, ship_bytes, src_disk, cpu) = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let m = c.mover.as_ref().expect("mover");
        let mv = m.chains[chain as usize].current.expect("current");
        let keys = &c.pending_logical_keys;
        // Pages touched while hunting the records (scattered): one page per
        // record, scaled.
        let pages = keys.len() as u64;
        let scan_bytes = pages * wattdb_storage::PAGE_SIZE as u64 * c.cfg.io_scale / 8;
        let width: u64 = 128; // mixed-table average row image
        let ship_bytes = keys.len() as u64 * width * c.cfg.io_scale;
        let cpu = c.cfg.costs.scan_per_record * keys.len() as u64 * 2;
        let meta_disk = c
            .seg_dir
            .on_node(mv.from)
            .next()
            .map(|s| s.disk.index)
            .unwrap_or(1);
        let mm = c.mover.as_mut().expect("mover");
        mm.bytes_moved += ship_bytes;
        (mv, scan_bytes, ship_bytes, meta_disk, cpu)
    };
    let handle = cl.clone();
    // Chain: scan I/O → CPU → wire → apply.
    let after_wire = Completion::call(move |sim| logical_apply_batch(&handle, sim, chain));
    let handle2 = cl.clone();
    let after_cpu = Completion::call(move |sim| {
        let c = handle2.borrow();
        c.net
            .send(sim, mv.from, mv.to, ByteSize::bytes(ship_bytes), after_wire);
    });
    let handle3 = cl.clone();
    let after_scan = Completion::call(move |sim| {
        let cpu_res = handle3.borrow().nodes[mv.from.raw() as usize].cpu.clone();
        wattdb_sim::Resource::submit(&cpu_res, sim, cpu, after_cpu);
    });
    {
        let mut c = cl.borrow_mut();
        c.nodes[mv.from.raw() as usize].disks[src_disk as usize].bulk_transfer(
            sim,
            ByteSize::bytes(scan_bytes),
            after_scan,
        );
    }
}

fn logical_apply_batch(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let grants = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let m = c.mover.as_mut().expect("mover");
        let mv = m.chains[chain as usize].current.take().expect("current");
        let txn = m.chains[chain as usize].txn.take().expect("txn");
        let keys = std::mem::take(&mut c.pending_logical_keys);
        // Target segment covering exactly this batch range.
        let dst_pid = c.partition_on(mv.table, mv.to);
        let dst_seg = c
            .open_segment(mv.table, mv.to, dst_pid, mv.range)
            .expect("fresh segment tiles");
        let src_pid = c
            .partitions
            .values()
            .find(|p| p.table == mv.table && p.node == mv.from)
            .map(|p| p.id)
            .expect("source partition");
        for k in keys {
            // Read current image at the source, tombstone it, re-create at
            // the target — all inside the system transaction.
            let src_seg = match c.partitions[&src_pid].top.segment_for(k) {
                Some(s) => s,
                None => continue,
            };
            let rec = {
                let idx = c.indexes.get(&src_seg).expect("index");
                match c.txn.read(txn, idx, &c.store, k) {
                    Ok(Some(r)) => r,
                    _ => continue,
                }
            };
            {
                let idx = c.indexes.get_mut(&src_seg).expect("index");
                let _ = c.txn.delete(txn, idx, &mut c.store, u32::MAX, k);
            }
            {
                let idx = c.indexes.get_mut(&dst_seg).expect("index");
                let _ = c.txn.insert(
                    txn,
                    idx,
                    &mut c.store,
                    u32::MAX,
                    k,
                    rec.logical_width,
                    &rec.payload,
                );
            }
            // WAL on both ends: the delete's before-image, the insert's
            // after-image.
            let image_bytes = rec.logical_width + 32;
            for (node, segment) in [(mv.from, src_seg), (mv.to, dst_seg)] {
                let payload = LogPayload::Change {
                    segment,
                    image_bytes,
                };
                c.nodes[node.raw() as usize].log.append(txn, payload);
            }
        }
        // Hand the batch range's ownership to the target.
        c.router
            .complete_move(mv.table, mv.range)
            .expect("complete");
        // Range end? (The last batch's range extends to the move's end.)
        let range_done = c
            .mover
            .as_ref()
            .and_then(|m| m.chains[chain as usize].ranges.front())
            .map(|rm| mv.range.end >= rm.range.end)
            .unwrap_or(true);
        if c.txn.mode() == wattdb_txn::CcMode::LockingRx && !range_done {
            // Keep the system transaction (locks + pending changes) open.
            let m = c.mover.as_mut().expect("mover");
            m.chains[chain as usize].txn = Some(txn);
            Vec::new()
        } else {
            let (_, grants) = c.txn.commit(txn, &mut c.store).expect("system commit");
            grants
        }
    };
    resume_grants(cl, sim, grants);
    // Commit durability: flush both logs as a bulk write, then continue.
    let handle = cl.clone();
    sim.after(SimDuration::from_millis(2), move |sim| {
        next_logical_batch(&handle, sim, chain)
    });
}

fn maybe_finish(c: &mut Cluster, now: SimTime) {
    // Finished once every chain has drained.
    let Some(stats) = c.mover.take_if(|m| m.chains.iter().all(|ch| ch.done)) else {
        return;
    };
    let report = RebalanceReport {
        scheme: stats.scheme,
        planner: stats.planner,
        started: stats.started,
        finished: now,
        segments_moved: stats.segments_moved,
        records_moved: stats.records_moved,
        bytes_moved: stats.bytes_moved,
        heat_planned: stats.heat_planned,
        heat_moved: stats.heat_moved,
    };
    c.metrics.rebalances.push(report);
    // Close the rebalance span with the realized counters next to the
    // planned ones set at launch.
    if let Some(ps) = stats.power_span {
        c.telemetry.spans.end(ps, now);
    }
    if let Some(span) = stats.span {
        c.telemetry
            .spans
            .set_attr(span, "segments_moved", report.segments_moved.into());
        c.telemetry
            .spans
            .set_attr(span, "records_moved", report.records_moved.into());
        c.telemetry
            .spans
            .set_attr(span, "bytes_moved", report.bytes_moved.into());
        c.telemetry
            .spans
            .set_attr(span, "heat_moved", report.heat_moved.into());
        c.telemetry.spans.end(span, now);
    }
    // Scripted helpers detach (Fig. 8: "after rebalancing, the additional
    // nodes should be turned off again"). Helpers the elasticity policy
    // attached for transient skew are deliberately NOT released here: an
    // unrelated scale-out or drain finishing must not tear down a
    // response whose skew still persists — those detach only via
    // `Decision::DetachHelpers` on subsidence.
    let scripted: Vec<NodeId> = (c.helpers.members.iter().filter(|m| m.scripted))
        .map(|m| m.node)
        .collect();
    detach_helper_set(c, &scripted, now);
}

/// Summary of the last completed rebalance.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceReport {
    /// Scheme used.
    pub scheme: Scheme,
    /// Planner that produced the executed plan.
    pub planner: Planner,
    /// Start time.
    pub started: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// Segments moved.
    pub segments_moved: u64,
    /// Records moved (logical only).
    pub records_moved: u64,
    /// Bytes shipped (post io_scale).
    pub bytes_moved: u64,
    /// Heat the plan intended to relocate (decayed, valued at plan time;
    /// zero under logical repartitioning, which moves ranges not
    /// segments).
    pub heat_planned: f64,
    /// Heat actually relocated (decayed, valued as each segment moved).
    pub heat_moved: f64,
}

/// Net-traffic counters captured when the first helper of a response
/// attaches: the baseline against which realized relief is measured.
#[derive(Debug, Clone, Copy)]
pub struct HelperBaseline {
    /// Attach time of the first helper in the response.
    pub at: SimTime,
    /// Predicted net-traffic relief, summed over the response's attaches.
    pub predicted: f64,
    /// Cumulative helper-shipped log bytes across all nodes at attach.
    pub shipped_bytes: u64,
    /// Cumulative remote-buffer hits across all nodes at attach.
    pub remote_hits: u64,
}

/// Predicted-vs-realized relief for a completed helper response — the
/// helper-side analogue of [`RebalanceReport`]'s planned-vs-moved heat
/// accounting. Emitted when the last helper detaches.
#[derive(Debug, Clone)]
pub struct HelperReport {
    /// When the response's first helper attached.
    pub attached: SimTime,
    /// Predicted net-traffic relief recorded at attach time.
    pub predicted: f64,
    /// Log bytes actually shipped to helpers while attached.
    pub shipped_bytes: u64,
    /// Reads served out of helper DRAM (remote-buffer hits) while
    /// attached.
    pub remote_hits: u64,
    /// The helpers released at the end of the response.
    pub helpers: Vec<NodeId>,
}

/// One attached helper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelperMember {
    /// The helper node.
    pub node: NodeId,
    /// Attached by a scripted rebalance path (released when the rebalance
    /// completes) rather than by the elasticity policy (released on skew
    /// subsidence).
    pub scripted: bool,
}

/// The helper deployment (Fig. 8): who is attached, and the accounting of
/// the response in progress — first attach to last detach.
#[derive(Debug, Default)]
pub struct HelperDeployment {
    /// Attached helpers, in attachment order.
    pub members: Vec<HelperMember>,
    /// Counters captured when the response's first helper attached.
    pub baseline: Option<HelperBaseline>,
    /// Span of the response in progress.
    pub span: Option<wattdb_telemetry::SpanId>,
    /// Predicted-vs-realized relief of the last completed response.
    pub last_report: Option<HelperReport>,
}

impl HelperDeployment {
    /// Attached helper nodes, in attachment order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.members.iter().map(|m| m.node).collect()
    }

    /// Is `node` attached as a helper?
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.iter().any(|m| m.node == node)
    }

    /// The helpers the elasticity policy attached itself (not scripted).
    pub fn policy_owned(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.members.iter().filter(|m| !m.scripted)).map(|m| m.node)
    }
}

/// Detach the given helpers: their sources fall back to local log flushes
/// and plain buffer pools, shipping cursors are cleared — including any
/// stale cursor left by a mid-flight helper reassignment — and every
/// detached helper left with no segments to serve suspends to standby
/// (one holding data stays active).
fn detach_helper_set(c: &mut Cluster, set: &[NodeId], now: SimTime) {
    let mut detached = Vec::new();
    c.helpers.members.retain(|m| {
        let keep = !set.contains(&m.node);
        if !keep {
            detached.push(m.node);
        }
        keep
    });
    if let Some(span) = c.helpers.span {
        for &h in &detached {
            c.telemetry.spans.add_event(
                span,
                now,
                "detach",
                vec![("helper".into(), h.to_string().into())],
            );
        }
    }
    if c.helpers.members.is_empty() {
        // The response is over: realized relief is whatever the helpers
        // absorbed since the baseline — log bytes they persisted plus
        // reads their DRAM answered.
        if let Some(b) = c.helpers.baseline.take() {
            let shipped: u64 = c.nodes.iter().map(|n| n.shipper.shipped_bytes()).sum();
            let hits: u64 = c.nodes.iter().map(|n| n.buffer.stats().remote_hits).sum();
            let report = HelperReport {
                attached: b.at,
                predicted: b.predicted,
                shipped_bytes: shipped.saturating_sub(b.shipped_bytes),
                remote_hits: hits.saturating_sub(b.remote_hits),
                helpers: detached.clone(),
            };
            if let Some(span) = c.helpers.span.take() {
                // Realized relief in MB/s: bytes the helpers absorbed over
                // the time they were wired.
                let dt = now.since(b.at).as_secs_f64();
                let realized = if dt > 0.0 {
                    report.shipped_bytes as f64 / dt / 1e6
                } else {
                    0.0
                };
                let spans = &mut c.telemetry.spans;
                spans.set_attr(span, "realized_relief_mbps", realized.into());
                spans.set_attr(span, "shipped_bytes", report.shipped_bytes.into());
                spans.set_attr(span, "remote_hits", report.remote_hits.into());
                spans.set_attr(span, "helpers", names(&report.helpers));
                spans.end(span, now);
            }
            c.helpers.last_report = Some(report);
        }
    }
    for &h in &detached {
        for n in &mut c.nodes {
            if n.helper == Some(h) {
                n.helper = None;
                n.buffer.set_remote_capacity(0);
            }
            // Cursors clear unconditionally: a node whose helper was
            // reassigned mid-flight still carries a cursor for the old
            // helper even though `n.helper` no longer names it.
            n.shipper.detach(h);
        }
    }
    for &h in &detached {
        // A detached helper with nothing left to serve suspends: the
        // duty-powered standbys return to standby, and so does an active
        // node that was drained empty *during* its duty — leaving it up
        // would idle it at full power with no code path left to suspend
        // it. A helper holding segments (it was serving data at attach
        // time, or became a rebalance target meanwhile) stays up.
        if can_suspend(c, h) {
            c.power_off(h);
        }
    }
}

/// Every node that is a source or target of the in-flight rebalance:
/// pending and current segment moves plus pending logical range moves.
/// Empty when no rebalance is running. Scale-in must never drain one of
/// these nodes — the segment directory understates what they will hold
/// until the moves land.
pub fn nodes_in_flight(c: &Cluster) -> std::collections::BTreeSet<NodeId> {
    let mut busy = std::collections::BTreeSet::new();
    let Some(m) = &c.mover else {
        return busy;
    };
    for chain in &m.chains {
        for mv in chain.segments.iter().chain(chain.current.iter()) {
            busy.insert(mv.from);
            busy.insert(mv.to);
        }
        for rm in &chain.ranges {
            busy.insert(rm.from);
            busy.insert(rm.to);
        }
    }
    busy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn cluster(loaded: bool) -> ClusterRc {
        let cl = Cluster::new(
            ClusterConfig {
                nodes: 4,
                segment_pages: 16,
                buffer_pages: 256,
                ..Default::default()
            },
            &[NodeId(0), NodeId(1)],
        );
        if loaded {
            cl.borrow_mut()
                .load_tpcc(
                    wattdb_tpcc::TpccConfig {
                        warehouses: 2,
                        density: 0.01,
                        payload_bytes: 8,
                        seed: 7,
                    },
                    &[NodeId(0), NodeId(1)],
                )
                .unwrap();
        }
        cl
    }

    /// The facade's scripted helper calls, over a bare cluster handle.
    fn attach_helpers(cl: &ClusterRc, sim: &mut Sim, sources: &[NodeId], helpers: &[NodeId]) {
        let plan = ControlPlan {
            attach: Some(HelperAttach::manual(sources, helpers)),
            ..Default::default()
        };
        run(cl, sim, plan);
    }

    fn detach_helpers(cl: &ClusterRc, sim: &mut Sim) -> Vec<NodeId> {
        let detach = cl.borrow().helpers.nodes();
        let plan = ControlPlan {
            detach: detach.clone(),
            ..Default::default()
        };
        run(cl, sim, plan);
        detach
    }

    #[test]
    fn helper_reassignment_leaves_no_stale_cursor() {
        let cl = cluster(false);
        let mut sim = Sim::new();
        attach_helpers(&cl, &mut sim, &[NodeId(0)], &[NodeId(2)]);
        {
            let c = cl.borrow();
            assert_eq!(c.nodes[0].helper, Some(NodeId(2)));
            assert_eq!(c.nodes[0].shipper.followers(), vec![NodeId(2)]);
        }
        // Mid-flight reassignment 0→3: the cursor for helper 2 must go
        // with it, or node 0 accumulates an unshipped backlog for a
        // follower nobody drains.
        attach_helpers(&cl, &mut sim, &[NodeId(0)], &[NodeId(3)]);
        {
            let c = cl.borrow();
            assert_eq!(c.nodes[0].helper, Some(NodeId(3)));
            assert_eq!(
                c.nodes[0].shipper.followers(),
                vec![NodeId(3)],
                "stale cursor for the reassigned helper survived"
            );
            // Both helpers are tracked until the full detach.
            assert_eq!(c.helpers.nodes(), vec![NodeId(2), NodeId(3)]);
        }
        let detached = detach_helpers(&cl, &mut sim);
        assert_eq!(detached, vec![NodeId(2), NodeId(3)]);
        let c = cl.borrow();
        assert_eq!(c.nodes[0].helper, None);
        assert!(c.nodes[0].shipper.followers().is_empty());
        assert!(c.helpers.members.is_empty());
        // Both helpers were standbys powered on for the duty: both return.
        assert_eq!(c.nodes[2].life, Lifecycle::Standby);
        assert_eq!(c.nodes[3].life, Lifecycle::Standby);
    }

    #[test]
    fn detach_clears_cursors_no_helper_field_names_anymore() {
        // The detach path must clear cursors *unconditionally*: a cursor
        // whose helper no node's `helper` field names anymore (the stale
        // state older code paths could leave) still goes away.
        let cl = cluster(false);
        let mut sim = Sim::new();
        attach_helpers(&cl, &mut sim, &[NodeId(0)], &[NodeId(2)]);
        {
            // Simulate the stale state directly: the helper field moved on
            // but the cursor was left behind.
            let mut c = cl.borrow_mut();
            c.nodes[0].helper = Some(NodeId(3));
            c.helpers.members.push(HelperMember {
                node: NodeId(3),
                scripted: true,
            });
            assert_eq!(c.nodes[0].shipper.followers(), vec![NodeId(2)]);
        }
        detach_helpers(&cl, &mut sim);
        let c = cl.borrow();
        assert!(
            c.nodes[0].shipper.followers().is_empty(),
            "stale cursor survived the detach"
        );
        assert_eq!(c.nodes[0].helper, None);
    }

    #[test]
    fn detach_returns_only_duty_powered_helpers_to_standby() {
        // Helper 1 was already active serving data; helper 2 was a
        // standby powered on for the duty. Detach suspends only node 2 —
        // powering off a data-holding node would violate §4's invariant
        // (and used to panic).
        let cl = cluster(true);
        let mut sim = Sim::new();
        attach_helpers(&cl, &mut sim, &[NodeId(0)], &[NodeId(1), NodeId(2)]);
        // Pair a second source so both helpers serve someone.
        attach_helpers(&cl, &mut sim, &[NodeId(1)], &[NodeId(2)]);
        detach_helpers(&cl, &mut sim);
        let c = cl.borrow();
        assert_eq!(c.nodes[1].life, Lifecycle::Active, "data node stays up");
        assert_eq!(c.nodes[2].life, Lifecycle::Standby);
        assert!(c.helpers.members.is_empty());
    }

    #[test]
    fn detach_suspends_an_empty_active_helper() {
        // A helper that was active-but-empty at attach time (not powered on
        // for the duty) has nothing left to serve after detach:
        // leaving it up would idle a segmentless node at full power with
        // no remaining code path to suspend it — the same fate awaits an
        // active data helper drained empty mid-duty by a scale-in.
        let cl = cluster(false);
        let mut sim = Sim::new();
        attach_helpers(&cl, &mut sim, &[NodeId(0)], &[NodeId(1)]);
        detach_helpers(&cl, &mut sim);
        let c = cl.borrow();
        assert_eq!(
            c.nodes[1].life,
            Lifecycle::Standby,
            "an empty ex-helper must not stay powered"
        );
    }

    #[test]
    fn policy_helpers_ride_out_unrelated_migration_completion() {
        // A completing migration releases only the helpers a *scripted*
        // Fig. 8 rebalance attached. Helpers the elasticity policy wired
        // up for transient skew answer a hotspot that outlives any one
        // migration: tearing them down with an unrelated drain or
        // scale-out would force churn (cooldown + patience must
        // re-accumulate before they come back).
        let cl = Cluster::new(
            ClusterConfig {
                nodes: 6,
                segment_pages: 16,
                buffer_pages: 256,
                ..Default::default()
            },
            &[NodeId(0), NodeId(1)],
        );
        cl.borrow_mut()
            .load_tpcc(
                wattdb_tpcc::TpccConfig {
                    warehouses: 2,
                    density: 0.01,
                    payload_bytes: 8,
                    seed: 7,
                },
                &[NodeId(0), NodeId(1)],
            )
            .unwrap();
        let mut sim = Sim::new();
        // Policy attach (scripted: false): node 4 helps node 0.
        let plan = wattdb_planner::HelperPlan {
            assignments: vec![wattdb_planner::HelperAssignment {
                source: NodeId(0),
                helper: NodeId(4),
                net_heat: 1.0,
            }],
            predicted_relief: 1.0,
            ranking: Vec::new(),
        };
        let attach = ControlPlan {
            attach: Some(HelperAttach::planned(&plan, false)),
            ..Default::default()
        };
        run(&cl, &mut sim, attach);
        // Scripted attach alongside: node 5 helps node 1 for the
        // rebalance below.
        attach_helpers(&cl, &mut sim, &[NodeId(1)], &[NodeId(5)]);
        let scripted: Vec<bool> = (cl.borrow().helpers.members.iter())
            .map(|m| m.scripted)
            .collect();
        assert_eq!(scripted, vec![false, true]);
        let rebalance = ControlPlan::fraction(&cl.borrow(), 0.5, &[NodeId(1)], &[NodeId(2)]);
        run(&cl, &mut sim, rebalance);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
        {
            let c = cl.borrow();
            assert!(c.mover.is_none(), "rebalance completed");
            // The scripted helper went with the completion...
            assert_eq!(c.nodes[1].helper, None);
            assert_eq!(c.nodes[5].life, Lifecycle::Standby);
            // ...while the policy helper is still wired.
            assert_eq!(c.helpers.nodes(), vec![NodeId(4)]);
            assert_eq!(c.nodes[0].helper, Some(NodeId(4)));
            assert_eq!(c.nodes[0].shipper.followers(), vec![NodeId(4)]);
            assert_eq!(c.helpers.policy_owned().count(), 1);
        }
        // The policy-side release still lets go of everything.
        assert_eq!(detach_helpers(&cl, &mut sim), vec![NodeId(4)]);
        let c = cl.borrow();
        assert!(c.helpers.members.is_empty());
        assert_eq!(c.nodes[0].helper, None);
        assert_eq!(c.nodes[4].life, Lifecycle::Standby);
    }
}
