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
//!   batch; ownership moves with each batch (MVCC) or range (MGL-RX).
//!   Scan I/O and record locking make it the slowest, fully general scheme.
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
//! [`crate::policy::plan`] from a decision, by the fraction heuristic
//! beside it ([`ControlPlan::fraction`]), from a planner crate
//! [`wattdb_planner::Plan`] ([`ControlPlan::planned`]), or filled in by a
//! script through [`crate::api::WattDb::run`] — says which nodes to power,
//! what to move, what to drain, which follower copies to re-home and which
//! helpers (Fig. 8) to wire or release; [`run`] carries it out. `run` is
//! the only code outside `cluster.rs` that powers a node on, marks a
//! drain, starts a rebalance's [`MoveController`], wires a helper or opens the
//! `failover` / `helpers` / `rebalance` / `power-up` / `power-down`
//! spans, and it returns what it started ([`Applied`]) instead of leaving
//! callers to read it back. The step machine below then moves the data;
//! helper state lives in one [`crate::helpers::Helpers`] on the cluster.
//! [`settle`] is `run`'s counterpart: once a window it closes the
//! episodes whose work has landed — the failover span when the factor is
//! restored, a finished drain by suspending its nodes.
//!
//! # One step machine
//!
//! Each source runs one [`MoverChain`]: a queue of moves and the step
//! in flight — a segment, a follower copy, or a batch of a range's
//! records staged on the chain. One path drives them all: pick (master
//! first) → [`lock_step`] → copy → apply → release; the schemes differ
//! only in which lock, what the copy bills and what apply does
//! (§4.1–4.3). A follower copy takes no lock and bills what a segment
//! does. A failed step takes the one rewind; every landed move asserts
//! that it routes to where it lies.
//!
//! Bulk I/O volumes are multiplied by `cfg.io_scale` so the scaled-down
//! dataset produces the paper's 100 GB-class transfer times (see
//! [`crate::api::WattDbBuilder::io_scale`]).

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use wattdb_common::{
    ByteSize, Error, Key, KeyRange, NodeId, Result, SegmentId, SimDuration, SimTime, TableId, TxnId,
};
use wattdb_planner::{PlannedMove, Planner};
use wattdb_sim::{Completion, Sim};
use wattdb_txn::{
    is_provisional, owner, CcMode, Grant, LockAcquire, LockMode, LockTarget, TxnKind,
};
use wattdb_wal::LogPayload;

use crate::cluster::{Cluster, ClusterRc, Lifecycle, Scheme};
use crate::executor::{resume_grants, Waiter};
use crate::replication;

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

/// One follower copy: a segment's footprint from its leader to a new
/// follower host. Log shipping catches the copy up once it joins the map.
/// It takes no lock and writes no move bracket.
#[derive(Debug, Clone, Copy)]
pub struct FollowerCopy {
    /// Copied segment.
    pub seg: SegmentId,
    /// The segment's leader: as queued, then as the chain reaches it.
    pub from: NodeId,
    /// The new follower host.
    pub to: NodeId,
    /// The segment's footprint when the copy was queued (post io_scale).
    pub bytes: u64,
}

/// A planned move waiting in a chain's queue.
#[derive(Debug, Clone, Copy)]
pub enum Pending {
    /// A whole segment (physical / physiological).
    Segment(PlannedMove),
    /// A key range, moved batch by batch (logical).
    Range(RangeMove),
    /// A follower copy.
    Copy(FollowerCopy),
}

/// `[from, to]` of a queued move.
fn ends(p: Pending) -> [NodeId; 2] {
    match p {
        Pending::Segment(m) => [m.from, m.to],
        Pending::Range(m) => [m.from, m.to],
        Pending::Copy(m) => [m.from, m.to],
    }
}

/// The batch of a range move's records (§4.2) in flight, staged on its
/// chain.
#[derive(Debug, Default)]
pub struct Batch {
    /// The batch's slice of the move's range.
    pub range: KeyRange,
    /// The keys picked, in key order.
    pub keys: Vec<Key>,
    /// Their head versions' logical widths, summed at pick.
    pub width: u64,
}

/// Per-source migration chain: its queue and its step in flight, whose
/// kind decides the lock, the copy's bill and what apply does. Its index
/// in [`MoveController::chains`] is its lock-waiter token.
#[derive(Default)]
pub struct MoverChain {
    /// The node its moves leave (a follower copy: its segment's leader).
    pub source: NodeId,
    /// Moves not started yet, in plan order.
    pub queue: VecDeque<Pending>,
    /// Where the next batch of the started range at the front starts.
    pub cursor: Option<Key>,
    /// The system transaction held (under MGL-RX, across a range).
    pub txn: Option<TxnId>,
    /// The move picked and not yet applied; a range moves one `batch` at
    /// a time.
    pub step: Option<Pending>,
    /// The range step's batch.
    pub batch: Batch,
    /// Done flag.
    pub done: bool,
}

impl MoverChain {
    /// The step in flight, then the queued moves.
    pub fn moves(&self) -> impl Iterator<Item = Pending> + '_ {
        self.step.into_iter().chain(self.queue.iter().copied())
    }
}

/// Cluster-wide migration controller.
#[derive(Default)]
pub struct MoveController {
    /// Chains by id.
    pub chains: Vec<MoverChain>,
    /// The report so far: scheme, planner, start and planned heat as
    /// launched, the counters as each step lands; `finished` is stamped
    /// when the last chain drains. `None` for a controller started for
    /// follower copies alone, which records no rebalance.
    pub report: Option<RebalanceReport>,
    /// Tracing span covering this rebalance, closed by `maybe_finish`.
    pub span: Option<wattdb_telemetry::SpanId>,
    /// Child span covering the targets' power-on + boot, closed when the
    /// first chain starts moving.
    pub power_span: Option<wattdb_telemetry::SpanId>,
}

impl MoveController {
    /// Drop every *pending* move that sources from or targets `node` — the
    /// failover path's way of keeping a dead node out of the remaining
    /// plan. A move already in flight — the step picked, or a range
    /// already started — is left alone here; the apply voids a segment or
    /// follower copy that completes against a corpse.
    pub fn drop_node(&mut self, node: NodeId) {
        for ch in &mut self.chains {
            let started = ch.cursor.and_then(|_| ch.queue.pop_front());
            ch.queue.retain(|&p| !ends(p).contains(&node));
            if let Some(p) = started {
                ch.queue.push_front(p);
            }
        }
    }

    /// Queue a follower copy on its leader's chain, right behind the
    /// segment's own move when that is queued there; the chain is created,
    /// or revived when done. Returns the chain to kick, if it was idle.
    pub fn queue_copy(&mut self, copy: FollowerCopy) -> Option<u64> {
        let chain = self.chains.iter().position(|ch| ch.source == copy.from);
        let id = chain.unwrap_or_else(|| {
            // A new chain starts idle, to be revived like a done one.
            self.chains.push(MoverChain {
                source: copy.from,
                done: true,
                ..Default::default()
            });
            self.chains.len() - 1
        });
        let ch = &mut self.chains[id];
        let own_move =
            (ch.queue.iter()).position(|p| matches!(p, Pending::Segment(mv) if mv.seg == copy.seg));
        let at = own_move.map_or(ch.queue.len(), |i| i + 1);
        ch.queue.insert(at, Pending::Copy(copy));
        std::mem::take(&mut ch.done).then_some(id as u64)
    }
}

pub use crate::helpers::HelperAttach;

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
    /// The moves: whole segments (physical / physiological partitioning)
    /// or key ranges (logical).
    pub moves: Vec<Pending>,
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
        let mut sources: Vec<NodeId> = plan.moves.iter().map(|m| m.from).collect();
        sources.sort_unstable();
        sources.dedup();
        ControlPlan {
            planner: plan.planner,
            sources,
            moves: plan.moves.iter().copied().map(Pending::Segment).collect(),
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
    /// What the plan predicted: heat to relocate for moves. A scripted
    /// helper attachment predicts nothing.
    pub predicted: Option<f64>,
}

/// A node list as a span attribute.
pub(crate) fn names(nodes: &[NodeId]) -> wattdb_telemetry::AttrValue {
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
                let base = c.replication.rereplicated_bytes;
                let attrs = vec![
                    ("failed".into(), failed.to_string().into()),
                    ("rereplicated_base".into(), base.into()),
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
        // A plan with no move starts nothing: no target powers on, no
        // `rebalance` span opens, no report is recorded.
        let launch = !plan.sources.is_empty() && !plan.moves.is_empty() && c.mover.is_none();
        let targets: &[NodeId] = if launch { &plan.power_up } else { &[] };
        // Targets coming up from standby get a "power-up" child span; the
        // ones already active boot nothing.
        let booted: Vec<NodeId> = (targets.iter().copied())
            .filter(|&t| c.life(t) == Lifecycle::Standby)
            .collect();
        for &n in plan.attach.iter().flat_map(|a| &a.helpers).chain(targets) {
            c.power_on(n);
        }

        if !plan.detach.is_empty() {
            // A full detach closes the span: report it first.
            report = Some((c.helpers.span(), None));
            crate::helpers::detach(c, &plan.detach, now);
        }
        if let Some(a) = &plan.attach {
            crate::helpers::attach(c, a, now);
            report = Some((c.helpers.span(), None));
        }

        for &n in &plan.drain {
            c.begin_drain(n);
        }

        if launch {
            let moves = &plan.moves;
            let segment = |p: &Pending| match *p {
                Pending::Segment(m) => Some(m),
                _ => None,
            };
            assert!(
                c.cfg.scheme != Scheme::Logical || !moves.iter().any(|p| segment(p).is_some()),
                "planned segment moves need a segment scheme (physical/physiological)"
            );
            // What the plan intends to relocate, valued at plan time.
            let heat = |m: PlannedMove| c.heat.heat_of(m.seg, now).value();
            let heat_planned: f64 = moves.iter().filter_map(segment).map(heat).sum();
            let from: std::collections::BTreeSet<NodeId> =
                moves.iter().map(|&p| ends(p)[0]).collect();
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
                chains: (plan.sources.iter())
                    .map(|&source| MoverChain {
                        source,
                        queue: moves
                            .iter()
                            .copied()
                            .filter(|&p| ends(p)[0] == source)
                            .collect(),
                        ..Default::default()
                    })
                    .collect(),
                report: Some(RebalanceReport {
                    scheme: c.cfg.scheme,
                    planner: plan.planner,
                    started: now,
                    finished: now,
                    segments_moved: 0,
                    records_moved: 0,
                    bytes_moved: 0,
                    heat_planned,
                    heat_moved: 0.0,
                }),
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
    replication::assert_invariants(c);
    c.helpers.assert_invariants(&c.nodes);
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
/// replica map, no follower copy is left on a chain and the replication
/// factor is restored (immediately, when replication is off). A scale-in
/// whose moves and re-homes have all landed suspends its emptied nodes
/// (§3.4's "shutdown the nodes currently not needed") and closes the
/// `power-down` span — even when the drained node died first. Whatever
/// could not suspend (a segment whose move was voided, helper duty)
/// rejoins the plannable pool rather than staying excluded as "draining"
/// forever; the next window re-decides. The finished drain is returned
/// for the caller to log.
pub fn settle(cl: &ClusterRc, sim: &Sim) -> Option<SettledDrain> {
    let now = sim.now();
    let mut c = cl.borrow_mut();
    let c = &mut *c;
    // (The map-wide under-replication scan runs only while one is open.)
    let recovered = c.failover_span.is_some()
        && !c.failed_nodes().any(|n| replication::references(c, n))
        && !copying(c)
        && c.replication.under_replicated().is_empty();
    if let Some(span) = c.failover_span.take_if(|_| recovered) {
        let spans = &mut c.telemetry.spans;
        let base = (spans.get(span))
            .and_then(|s| s.attr_f64("rereplicated_base"))
            .unwrap_or(0.0) as u64;
        let shipped = c.replication.rereplicated_bytes.saturating_sub(base);
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
    replication::assert_invariants(c);
    c.helpers.assert_invariants(&c.nodes);
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
pub(crate) fn can_suspend(c: &Cluster, node: NodeId) -> bool {
    node != NodeId::MASTER
        && c.life(node).is_up()
        && c.seg_dir.on_node(node).next().is_none()
        && !c.helpers.contains(node)
        && c.replication.followed_by(node).is_empty()
}

/// The running mover's chain `chain`, or `None` once the mover is gone:
/// the one way each step reaches its chain.
fn chain_mut(mover: &mut Option<MoveController>, chain: u64) -> Option<&mut MoverChain> {
    mover.as_mut()?.chains.get_mut(chain as usize)
}

/// Records per logical-partitioning move batch.
const MIGRATION_BATCH: usize = 64;

/// Pick the chain's next step and start it: the master first, keeping
/// both pointers (§4.3 step 1) for a step that changes ownership, then the
/// step's system transaction (under MGL-RX, one per range), then the locks.
pub(crate) fn next_step(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let copy = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        // First chain to start moving marks boot completion for the
        // freshly powered targets.
        if let Some(ps) = c.mover.as_mut().and_then(|m| m.power_span.take()) {
            c.telemetry.spans.end(ps, sim.now());
        }
        let Some(step) = pick(c, chain) else {
            maybe_finish(c, sim.now());
            return;
        };
        let routed = match step {
            Pending::Segment(mv) => {
                (c.cfg.scheme == Scheme::Physiological).then_some((mv.table, mv.range, mv.to))
            }
            Pending::Copy(_) => None,
            Pending::Range(mv) => {
                chain_mut(&mut c.mover, chain).map(|ch| (mv.table, ch.batch.range, mv.to))
            }
        };
        if let Some((table, range, to)) = routed {
            let pid = c.partition_on(table, to);
            c.router
                .begin_move(table, range, pid, to)
                .expect("routable move");
        }
        // A follower copy takes no lock: log shipping catches it up.
        let copy = matches!(step, Pending::Copy(_));
        if let Some(ch) = chain_mut(&mut c.mover, chain) {
            if !copy {
                ch.txn = ch.txn.or_else(|| Some(c.txn.begin(TxnKind::System)));
            }
            ch.step = Some(step);
        }
        copy
    };
    if copy {
        copy_step(cl, sim, chain);
    } else {
        lock_step(cl, sim, chain);
    }
}

/// The chain's next step: the next segment or follower copy, or up to
/// [`MIGRATION_BATCH`] keys of the front range from its cursor, the batch
/// reaching to the next key or the range's end. `None`: the chain is done.
fn pick(c: &mut Cluster, chain: u64) -> Option<Pending> {
    loop {
        let ch = chain_mut(&mut c.mover, chain)?;
        let mv = match ch.queue.front().copied() {
            None => {
                ch.done = true;
                return None;
            }
            Some(Pending::Range(mv)) => mv,
            Some(Pending::Copy(cp)) => {
                // A tracked segment's copy ships from its catalog node as the
                // chain reaches it: behind the segment's own move, the post-move leader.
                ch.queue.pop_front();
                let tracked = c.replication.followers(cp.seg).is_some();
                match c.seg_dir.get(cp.seg).map(|m| m.node) {
                    Ok(from) if tracked && from != cp.to => {
                        return Some(Pending::Copy(FollowerCopy { from, ..cp }))
                    }
                    _ => continue,
                }
            }
            segment => {
                ch.queue.pop_front();
                return segment;
            }
        };
        let (start, held) = (ch.cursor.unwrap_or(mv.range.start), ch.txn.is_some());
        let src = c.partition_on(mv.table, mv.from);
        let scan = KeyRange::new(start, mv.range.end);
        let (mut keys, mut width) = (Vec::with_capacity(MIGRATION_BATCH + 1), 0);
        for (seg, seg_range) in c.partitions[&src].top.prune(scan) {
            let lo = seg_range.start.max(start);
            c.indexes[&seg].visit_range(KeyRange::new(lo, mv.range.end), |k, rid| {
                if keys.len() < MIGRATION_BATCH {
                    width += c.store.peek(rid).map_or(0, |h| u64::from(h.logical_width));
                }
                if keys.len() <= MIGRATION_BATCH {
                    keys.push(k);
                }
            });
            if keys.len() > MIGRATION_BATCH {
                break;
            }
        }
        let next = (keys.len() > MIGRATION_BATCH).then(|| keys.pop()).flatten();
        let ch = chain_mut(&mut c.mover, chain)?;
        if keys.is_empty() && !held {
            ch.queue.pop_front();
            ch.cursor = None;
            continue;
        }
        let range = KeyRange::new(start, next.unwrap_or(mv.range.end));
        ch.cursor = Some(range.end);
        ch.batch = Batch { range, keys, width };
        return Some(Pending::Range(mv));
    }
}

/// Take the step's locks, then copy (§4.3 step 2, §3.5): `S` on a segment
/// (readers unaffected, or sharing it under MGL), `X` on a batch's keys
/// under MGL-RX only. A wait parks the chain; its grant resumes it here.
pub fn lock_step(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let outcome = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let locking = c.txn.mode() == CcMode::LockingRx;
        let Some(MoverChain {
            step: Some(step),
            txn: Some(txn),
            batch,
            ..
        }) = chain_mut(&mut c.mover, chain)
        else {
            return;
        };
        let txn = *txn;
        let mut outcome = LockAcquire::Granted;
        let (table, keys): (_, &[Key]) = match *step {
            Pending::Segment(mv) => {
                let target = LockTarget::Segment(mv.seg);
                outcome = c.txn.locks.acquire(txn, target, LockMode::S);
                (mv.table, &[])
            }
            Pending::Range(mv) => (mv.table, if locking { &batch.keys } else { &[] }),
            Pending::Copy(_) => return, // never locked: `next_step` copies it
        };
        for &k in keys {
            outcome = (c.txn.locks).acquire(txn, LockTarget::Record(table, k), LockMode::X);
            if outcome != LockAcquire::Granted {
                break;
            }
        }
        if outcome == LockAcquire::Waiting {
            c.lock_waiters.insert(txn, Waiter::Mover(chain));
        }
        outcome
    };
    match outcome {
        LockAcquire::Granted => copy_step(cl, sim, chain),
        LockAcquire::Waiting => {}
        LockAcquire::Deadlock => rewind(cl, sim, chain),
    }
}

/// Copy the step's data and bill what it ships: a segment flushes its dirty
/// pages and, like a follower copy, is read at raw device speed while it
/// crosses the wire; a batch pays a scattered page read per record, CPU,
/// then its widths.
fn copy_step(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let mut c = cl.borrow_mut();
    let c = &mut *c;
    let io_scale = c.cfg.io_scale;
    let Some(ch) = chain_mut(&mut c.mover, chain) else {
        return;
    };
    let (step, records, width) = (ch.step, ch.batch.keys.len() as u64, ch.batch.width);
    let copy = matches!(step, Some(Pending::Copy(_)));
    let (from, to, disk, read, cpu, ship) = match step {
        None => return,
        Some(Pending::Copy(cp)) => {
            let disk = c.seg_dir.get(cp.seg).map_or(1, |m| m.disk.index);
            (cp.from, cp.to, disk, cp.bytes, None, cp.bytes)
        }
        Some(Pending::Segment(mv)) => {
            let bytes = c.copy_bytes(mv.seg).expect("segment meta");
            let disk = c.seg_dir.get(mv.seg).expect("segment meta").disk.index;
            // Log the move bracket on the source's WAL; dirty pages of the
            // segment flush before the copy.
            let src = &mut c.nodes[mv.from.raw() as usize];
            let segment = mv.seg;
            let start = LogPayload::SegmentMoveStart {
                segment,
                to_node: mv.to.raw(),
            };
            src.log.append(TxnId::NONE, start);
            src.buffer.clean_segment(segment);
            (mv.from, mv.to, disk, bytes, None, bytes)
        }
        Some(Pending::Range(mv)) => {
            let disk = (c.seg_dir.on_node(mv.from).next()).map_or(1, |s| s.disk.index);
            let read = records * wattdb_storage::PAGE_SIZE as u64 * io_scale / 8;
            let cpu = c.cfg.costs.scan_per_record * records * 2;
            (mv.from, mv.to, disk, read, Some(cpu), width * io_scale)
        }
    };
    // A copy's bytes count as re-replicated when it lands, not as moved.
    if let Some(r) = c.mover.as_mut().and_then(|m| m.report.as_mut()) {
        r.bytes_moved += if copy { 0 } else { ship };
    }
    let disk = &mut c.nodes[from.raw() as usize].disks[disk as usize];
    let Some(cpu) = cpu else {
        // Join: disk read ∥ network ship. Each arm counts down; the later
        // one applies in its own completion event, the instant both are
        // done, so the join adds no event of its own.
        let remaining = Rc::new(Cell::new(2u8));
        let make_arm = || {
            let remaining = remaining.clone();
            let handle = cl.clone();
            Completion::call(move |sim| {
                remaining.set(remaining.get() - 1);
                if remaining.get() == 0 {
                    apply_segment(&handle, sim, chain);
                }
            })
        };
        disk.bulk_transfer(sim, ByteSize::bytes(read), make_arm());
        c.net.send(sim, from, to, ByteSize::bytes(ship), make_arm());
        return;
    };
    // Chain: scan I/O → CPU → wire → apply.
    let handle = cl.clone();
    let after_wire = Completion::call(move |sim| apply_batch(&handle, sim, chain));
    let handle = cl.clone();
    let after_cpu = Completion::call(move |sim| {
        let c = handle.borrow();
        c.net.send(sim, from, to, ByteSize::bytes(ship), after_wire);
    });
    let handle = cl.clone();
    let after_scan = Completion::call(move |sim| {
        let cpu_res = handle.borrow().nodes[from.raw() as usize].cpu.clone();
        wattdb_sim::Resource::submit(&cpu_res, sim, cpu, after_cpu);
    });
    disk.bulk_transfer(sim, ByteSize::bytes(read), after_scan);
}

/// Apply a copied segment — §4.3's ownership switch or §4.1's new storage
/// place, void if an endpoint died — release its lock, pick the next step.
/// A follower copy joins the map only if its source and host survived and
/// the host is still active; anything else voids it, and background
/// repair re-plans whatever is left short.
fn apply_segment(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let mut follower_evicted = false;
    let grants = 'apply: {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let scheme = c.cfg.scheme;
        let now = sim.now();
        let Some(ch) = chain_mut(&mut c.mover, chain) else {
            return;
        };
        let (step, txn) = (ch.step.take(), ch.txn.take());
        if let Some(Pending::Copy(cp)) = step {
            // A live `from` still leads: it owned the segment at `pick`, the
            // copy rides its chain behind the segment's own move and one
            // rebalance runs at a time, so only a promotion can move it.
            if !c.is_failed(cp.from) && c.life(cp.to) == Lifecycle::Active {
                replication::add_copy(c, cp.seg, cp.to, cp.bytes);
            }
            break 'apply Vec::new();
        }
        let (Some(Pending::Segment(mv)), Some(txn)) = (step, txn) else {
            return;
        };
        let mover_span = c.mover.as_ref().and_then(|m| m.span);
        if c.is_failed(mv.from) || c.is_failed(mv.to) {
            // An endpoint died mid-copy: the copy's result is void. The
            // master's dual pointer rolls back (physiological only — the
            // other schemes never touched routing) and placement stays
            // put; failover re-covers ownership separately. The lock
            // releases so parked writers resume against the survivors.
            if scheme == Scheme::Physiological {
                c.router.abort_move(mv.table, mv.range).ok();
            }
        } else {
            if let Some(r) = c.mover.as_mut().and_then(|m| m.report.as_mut()) {
                r.segments_moved += 1;
                r.heat_moved += c.heat.heat_of(mv.seg, now).value();
            }
            if scheme == Scheme::Physiological {
                // §4.3 step 4: ownership switch — detach from the source's
                // top index, attach to the target's; the per-segment PK
                // index travels untouched. Then the master drops the old
                // pointer.
                let src_pid = c.partition_on(mv.table, mv.from);
                c.hand_over(mv.seg, mv.table, mv.range, src_pid, mv.to)
                    .expect("ownership switch");
                // Leadership follows ownership; a follower copy the
                // destination held is consumed, and a backfill restores it.
                follower_evicted = replication::follow_owner(c, mv.seg, mv.to, true);
                if let Some(span) = mover_span.filter(|_| follower_evicted) {
                    let segment = wattdb_telemetry::AttrValue::U64(mv.seg.raw());
                    let attrs = vec![
                        ("segment".into(), segment),
                        ("node".into(), mv.to.to_string().into()),
                    ];
                    let spans = &mut c.telemetry.spans;
                    spans.add_event(span, now, "follower-evicted", attrs);
                }
            } else {
                // §4.1: only the physical placement changes; ownership and
                // routing stay at the source. Future accesses pay the wire.
                let disk = c.data_disk(mv.to, mv.seg);
                c.seg_dir.relocate(mv.seg, mv.to, disk).expect("relocate");
            }
            // Old buffered pages are dropped at the source.
            c.nodes[mv.from.raw() as usize].buffer.evict_segment(mv.seg);
            // The step landed where its range routes.
            let home = c.home_of(mv.table, mv.range.start).ok().flatten();
            assert_eq!(
                home.map(|(.., s)| s),
                Some(mv.seg),
                "{} lands off its route",
                mv.seg
            );
            c.nodes[mv.from.raw() as usize]
                .log
                .append(TxnId::NONE, LogPayload::SegmentMoveEnd { segment: mv.seg });
        }
        // Release the segment lock: queued writers resume, redirected to the
        // new owner by routing on their next op.
        c.txn.commit(txn, &mut c.store).expect("system commit").1
    };
    resume_grants(cl, sim, grants);
    // The consumed copy left the segment under factor: backfill through
    // the shared re-replication machinery, unless copies are already on a
    // chain (then the autopilot's background-repair pass — the single
    // reconciliation point — picks up whatever remains short).
    if follower_evicted && !copying(&cl.borrow()) {
        crate::failover::schedule_rereplication(cl, sim);
    }
    next_step(cl, sim, chain);
}

/// Is a follower copy queued or in flight on a mover chain?
pub fn copying(c: &Cluster) -> bool {
    let mut moves = c.mover.iter().flat_map(|m| &m.chains);
    moves.any(|ch| ch.moves().any(|p| matches!(p, Pending::Copy(_))))
}

/// Apply a copied batch, then, after both logs flush, the next step.
fn apply_batch(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let grants = move_batch(&mut cl.borrow_mut(), chain).expect("logical batch");
    resume_grants(cl, sim, grants);
    let handle = cl.clone();
    sim.after(SimDuration::from_millis(2), move |sim| {
        next_step(&handle, sim, chain)
    });
}

/// Move the batch's records inside the chain's transaction: tombstone at the
/// source, re-create in the target segment covering the key (opened for the
/// batch's range if none overlaps it). A key a user has written and not
/// committed stays (MVCC: first updater wins). MVCC lands each batch;
/// MGL-RX lands the range with its last.
fn move_batch(c: &mut Cluster, chain: u64) -> Result<Vec<Grant>> {
    let Some(ch) = chain_mut(&mut c.mover, chain) else {
        return Ok(Vec::new());
    };
    let (Some(Pending::Range(mv)), Some(txn)) = (ch.step.take(), ch.txn) else {
        return Ok(Vec::new());
    };
    let Batch { range, keys, .. } = std::mem::take(&mut ch.batch);
    let dst_pid = c.partition_on(mv.table, mv.to);
    if c.partitions[&dst_pid].top.prune(range).is_empty() {
        c.open_segment(mv.table, mv.to, dst_pid, range)?;
    }
    let src_pid = c.partition_on(mv.table, mv.from);
    for k in keys {
        let (Some(src), Some(dst)) = (
            c.partitions[&src_pid].top.segment_for(k),
            c.partitions[&dst_pid].top.segment_for(k),
        ) else {
            continue;
        };
        let Some(rec) = c.txn.read(txn, &c.indexes[&src], &c.store, k)? else {
            continue;
        };
        let index = c.indexes.get_mut(&src).ok_or(Error::UnknownSegment(src))?;
        match c.txn.delete(txn, index, &mut c.store, u32::MAX, k) {
            Err(Error::TxnAborted {
                reason: wattdb_common::error::AbortReason::WriteConflict,
                ..
            }) => continue,
            deleted => deleted?,
        }
        let width = rec.logical_width;
        let index = c.indexes.get_mut(&dst).ok_or(Error::UnknownSegment(dst))?;
        c.txn.insert(txn, index, &mut c.store, u32::MAX, k, width)?;
        // WAL on both ends: the delete's before-image, the insert's after.
        let image_bytes = width + 32;
        for (node, segment) in [(mv.from, src), (mv.to, dst)] {
            let change = LogPayload::Change {
                segment,
                image_bytes,
            };
            c.nodes[node.raw() as usize].log.append(txn, change);
        }
    }
    let locking = c.txn.mode() == CcMode::LockingRx;
    let last = range.end >= mv.range.end;
    let Some(ch) = chain_mut(&mut c.mover, chain) else {
        return Ok(Vec::new());
    };
    if last {
        ch.queue.pop_front();
        ch.cursor = None;
    }
    if locking && !last {
        // Keep the range's transaction (its locks and pending changes).
        return Ok(Vec::new());
    }
    ch.txn = None;
    let start = if locking { mv.range.start } else { range.start };
    let range = KeyRange::new(start, range.end);
    land(c, chain, txn, RangeMove { range, ..mv })
}

/// Land `mv.range` at `mv.to` and commit `txn`. A key still live at the
/// source (a user's uncommitted write skipped, or inserted since the pick)
/// keeps its route there and is queued again on its own; the rest routes to
/// the target, where each landed key is asserted to route to its segment.
fn land(c: &mut Cluster, chain: u64, txn: TxnId, mv: RangeMove) -> Result<Vec<Grant>> {
    let src = c.partition_on(mv.table, mv.from);
    let mut heads = Vec::new();
    for (seg, _) in c.partitions[&src].top.prune(mv.range) {
        c.indexes[&seg].visit_range(mv.range, |k, head| heads.push((k, head)));
    }
    let mut at = mv.range.start;
    for (k, head) in heads {
        let h = c.store.peek(head)?;
        // Gone: a committed tombstone, or the one this move just wrote.
        if h.is_tombstone() && !(is_provisional(h.begin) && owner(h.begin) != txn) {
            continue;
        }
        let slice = KeyRange::new(k, Key(k.raw() + 1));
        if at < k {
            c.router.complete_move(mv.table, KeyRange::new(at, k))?;
        }
        c.router.abort_move(mv.table, slice)?;
        at = slice.end;
        if let Some(ch) = chain_mut(&mut c.mover, chain) {
            ch.queue
                .push_back(Pending::Range(RangeMove { range: slice, ..mv }));
        }
    }
    if at < mv.range.end {
        c.router
            .complete_move(mv.table, KeyRange::new(at, mv.range.end))?;
    }
    let (dst, mut landed) = (c.partition_on(mv.table, mv.to), 0);
    for (seg, _) in c.partitions[&dst].top.prune(mv.range) {
        c.indexes[&seg].visit_range(mv.range, |k, _| {
            let home = c.home_of(mv.table, k).ok().flatten();
            assert_eq!(home.map(|(.., s)| s), Some(seg), "{k} lands off its route");
            landed += 1;
        });
    }
    if let Some(r) = c.mover.as_mut().and_then(|m| m.report.as_mut()) {
        r.records_moved += landed;
    }
    Ok(c.txn.commit(txn, &mut c.store)?.1)
}

/// The one rewind: abort the system transaction (under MGL-RX that undoes
/// every batch of the range so far), take back its second pointers, requeue
/// the step and retry shortly; the emptied target segments await the retry.
fn rewind(cl: &ClusterRc, sim: &mut Sim, chain: u64) {
    let grants = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let locking = c.txn.mode() == CcMode::LockingRx;
        let physiological = c.cfg.scheme == Scheme::Physiological;
        let Some(ch) = chain_mut(&mut c.mover, chain) else {
            return;
        };
        let (step, txn) = (ch.step.take(), ch.txn.take());
        let routed = match step {
            Some(Pending::Segment(mv)) => {
                ch.queue.push_front(Pending::Segment(mv));
                physiological.then_some((mv.table, mv.range))
            }
            Some(Pending::Range(mv)) => {
                let range = ch.batch.range;
                let start = if locking { mv.range.start } else { range.start };
                ch.cursor = Some(start);
                Some((mv.table, KeyRange::new(start, range.end)))
            }
            Some(Pending::Copy(_)) | None => None, // a copy takes no lock
        };
        if let Some((table, span)) = routed {
            c.router.abort_move(table, span).ok();
        }
        let grants = txn.map(|t| c.txn.abort(t, &mut c.indexes, &mut c.store));
        grants.and_then(|g| g.ok()).unwrap_or_default()
    };
    resume_grants(cl, sim, grants);
    let handle = cl.clone();
    sim.after(SimDuration::from_millis(20), move |sim| {
        next_step(&handle, sim, chain)
    });
}

fn maybe_finish(c: &mut Cluster, now: SimTime) {
    // Finished once every chain has drained.
    let Some(stats) = c.mover.take_if(|m| m.chains.iter().all(|ch| ch.done)) else {
        return;
    };
    // A controller started for follower copies alone ends here.
    let Some(report) = stats.report else {
        return;
    };
    let report = RebalanceReport {
        finished: now,
        ..report
    };
    c.metrics.rebalances.push(report);
    // Close the rebalance span with the realized counters next to the
    // planned ones set at launch.
    if let Some(ps) = stats.power_span {
        c.telemetry.spans.end(ps, now);
    }
    if let Some(span) = stats.span {
        for (key, value) in [
            ("segments_moved", report.segments_moved.into()),
            ("records_moved", report.records_moved.into()),
            ("bytes_moved", report.bytes_moved.into()),
            ("heat_moved", report.heat_moved.into()),
        ] {
            c.telemetry.spans.set_attr(span, key, value);
        }
        c.telemetry.spans.end(span, now);
    }
    // Helpers detach (Fig. 8: "after rebalancing, the additional nodes
    // should be turned off again").
    let helpers = c.helpers.nodes();
    crate::helpers::detach(c, &helpers, now);
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

/// Every node that is a source or target of the in-flight rebalance: its
/// queued moves and copies and its steps in flight. Empty when no mover is
/// running. Scale-in must never drain one of these nodes — the segment
/// directory understates what they will hold until the moves land.
pub fn nodes_in_flight(c: &Cluster) -> std::collections::BTreeSet<NodeId> {
    let mut busy = std::collections::BTreeSet::new();
    let chains = c.mover.iter().flat_map(|m| &m.chains);
    busy.extend(chains.flat_map(MoverChain::moves).flat_map(ends));
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
        assert_eq!(cl.borrow().helpers.helper_of(NodeId(0)), Some(NodeId(2)));
        // Mid-flight reassignment 0→3: the wire to helper 2 goes with it,
        // or node 0 would keep shipping to a helper nobody drains.
        attach_helpers(&cl, &mut sim, &[NodeId(0)], &[NodeId(3)]);
        {
            let c = cl.borrow();
            assert_eq!(c.helpers.helper_of(NodeId(0)), Some(NodeId(3)));
            assert_eq!(c.helpers.check_invariants(&c.nodes), None);
            // Both helpers are tracked until the full detach.
            assert_eq!(c.helpers.nodes(), vec![NodeId(2), NodeId(3)]);
        }
        let detached = detach_helpers(&cl, &mut sim);
        assert_eq!(detached, vec![NodeId(2), NodeId(3)]);
        let c = cl.borrow();
        assert_eq!(c.helpers.helper_of(NodeId(0)), None);
        assert_eq!(c.nodes[0].buffer.remote_capacity(), 0);
        assert!(c.helpers.is_empty());
        // Both helpers were standbys powered on for the duty: both return.
        assert_eq!(c.nodes[2].life, Lifecycle::Standby);
        assert_eq!(c.nodes[3].life, Lifecycle::Standby);
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
        assert!(c.helpers.is_empty());
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
    fn a_locking_deadlock_rewinds_every_batch_the_range_moved() {
        // Under MGL-RX one transaction spans a range's batches. A user
        // holding X on batch 2's first key while it waits on a batch-1 key
        // makes the mover the deadlock victim when batch 2 asks for that
        // key: aborting undoes batch 1's records, so its routing goes too;
        // its emptied target segment waits for the retry to refill it.
        let cl = Cluster::new(
            ClusterConfig {
                nodes: 4,
                segment_pages: 16,
                buffer_pages: 256,
                scheme: Scheme::Logical,
                cc_mode: CcMode::LockingRx,
                ..Default::default()
            },
            &[NodeId(0), NodeId(1)],
        );
        let tpcc = wattdb_tpcc::TpccConfig {
            warehouses: 2,
            density: 0.01,
            seed: 7,
        };
        cl.borrow_mut()
            .load_tpcc(tpcc, &[NodeId(0), NodeId(1)])
            .unwrap();
        let mut sim = Sim::new();
        let plan = ControlPlan::fraction(&cl.borrow(), sim.now(), 0.5, &[NodeId(0)], &[NodeId(2)]);
        run(&cl, &mut sim, plan);
        // Run until a range's batch 1 has applied: its transaction is held
        // between batches.
        let chain = |c: &Cluster| {
            c.mover
                .as_ref()
                .map(|m| (m.chains[0].txn, m.chains[0].cursor))
        };
        let between = |c: &Cluster| {
            (c.mover.as_ref())
                .is_some_and(|m| m.chains[0].txn.is_some() && m.chains[0].step.is_none())
        };
        while !between(&cl.borrow()) {
            assert!(sim.step(), "a range takes more than one batch");
        }
        let (user, mv, k1) = {
            let mut c = cl.borrow_mut();
            let c = &mut *c;
            let ch = &c.mover.as_ref().unwrap().chains[0];
            let (Some(Pending::Range(mv)), Some(k2)) = (ch.queue.front().copied(), ch.cursor)
            else {
                panic!("a range is under way");
            };
            let dst = c.partition_on(mv.table, NodeId(2));
            let landed = c.partitions[&dst].top.segment_for(mv.range.start).unwrap();
            let k1 = c.indexes[&landed].entries()[0].0;
            let user = c.txn.begin(TxnKind::User);
            let x = |k| LockTarget::Record(mv.table, k);
            assert_eq!(
                c.txn.locks.acquire(user, x(k2), LockMode::X),
                LockAcquire::Granted
            );
            assert_eq!(
                c.txn.locks.acquire(user, x(k1), LockMode::X),
                LockAcquire::Waiting
            );
            (user, mv, k1)
        };
        // Batch 2 asks for k2 and closes the cycle: the mover rewinds.
        while chain(&cl.borrow()).is_some_and(|(txn, _)| txn.is_some()) {
            assert!(sim.step(), "the mover rewinds");
        }
        {
            let c = cl.borrow();
            assert_eq!(
                chain(&c),
                Some((None, Some(mv.range.start))),
                "back to the range's start"
            );
            let route = c.router.route(mv.table, k1).unwrap();
            assert_eq!((route.primary.node, route.also), (NodeId(0), None));
            let dst = (c.partitions.values())
                .find(|p| p.node == NodeId(2) && p.table == mv.table)
                .expect("target partition");
            let opened = dst.top.prune(mv.range);
            assert!(!opened.is_empty(), "batch 1's target segment stays");
            assert!(
                opened.iter().all(|(seg, _)| c.indexes[seg].is_empty()),
                "target segments emptied for the retry"
            );
            c.check_reachable()
                .expect("batch 1's records are home again");
        }
        let grants = {
            let mut c = cl.borrow_mut();
            let c = &mut *c;
            c.txn.commit(user, &mut c.store).unwrap().1
        };
        resume_grants(&cl, &mut sim, grants);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(600));
        let c = cl.borrow();
        assert!(c.mover.is_none(), "the move completes after the rewind");
        c.check_reachable().expect("every key is where it routes");
        let landed: usize = (c.seg_dir.on_node(NodeId(2)))
            .map(|m| c.indexes[&m.id].len())
            .sum();
        let reported = c.metrics.rebalances.last().unwrap().records_moved;
        assert!(reported > 0);
        assert_eq!(landed as u64, reported, "the report counts what landed");
        assert!(
            (c.seg_dir.on_node(NodeId(2))).all(|m| !c.indexes[&m.id].is_empty()),
            "the retry refilled the segments the rewind emptied"
        );
    }
}
