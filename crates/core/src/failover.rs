//! Failover: re-covering the key space after a node loss.
//!
//! The paper's cluster keeps a single copy of every segment, so §3's
//! master can only *move* data off a node that is still alive. With
//! per-segment replication ([`wattdb_replica`]) a node loss becomes
//! survivable: every segment the dead node led is handed to its
//! **most-caught-up follower** (highest acknowledged LSN on the dead
//! leader's shipping cursors — the candidate that loses the least
//! committed history), the master's routing re-points, and the heat-aware
//! planner schedules fresh followers to restore the replication factor.
//!
//! The ownership switch *is* the §4.3 physiological protocol's final step
//! — master first, then [`Cluster::hand_over`], the routine the mover
//! uses — but ships no bytes: the follower already holds the segment via
//! log shipping. Only *re-replication* (new followers for the now
//! under-replicated segments) pays wire time, and every follower copy —
//! failover backfill, background repair, a drain's re-homes — is shipped
//! by one routine, `ship_copy`, which owns the in-flight counter and the
//! void-on-death rule; its callers add only the predicate that really
//! differs and their own span event.

use wattdb_common::{ByteSize, Lsn, NodeId, SegmentId, SimTime};
use wattdb_sim::{Completion, Sim};

use crate::cluster::{Cluster, ClusterRc, Lifecycle};

/// Promote a follower for every segment the failed node led, re-pointing
/// routing and placement at the winners. Returns `(segment, new leader)`
/// per promotion, in segment order. The failed node must already be
/// marked via [`Cluster::fail_node`].
pub fn promote_orphans(c: &mut Cluster, now: SimTime, failed: NodeId) -> Vec<(SegmentId, NodeId)> {
    let orphaned = c.replicas.led_by(failed);
    let mut promotions = Vec::new();
    for seg in orphaned {
        // Most-caught-up live follower, per the dead leader's own shipping
        // cursors (they survive `fail_node` for exactly this read).
        let candidates: Vec<(NodeId, Lsn)> = c
            .replicas
            .followers_of(seg)
            .iter()
            .filter(|&&f| !c.is_failed(f))
            .map(|&f| {
                let acked = c.nodes[failed.raw() as usize]
                    .replica_shipper
                    .acked_lsn(f)
                    .unwrap_or(Lsn::ZERO);
                (f, acked)
            })
            .collect();
        let follower_winner = wattdb_replica::pick_promotion(&candidates);
        // Every follower died with the leader: fall back to the coldest
        // live node (an archive-rebuild stand-in — the sim's record store
        // survives node death, so re-pointing ownership suffices).
        let winner = follower_winner.or_else(|| coldest_live(c, now, failed));
        let Some(winner) = winner else {
            continue; // no live node at all: nothing to re-cover onto
        };
        // Find the partition (and key range) the segment serves on the
        // dead node.
        let Some((src_pid, table, range)) = c.partitions.values().find_map(|p| {
            if p.node != failed {
                return None;
            }
            p.top
                .segments()
                .into_iter()
                .find(|(s, _)| *s == seg)
                .map(|(_, r)| (p.id, p.table, r))
        }) else {
            // The map is stale: the segment no longer lives on the dead
            // node (a migration landed it elsewhere before the failure
            // was noticed). Re-point the map at the actual owner so
            // detection converges instead of re-firing every window.
            match c.seg_dir.get(seg).ok() {
                Some(meta) if meta.node != failed => c.replicas.set_leader(seg, meta.node),
                _ => c.replicas.remove(seg),
            }
            continue;
        };
        // §4.3-style ownership switch, master first. A migration that died
        // mid-flight may still hold its dual pointer for this range: roll
        // it back before re-pointing.
        let dst_pid = c.partition_on(table, winner);
        if c.router.begin_move(table, range, dst_pid, winner).is_err() {
            c.router.abort_move(table, range).ok();
            c.router
                .begin_move(table, range, dst_pid, winner)
                .expect("re-point after rollback");
        }
        c.hand_over(seg, table, range, src_pid, winner)
            .expect("promotion hand-over");
        if follower_winner.is_some() {
            c.replicas.promote(seg, winner);
        } else {
            // Rebuilt from scratch: the old set is history.
            c.replicas.set(seg, winner, Vec::new());
        }
        // The new leader's log is now the segment's staleness reference.
        let lsn = c.nodes[winner.raw() as usize].log.last_lsn();
        c.seg_last_write.insert(seg, lsn);
        promotions.push((seg, winner));
    }
    promotions
}

/// Coldest live active node — the archive-rebuild fallback target.
fn coldest_live(c: &Cluster, now: SimTime, failed: NodeId) -> Option<NodeId> {
    c.nodes
        .iter()
        .filter(|n| n.id != failed && n.life.is_up())
        .map(|n| (n.id, c.heat.node_heat(&c.seg_dir, n.id, now).value()))
        .min_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        })
        .map(|(n, _)| n)
}

/// Ship one follower copy of `seg` from `leader` to `to`. The follower
/// joins the map (and the leader's shipping cursors) only when its bytes
/// land, and only if the host is then still serving and not draining and
/// the caller's `void` predicate — what else would make this particular
/// copy meaningless — does not hold. Owns the in-flight counter the
/// autopilot's background repair waits on: whatever a voided copy leaves
/// under-replicated is re-planned there, the single reconciliation
/// point. Returns the bytes put on the wire, `None` (nothing scheduled)
/// when the segment is unknown.
fn ship_copy(
    cl: &ClusterRc,
    sim: &mut Sim,
    seg: SegmentId,
    leader: NodeId,
    to: NodeId,
    void: impl Fn(&Cluster) -> bool + 'static,
) -> Option<u64> {
    let bytes = cl.borrow().copy_bytes(seg).ok()?;
    let handle = cl.clone();
    let done = Completion::call(move |_sim| {
        let mut c = handle.borrow_mut();
        c.rereplication_inflight = c.rereplication_inflight.saturating_sub(1);
        if c.life(to) != Lifecycle::Active || void(&c) {
            return;
        }
        c.replicas.add_follower(seg, to);
        c.rereplication_bytes += bytes;
        c.sync_replica_cursors();
    });
    cl.borrow_mut().rereplication_inflight += 1;
    cl.borrow()
        .net
        .send(sim, leader, to, ByteSize::bytes(bytes), done);
    Some(bytes)
}

/// Restore the replication factor: ask the heat-aware planner for fresh
/// follower placements and ship each segment's footprint to its new host
/// over the wire (`ship_copy`); a leader that dies or loses leadership
/// in the meantime voids the delivery. Returns the number of copies
/// scheduled.
pub fn schedule_rereplication(cl: &ClusterRc, sim: &mut Sim) -> usize {
    let plan = {
        let c = cl.borrow();
        crate::heat::plan_replicas(&c, sim.now())
    };
    let mut scheduled = 0;
    for p in &plan.placements {
        let (seg, leader) = (p.seg, p.leader);
        for &f in &p.followers {
            let void =
                move |c: &Cluster| c.is_failed(leader) || c.replicas.leader_of(seg) != Some(leader);
            let Some(bytes) = ship_copy(cl, sim, seg, leader, f, void) else {
                continue;
            };
            let mut c = cl.borrow_mut();
            let c = &mut *c;
            if let Some(span) = c.failover_span {
                c.telemetry.spans.add_event(
                    span,
                    sim.now(),
                    "re-replicate",
                    vec![
                        (
                            "segment".into(),
                            wattdb_telemetry::AttrValue::U64(seg.raw()),
                        ),
                        ("follower".into(), f.to_string().into()),
                        ("bytes".into(), bytes.into()),
                    ],
                );
            }
            scheduled += 1;
        }
    }
    scheduled
}

/// Execute a drain's planned follower re-homes: each copy on a draining
/// node leaves the map immediately (the node must be empty of replica
/// duty before it may suspend) and a replacement copy ships from the
/// segment's leader to the planned host (`ship_copy`); it is void if
/// the segment's leadership ended up on the planned host (a leader is
/// never its own follower). Returns the number of copies scheduled.
pub fn schedule_follower_rehomes(
    cl: &ClusterRc,
    sim: &mut Sim,
    rehomes: &[wattdb_planner::FollowerRehome],
) -> usize {
    {
        let mut c = cl.borrow_mut();
        for r in rehomes {
            c.replicas.remove_follower(r.seg, r.from);
        }
        c.sync_replica_cursors();
    }
    let mut scheduled = 0;
    for r in rehomes {
        let (seg, from, to) = (r.seg, r.from, r.to);
        // Ship from the segment's *current* leader: the planned leader may
        // not have landed yet (the drain's leader moves are still in
        // flight), and the copy must come from a live log.
        let Some(leader) = cl.borrow().replicas.leader_of(seg) else {
            continue;
        };
        let void = move |c: &Cluster| c.replicas.leader_of(seg) == Some(to);
        let Some(bytes) = ship_copy(cl, sim, seg, leader, to, void) else {
            continue;
        };
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        // Re-homed-follower events land on the drain's rebalance span
        // so the exported timeline shows the drain as one atomic
        // "move leaders + re-home followers" account.
        if let Some(span) = c.mover.as_ref().and_then(|m| m.span) {
            c.telemetry.spans.add_event(
                span,
                sim.now(),
                "re-home",
                vec![
                    (
                        "segment".into(),
                        wattdb_telemetry::AttrValue::U64(seg.raw()),
                    ),
                    ("from".into(), from.to_string().into()),
                    ("to".into(), to.to_string().into()),
                    ("bytes".into(), bytes.into()),
                ],
            );
        }
        scheduled += 1;
    }
    scheduled
}

/// Full failover for one dead node: promote every segment it led, erase
/// it from all follower sets, re-wire shipping cursors, and schedule
/// re-replication for whatever is now under-replicated (both its led
/// segments, which lost their promotee as a follower, and segments it
/// merely followed). Returns the promotions performed.
pub fn handle_failure(cl: &ClusterRc, sim: &mut Sim, failed: NodeId) -> Vec<(SegmentId, NodeId)> {
    let promotions = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let promotions = promote_orphans(c, sim.now(), failed);
        c.replicas.drop_follower_node(failed);
        c.sync_replica_cursors();
        if let Some(span) = c.failover_span {
            for &(seg, winner) in &promotions {
                c.telemetry.spans.add_event(
                    span,
                    sim.now(),
                    "promote",
                    vec![
                        (
                            "segment".into(),
                            wattdb_telemetry::AttrValue::U64(seg.raw()),
                        ),
                        ("leader".into(), winner.to_string().into()),
                    ],
                );
            }
            c.telemetry
                .spans
                .set_attr(span, "promotions", promotions.len().into());
        }
        promotions
    };
    schedule_rereplication(cl, sim);
    promotions
}
