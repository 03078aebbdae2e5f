//! Failover: re-covering the key space after a node loss.
//!
//! The paper's cluster keeps a single copy of every segment, so §3's
//! master can only *move* data off a node that is still alive. With
//! per-segment replication ([`crate::replication`]) a node loss becomes
//! survivable: every tracked segment the dead node owned in the catalog —
//! a segment's leader is its catalog node — is handed to its
//! **most-caught-up follower** (highest acknowledged LSN on the dead
//! leader's shipping cursors — the candidate that loses the least
//! committed history), the master's routing re-points, and the heat-aware
//! planner schedules fresh followers to restore the replication factor.
//!
//! The ownership switch *is* the §4.3 physiological protocol's final step
//! — master first, then [`Cluster::hand_over`], the routine the mover
//! uses — but ships no bytes: the follower already holds the segment via
//! log shipping. Only *re-replication* (new followers for the now
//! under-replicated segments) copies data, and every follower copy —
//! failover re-replication, background repair, a drain's re-homes, the
//! mover's backfill — is a step on a mover chain: read off the leader's
//! disk while it crosses the wire, like a segment move, and landed only
//! if its source and host survived and the host is still active.

use wattdb_common::{NodeId, SegmentId, SimTime};
use wattdb_sim::Sim;
use wattdb_telemetry::{AttrValue, SpanId};

use crate::cluster::{Cluster, ClusterRc};
use crate::migration::{next_step, FollowerCopy};
use crate::replication;

/// Promote a follower for every tracked segment the failed node owned,
/// re-pointing routing and the catalog at the winners. Returns `(segment,
/// new leader)` per promotion, in segment order. The failed node must
/// already be marked via [`Cluster::fail_node`].
pub fn promote_orphans(c: &mut Cluster, now: SimTime, failed: NodeId) -> Vec<(SegmentId, NodeId)> {
    let orphaned = replication::orphans(c, failed);
    let mut promotions = Vec::new();
    for seg in orphaned {
        let follower_winner = c.replication.winner(seg, failed, &c.nodes);
        // Every follower died with the leader: fall back to the coldest
        // live node (an archive-rebuild stand-in — the sim's record store
        // survives node death, so re-pointing ownership suffices).
        let winner = follower_winner.or_else(|| coldest_live(c, now, failed));
        let Some(winner) = winner else {
            continue; // no live node at all: nothing to re-cover onto
        };
        // Find the partition (and key range) the segment serves on the
        // dead node: the catalog and the top indexes hand over together.
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
        // A follower winner keeps its siblings; a rebuilt segment does not.
        let keep = follower_winner.is_some();
        replication::follow_owner(c, seg, winner, keep);
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

/// Queue one follower copy per `(segment, host, attrs)` on its leader's
/// mover chain ([`crate::migration::MoveController::queue_copy`]), under a
/// controller for copies alone when none runs, each logged as `event` on
/// `span` with the segment, `attrs` and its bytes; then start every chain
/// that was idle.
fn queue_copies(
    cl: &ClusterRc,
    sim: &mut Sim,
    span: Option<SpanId>,
    event: &str,
    copies: impl IntoIterator<Item = (SegmentId, NodeId, Vec<(String, AttrValue)>)>,
) {
    let mut idle = Vec::new();
    {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        for (seg, to, named) in copies {
            // An untracked segment gets no copy; a tracked one's leader is its catalog node.
            let tracked = c.replication.followers(seg).and(c.seg_dir.get(seg).ok());
            let (Ok(bytes), Some(from)) = (c.copy_bytes(seg), tracked.map(|m| m.node)) else {
                continue;
            };
            let copy = FollowerCopy {
                seg,
                from,
                to,
                bytes,
            };
            idle.extend(
                c.mover
                    .get_or_insert_with(Default::default)
                    .queue_copy(copy),
            );
            if let Some(span) = span {
                let mut attrs = vec![("segment".into(), AttrValue::U64(seg.raw()))];
                attrs.extend(named);
                attrs.push(("bytes".into(), bytes.into()));
                c.telemetry.spans.add_event(span, sim.now(), event, attrs);
            }
        }
    }
    for chain in idle {
        next_step(cl, sim, chain);
    }
}

/// Restore the replication factor: ask the heat-aware planner for fresh
/// follower placements and queue each copy on a mover chain. A copy
/// joins the map only if its source and host survived and the host is
/// still active when it lands.
pub fn schedule_rereplication(cl: &ClusterRc, sim: &mut Sim) {
    let (plan, span) = {
        let c = cl.borrow();
        (crate::heat::plan_replicas(&c, sim.now()), c.failover_span)
    };
    let copies = plan.placements.iter().flat_map(|p| {
        let named = |f: NodeId| vec![("follower".into(), f.to_string().into())];
        p.followers.iter().map(move |&f| (p.seg, f, named(f)))
    });
    queue_copies(cl, sim, span, "re-replicate", copies);
}

/// Execute a drain's planned follower re-homes: each copy on a draining
/// node leaves the map immediately (the node must be empty of replica
/// duty before it may suspend) and a replacement copy is queued on a
/// mover chain — behind the segment's leader move when the drain moves
/// it, so it ships from the post-move leader.
pub fn schedule_follower_rehomes(
    cl: &ClusterRc,
    sim: &mut Sim,
    rehomes: &[wattdb_planner::FollowerRehome],
) {
    // Re-homed-follower events land on the drain's rebalance span so the
    // exported timeline shows the drain as one atomic "move leaders +
    // re-home followers" account.
    let span = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let copies = rehomes.iter().map(|r| (r.seg, r.from));
        replication::remove_followers(c, copies);
        c.mover.as_ref().and_then(|m| m.span)
    };
    let copies = rehomes.iter().map(|r| {
        let named = [("from", r.from), ("to", r.to)];
        let named = named.map(|(k, n)| (k.into(), n.to_string().into()));
        (r.seg, r.to, named.into())
    });
    queue_copies(cl, sim, span, "re-home", copies);
}

/// Full failover for one dead node: promote every segment it led, erase
/// it from all follower sets, re-wire shipping cursors, and schedule
/// re-replication for whatever is now under-replicated (both its led
/// segments, which lost their promotee as a follower, and segments it
/// merely followed).
pub fn handle_failure(cl: &ClusterRc, sim: &mut Sim, failed: NodeId) {
    {
        let c = &mut *cl.borrow_mut();
        let promotions = promote_orphans(c, sim.now(), failed);
        let followed = c.replication.followed_by(failed);
        replication::remove_followers(c, followed.into_iter().map(|s| (s, failed)));
        if let Some(span) = c.failover_span {
            for &(seg, winner) in &promotions {
                let attrs = vec![
                    ("segment".into(), AttrValue::U64(seg.raw())),
                    ("leader".into(), winner.to_string().into()),
                ];
                c.telemetry
                    .spans
                    .add_event(span, sim.now(), "promote", attrs);
            }
            c.telemetry
                .spans
                .set_attr(span, "promotions", promotions.len().into());
        }
    }
    schedule_rereplication(cl, sim);
}
