//! Replay of query cost traces through the shared cluster resources.
//!
//! The query engine ([`wattdb_query`]) emits a [`CostTrace`] per plan;
//! a replay walks it over a cluster's CPUs, disks and NICs, so analytic
//! queries (Figs. 1/2, the examples, [`crate::scan`]) contend with
//! whatever else the cluster is doing. A replay is a cursor over its trace
//! in a recycled slot of `Cluster::replays`; each leg of a stage completes
//! with a [`Signal::Stage`] naming the slot (the last with the replay's
//! `done` itself), so a warm replay allocates nothing. A `Sim` driven by
//! hand needs [`crate::executor::install`] first.
//!
//! Sort workspaces go through a per-node memory broker: an oversubscribed
//! node spills — one write + one read of the workspace on its SSD — the
//! mechanism behind the offloading crossover of Fig. 2.

use std::collections::HashMap;

use wattdb_common::{ByteSize, NodeId, SimDuration};
use wattdb_net::Network;
use wattdb_query::{CostTrace, StageKind};
use wattdb_sim::{Completion, Resource, Signal, Sim};
use wattdb_storage::SimDisk;

use crate::cluster::{ClusterRc, NodeRuntime};

/// Per-node sort-memory broker: each node's limit (none: unlimited) and
/// the workspace reserved on it.
#[derive(Debug, Default)]
pub struct SortMemoryBroker {
    nodes: HashMap<NodeId, (u64, u64)>,
    /// Spills observed (diagnostics).
    pub spills: u64,
}

impl SortMemoryBroker {
    /// Set a node's sort memory.
    pub fn set_limit(&mut self, node: NodeId, bytes: u64) {
        self.nodes.entry(node).or_insert((u64::MAX, 0)).0 = bytes;
    }

    /// Reserve workspace; returns true if it fits in memory, false if the
    /// sort must spill.
    pub fn reserve(&mut self, node: NodeId, bytes: u64) -> bool {
        let (limit, used) = self.nodes.entry(node).or_insert((u64::MAX, 0));
        let fits = *used + bytes <= *limit;
        *used += if fits { bytes } else { 0 };
        self.spills += u64::from(!fits);
        fits
    }

    /// Release a previously fitting workspace.
    pub fn release(&mut self, node: NodeId, bytes: u64) {
        if let Some((_, used)) = self.nodes.get_mut(&node) {
            *used = used.saturating_sub(bytes);
        }
    }
}

/// Trace replays in flight, each a cursor over its trace in a recycled
/// slot; the sort memory they share; and the GroupAgg scratch of the
/// scans that fill them.
#[derive(Default)]
pub struct Replays {
    slots: Vec<Replay>,
    vacant: Vec<u32>,
    /// The cluster's sort-memory broker.
    pub broker: SortMemoryBroker,
    pub(crate) groups: Vec<(i64, i64)>,
}

/// One replay: its trace, the stages started, the call latency its
/// transfer in flight pays once delivered, and what its last stage
/// completes.
#[derive(Default)]
struct Replay {
    trace: CostTrace,
    next: usize,
    latency: SimDuration,
    done: Option<Completion>,
}

/// Legs of a stage in flight ([`Signal::Stage`]): it is done (or none has
/// started); its transfer is delivered; its sort's CPU is done and the
/// sort spills, or holds its workspace.
const DONE: u8 = 0;
const DELIVERED: u8 = 1;
const SPILL: u8 = 2;
const RELEASE: u8 = 3;

impl Replays {
    /// Open a slot for a replay; returns it, its empty trace to fill and
    /// the GroupAgg scratch to fill it with.
    pub(crate) fn open(&mut self, done: Completion) -> (u32, &mut CostTrace, &mut Vec<(i64, i64)>) {
        let slot = self.vacant.pop().unwrap_or_else(|| {
            self.slots.push(Replay::default());
            self.slots.len() as u32 - 1
        });
        let r = &mut self.slots[slot as usize];
        (r.next, r.done) = (0, Some(done));
        r.trace.stages.clear();
        (slot, &mut r.trace, &mut self.groups)
    }

    /// What a stage's last leg completes: the replay's next stage or, after
    /// its last, its `done`, vacating the slot.
    fn then(&mut self, slot: u32) -> Completion {
        let r = &mut self.slots[slot as usize];
        if r.next < r.trace.stages.len() {
            return Signal::Stage { slot, leg: DONE }.into();
        }
        self.vacant.push(slot);
        r.done.take().unwrap_or(Completion::Detached)
    }
}

/// Replay `trace` against the cluster; the last stage completes with
/// `done` (a caller that times the replay notes its own start).
pub fn replay_trace(cl: &ClusterRc, sim: &mut Sim, trace: CostTrace, done: Completion) {
    let slot = {
        let mut c = cl.borrow_mut();
        let (slot, slot_trace, _) = c.replays.open(done);
        *slot_trace = trace;
        slot
    };
    advance(cl, sim, slot, DONE);
}

/// Leg `leg` of replay `slot`'s stage in flight is done ([`Signal::Stage`]).
pub(crate) fn advance(cl: &ClusterRc, sim: &mut Sim, slot: u32, leg: u8) {
    let done = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        step((&mut c.replays, &mut c.nodes, &c.net), sim, slot, leg)
    };
    if let Some(done) = done {
        sim.complete(done);
    }
}

/// Go on with replay `slot` after leg `leg` of its stage in flight.
/// Returns the replay's `done` once its trace has ended, for the caller
/// to complete after letting go of the cluster.
pub(crate) fn step(
    (replays, nodes, net): (&mut Replays, &mut [NodeRuntime], &Network),
    sim: &mut Sim,
    slot: u32,
    leg: u8,
) -> Option<Completion> {
    let on_leg = |leg| Completion::from(Signal::Stage { slot, leg });
    let r = &mut replays.slots[slot as usize];
    if leg == DELIVERED {
        sim.post_after(r.latency, replays.then(slot));
        return None;
    }
    if let (SPILL | RELEASE, Some(i)) = (leg, r.next.checked_sub(1)) {
        let (on, kind) = (r.trace.stages[i].on, r.trace.stages[i].kind);
        let StageKind::SortWorkspace { bytes, .. } = kind else {
            unreachable!("only a sort spills or holds a workspace")
        };
        if leg == RELEASE {
            replays.broker.release(on, bytes);
        } else {
            // Spill: write + read the workspace after the sort CPU.
            let spill = ByteSize::bytes(bytes * 2);
            scratch_disk(nodes, on).bulk_transfer(sim, spill, on_leg(DONE));
            return None;
        }
    }
    let Some(&stage) = r.trace.stages.get(r.next) else {
        return Some(replays.then(slot));
    };
    r.next += 1;
    let cpu = &nodes[stage.on.raw() as usize].cpu;
    match stage.kind {
        StageKind::Cpu { dur } => {
            Resource::submit(cpu, sim, dur, replays.then(slot));
        }
        StageKind::PageReads { pages } => {
            let bytes = ByteSize::bytes(pages * wattdb_storage::PAGE_SIZE as u64);
            scratch_disk(nodes, stage.on).bulk_transfer(sim, bytes, replays.then(slot));
        }
        StageKind::NetTransfer {
            from,
            to,
            bytes,
            calls,
            overlapped,
        } => {
            // Per-call round-trip latency plus serialization; a buffering
            // operator's prefetch hides everything but one call's latency
            // and the bandwidth floor.
            let rtt = net.spec().hop_latency.as_micros() * 2;
            r.latency = SimDuration::from_micros(rtt * if overlapped { 1 } else { calls });
            net.send(sim, from, to, ByteSize::bytes(bytes), on_leg(DELIVERED));
        }
        StageKind::SortWorkspace { bytes, cpu: dur } => {
            let fits = replays.broker.reserve(stage.on, bytes);
            Resource::submit(cpu, sim, dur, on_leg(if fits { RELEASE } else { SPILL }));
        }
    }
    None
}

/// The drive a node's scans and spills use: its first SSD.
fn scratch_disk(nodes: &mut [NodeRuntime], on: NodeId) -> &mut SimDisk {
    let disks = &mut nodes[on.raw() as usize].disks;
    let ssd = usize::from(disks.len() > 1);
    &mut disks[ssd]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use std::cell::RefCell;
    use std::rc::Rc;
    use wattdb_common::CostParams;
    use wattdb_query::{execute, ExecConfig, PlanNode, SyntheticTable};

    fn cluster() -> ClusterRc {
        Cluster::new(
            ClusterConfig {
                nodes: 3,
                buffer_pages: 128,
                ..Default::default()
            },
            &[NodeId(0), NodeId(1), NodeId(2)],
        )
    }

    fn run_plan(plan: &PlanNode, batch: u64) -> SimDuration {
        let (_, trace) = execute(
            plan,
            &CostParams::default(),
            &ExecConfig {
                batch_size: batch,
                ..Default::default()
            },
        );
        let cl = cluster();
        let mut sim = Sim::new();
        crate::executor::install(&cl, &mut sim);
        let out: Rc<RefCell<Option<SimDuration>>> = Rc::new(RefCell::new(None));
        let (o, started) = (out.clone(), sim.now());
        let done = Completion::call(move |sim| *o.borrow_mut() = Some(sim.now().since(started)));
        replay_trace(&cl, &mut sim, trace, done);
        sim.run_to_completion();
        let d = out.borrow().expect("trace completed");
        d
    }

    fn scan(n: u64, on: u16) -> PlanNode<'static> {
        PlanNode::Scan {
            source: Box::new(SyntheticTable::new(n, 100, 100)),
            on: NodeId(on),
        }
    }

    #[test]
    fn local_faster_than_remote_single_record() {
        let local = PlanNode::Project {
            input: Box::new(scan(2000, 1)),
            keep_width: 50,
            on: NodeId(1),
        };
        let remote = PlanNode::Project {
            input: Box::new(scan(2000, 1)),
            keep_width: 50,
            on: NodeId(2),
        };
        let t_local = run_plan(&local, 1);
        let t_remote = run_plan(&remote, 1);
        assert!(
            t_remote.as_micros() > t_local.as_micros() * 10,
            "single-record remote must collapse: local={t_local} remote={t_remote}"
        );
    }

    #[test]
    fn vectorization_rescues_remote_placement() {
        let remote = PlanNode::Project {
            input: Box::new(scan(2000, 1)),
            keep_width: 50,
            on: NodeId(2),
        };
        let t1 = run_plan(&remote, 1);
        let t128 = run_plan(&remote, 128);
        assert!(
            t128.as_micros() * 5 < t1.as_micros(),
            "batching amortizes round trips: {t1} vs {t128}"
        );
    }

    #[test]
    fn buffering_operator_hides_latency_further() {
        let plain = PlanNode::Project {
            input: Box::new(scan(2000, 1)),
            keep_width: 50,
            on: NodeId(2),
        };
        let buffered = PlanNode::Project {
            input: Box::new(PlanNode::Buffer {
                input: Box::new(scan(2000, 1)),
            }),
            keep_width: 50,
            on: NodeId(2),
        };
        let t_plain = run_plan(&plain, 128);
        let t_buf = run_plan(&buffered, 128);
        assert!(t_buf < t_plain, "prefetch helps: {t_buf} vs {t_plain}");
    }

    #[test]
    fn sort_spills_when_memory_oversubscribed() {
        let cl = cluster();
        let mut sim = Sim::new();
        crate::executor::install(&cl, &mut sim);
        cl.borrow_mut().replays.broker.set_limit(NodeId(1), 50_000);
        // Two concurrent sorts of ~100 KB each: the second spills.
        for _ in 0..2 {
            let plan = PlanNode::Sort {
                input: Box::new(scan(1000, 1)),
                on: NodeId(1),
            };
            let (_, trace) = execute(&plan, &CostParams::default(), &ExecConfig::default());
            replay_trace(&cl, &mut sim, trace, Completion::Detached);
        }
        sim.run_to_completion();
        assert!(cl.borrow().replays.broker.spills >= 1);
    }
}
