//! Replay of query cost traces through the shared cluster resources.
//!
//! The query engine ([`wattdb_query`]) executes plans functionally and
//! emits a [`CostTrace`]. This module turns a trace into a chain of
//! simulator actions over a cluster's CPUs, disks, and NICs, so analytic
//! queries (the Fig. 1/2 micro-benchmarks and the examples) contend with
//! whatever else the cluster is doing.
//!
//! Sort workspaces go through a per-node memory broker: when concurrent
//! sorts oversubscribe a node's sort memory, the overflow spills — one
//! write + one read of the workspace on the node's SSD — which is exactly
//! the mechanism behind the offloading crossover of Fig. 2.

use std::collections::HashMap;

use wattdb_common::{ByteSize, NodeId, SimDuration, SimTime};
use wattdb_query::{CostTrace, StageKind};
use wattdb_sim::{Completion, Resource, Sim};

use crate::cluster::ClusterRc;

/// Per-node sort-memory broker.
#[derive(Debug, Default)]
pub struct SortMemoryBroker {
    limits: HashMap<NodeId, u64>,
    in_use: HashMap<NodeId, u64>,
    /// Spills observed (diagnostics).
    pub spills: u64,
}

impl SortMemoryBroker {
    /// Set a node's sort memory.
    pub fn set_limit(&mut self, node: NodeId, bytes: u64) {
        self.limits.insert(node, bytes);
    }

    /// Reserve workspace; returns true if it fits in memory, false if the
    /// sort must spill.
    pub fn reserve(&mut self, node: NodeId, bytes: u64) -> bool {
        let limit = self.limits.get(&node).copied().unwrap_or(u64::MAX);
        let used = self.in_use.entry(node).or_insert(0);
        if *used + bytes <= limit {
            *used += bytes;
            true
        } else {
            self.spills += 1;
            false
        }
    }

    /// Release a previously fitting workspace.
    pub fn release(&mut self, node: NodeId, bytes: u64) {
        if let Some(used) = self.in_use.get_mut(&node) {
            *used = used.saturating_sub(bytes);
        }
    }
}

/// Replay `trace` against the cluster; `done(sim, started)` fires when the
/// last stage completes.
pub fn replay_trace(
    cl: &ClusterRc,
    sim: &mut Sim,
    trace: CostTrace,
    broker: std::rc::Rc<std::cell::RefCell<SortMemoryBroker>>,
    done: impl FnOnce(&mut Sim, SimTime) + 'static,
) {
    let started = sim.now();
    run_stage(
        cl.clone(),
        sim,
        trace,
        0,
        broker,
        Completion::call(move |sim| done(sim, started)),
    );
}

fn run_stage(
    cl: ClusterRc,
    sim: &mut Sim,
    trace: CostTrace,
    idx: usize,
    broker: std::rc::Rc<std::cell::RefCell<SortMemoryBroker>>,
    done: Completion,
) {
    if idx >= trace.stages.len() {
        sim.complete(done);
        return;
    }
    let stage = trace.stages[idx];
    let next = {
        let cl2 = cl.clone();
        let broker2 = broker.clone();
        Completion::call(move |sim| run_stage(cl2, sim, trace, idx + 1, broker2, done))
    };
    match stage.kind {
        StageKind::Cpu { dur } => {
            let cpu = cl.borrow().nodes[stage.on.raw() as usize].cpu.clone();
            Resource::submit(&cpu, sim, dur, next);
        }
        StageKind::PageReads { pages } => {
            // Bulk sequential scan I/O on the node's first SSD.
            let bytes = pages * wattdb_storage::PAGE_SIZE as u64;
            let mut c = cl.borrow_mut();
            let n_disks = c.nodes[stage.on.raw() as usize].disks.len();
            let disk = if n_disks > 1 { 1 } else { 0 };
            c.nodes[stage.on.raw() as usize].disks[disk].bulk_transfer(
                sim,
                ByteSize::bytes(bytes),
                next,
            );
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
            let hop = cl.borrow().net.spec().hop_latency;
            let rtt = SimDuration::from_micros(hop.as_micros() * 2);
            let latency_calls = if overlapped { 1 } else { calls };
            let latency = SimDuration::from_micros(rtt.as_micros() * latency_calls);
            let c = cl.borrow();
            let deliver = Completion::call(move |sim| sim.post_after(latency, next));
            c.net.send(sim, from, to, ByteSize::bytes(bytes), deliver);
        }
        StageKind::SortWorkspace { bytes, cpu } => {
            let node = stage.on;
            let fits = broker.borrow_mut().reserve(node, bytes);
            let cpu_res = cl.borrow().nodes[node.raw() as usize].cpu.clone();
            let release = {
                let broker3 = broker.clone();
                Completion::call(move |sim| {
                    if fits {
                        broker3.borrow_mut().release(node, bytes);
                    }
                    sim.complete(next);
                })
            };
            if fits {
                Resource::submit(&cpu_res, sim, cpu, release);
            } else {
                // Spill: write + read the workspace around the sort CPU.
                let cl2 = cl.clone();
                let after_cpu = Completion::call(move |sim| {
                    let mut c = cl2.borrow_mut();
                    let n_disks = c.nodes[node.raw() as usize].disks.len();
                    let disk = if n_disks > 1 { 1 } else { 0 };
                    c.nodes[node.raw() as usize].disks[disk].bulk_transfer(
                        sim,
                        ByteSize::bytes(bytes * 2),
                        release,
                    );
                });
                Resource::submit(&cpu_res, sim, cpu, after_cpu);
            }
        }
    }
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
        let broker = Rc::new(RefCell::new(SortMemoryBroker::default()));
        let out: Rc<RefCell<Option<SimDuration>>> = Rc::new(RefCell::new(None));
        let o = out.clone();
        replay_trace(&cl, &mut sim, trace, broker, move |sim, started| {
            *o.borrow_mut() = Some(sim.now().since(started));
        });
        sim.run_to_completion();
        let d = out.borrow().expect("trace completed");
        d
    }

    fn scan(n: u64, on: u16) -> PlanNode {
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
        let broker = Rc::new(RefCell::new(SortMemoryBroker::default()));
        broker.borrow_mut().set_limit(NodeId(1), 50_000);
        // Two concurrent sorts of ~100 KB each: the second spills.
        for _ in 0..2 {
            let plan = PlanNode::Sort {
                input: Box::new(scan(1000, 1)),
                on: NodeId(1),
            };
            let (_, trace) = execute(&plan, &CostParams::default(), &ExecConfig::default());
            replay_trace(&cl, &mut sim, trace, broker.clone(), |_, _| {});
        }
        sim.run_to_completion();
        assert!(broker.borrow().spills >= 1);
    }
}
