//! The bulk paths as they were while each step boxed its continuation:
//! a network message's chunks chained by closures
//! (`wattdb_net::network::stream`), a drive's bulk transfer likewise
//! (`wattdb_storage::disk::stream_chunks`), and a query trace replayed
//! stage by stage with a closure per stage, transfer latency and sort
//! release (`wattdb_core::replay::run_stage`, with its own
//! `SortMemoryBroker`). Test-only reference: the kernel's chunked
//! transfer and the slot-held replay cursor must complete every transfer
//! and every replay at the same instant, in the same order.
//!
//! The two changes: the streams take bare resources instead of a
//! `Network`'s private links or a `SimDisk`, and the replay reaches the
//! wire through `Network::send` (whose links only it can reach) while its
//! drive I/O goes through [`stream_chunks`] here.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use wattdb_common::{ByteSize, DiskSpec, NetworkSpec, NodeId, SimDuration};
use wattdb_core::ClusterRc;
use wattdb_query::{CostTrace, StageKind};
use wattdb_sim::{Completion, Resource, ResourceHandle, Sim};

/// `remaining` bytes over the dual-occupancy links, a 2 MiB chunk at a
/// time; each later chunk is chained from its predecessor's completion.
/// The hop latency is paid once per message, by its last chunk.
pub fn stream(
    tx: &ResourceHandle,
    rx: &ResourceHandle,
    spec: NetworkSpec,
    sim: &mut Sim,
    remaining: u64,
    done: Completion,
) {
    const CHUNK: u64 = 2 * 1024 * 1024;
    let this = ByteSize::bytes(remaining.min(CHUNK));
    let rest = remaining - this.as_u64();
    let wire = this.transfer_time(spec.bandwidth);
    if rest == 0 {
        Resource::submit_pair(tx, rx, sim, wire, spec.hop_latency, done);
        return;
    }
    let (tx2, rx2) = (tx.clone(), rx.clone());
    let chain = Completion::call(move |sim| stream(&tx2, &rx2, spec, sim, rest, done));
    Resource::submit_pair(tx, rx, sim, wire, SimDuration::ZERO, chain);
}

/// Submit the next 8 MiB chunk of a drive transfer with `remaining` bytes
/// to go; each later chunk is chained from its predecessor's completion,
/// the last one carries `done`.
pub fn stream_chunks(
    resource: &ResourceHandle,
    spec: DiskSpec,
    sim: &mut Sim,
    remaining: u64,
    done: Completion,
) {
    const CHUNK: u64 = 8 * 1024 * 1024;
    let this = remaining.min(CHUNK);
    let rest = remaining - this;
    let then = if rest == 0 {
        done
    } else {
        let resource = resource.clone();
        Completion::call(move |sim| stream_chunks(&resource, spec, sim, rest, done))
    };
    let service = spec.service_time(ByteSize::bytes(this));
    Resource::submit(resource, sim, service, then);
}

/// Per-node sort-memory broker.
#[derive(Debug, Default)]
pub struct SortMemoryBroker {
    limits: HashMap<NodeId, u64>,
    in_use: HashMap<NodeId, u64>,
    /// Spills observed.
    pub spills: u64,
}

impl SortMemoryBroker {
    /// Set a node's sort memory.
    pub fn set_limit(&mut self, node: NodeId, bytes: u64) {
        self.limits.insert(node, bytes);
    }

    fn reserve(&mut self, node: NodeId, bytes: u64) -> bool {
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

    fn release(&mut self, node: NodeId, bytes: u64) {
        if let Some(used) = self.in_use.get_mut(&node) {
            *used = used.saturating_sub(bytes);
        }
    }
}

/// A node's first SSD: where scans and spills go.
fn scratch_disk(cl: &ClusterRc, node: NodeId) -> (ResourceHandle, DiskSpec) {
    let c = cl.borrow();
    let disks = &c.nodes[node.raw() as usize].disks;
    let disk = &disks[if disks.len() > 1 { 1 } else { 0 }];
    (disk.resource().clone(), *disk.spec())
}

/// Replay `trace` against the cluster; the last stage completes with
/// `done`.
pub fn replay_trace(
    cl: &ClusterRc,
    sim: &mut Sim,
    trace: CostTrace,
    broker: Rc<RefCell<SortMemoryBroker>>,
    done: Completion,
) {
    run_stage(cl.clone(), sim, trace, 0, broker, done);
}

fn run_stage(
    cl: ClusterRc,
    sim: &mut Sim,
    trace: CostTrace,
    idx: usize,
    broker: Rc<RefCell<SortMemoryBroker>>,
    done: Completion,
) {
    if idx >= trace.stages.len() {
        sim.complete(done);
        return;
    }
    let stage = trace.stages[idx];
    // The last stage completes with `done` itself, not with a closure
    // whose only job is to run it.
    let next = if idx + 1 == trace.stages.len() {
        done
    } else {
        let (cl2, broker2) = (cl.clone(), broker.clone());
        Completion::call(move |sim| run_stage(cl2, sim, trace, idx + 1, broker2, done))
    };
    match stage.kind {
        StageKind::Cpu { dur } => {
            let cpu = cl.borrow().nodes[stage.on.raw() as usize].cpu.clone();
            Resource::submit(&cpu, sim, dur, next);
        }
        StageKind::PageReads { pages } => {
            let (disk, spec) = scratch_disk(&cl, stage.on);
            let bytes = pages * wattdb_storage::PAGE_SIZE as u64;
            stream_chunks(&disk, spec, sim, bytes, next);
        }
        StageKind::NetTransfer {
            from,
            to,
            bytes,
            calls,
            overlapped,
        } => {
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
                    let (disk, spec) = scratch_disk(&cl2, node);
                    stream_chunks(&disk, spec, sim, bytes * 2, release);
                });
                Resource::submit(&cpu_res, sim, cpu, after_cpu);
            }
        }
    }
}
