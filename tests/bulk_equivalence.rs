//! The bulk paths against the closure-chained ones they replaced.
//!
//! `reference/bulk_parent.rs` keeps the network's and the drive's chunk
//! chains and the stage-by-stage trace replay as they were while every
//! step boxed its continuation. Two properties, over cases from a fixed
//! seed (the failing case's seed is in the message):
//!
//! * **transfers** — messages of random sizes (zero, one piece, exact
//!   multiples of a chunk, tens of chunks) between random node pairs and
//!   bulk transfers on random drives, submitted at random instants so that
//!   concurrent streams share links and drives: [`Network::send`] and
//!   [`SimDisk::bulk_transfer`] complete each one at the instant, and in
//!   the order, the reference chains do;
//! * **replays** — random traces over every stage kind (CPU, page reads,
//!   transfers past one chunk, sorts that fit and sorts that spill)
//!   started at random instants on one cluster: [`replay_trace`] completes
//!   each at the instant, and in the order, the reference replay does on a
//!   twin cluster.
//!
//! Completions are logged by the closure each one runs, so the log's
//! order is the kernel's firing order.

#[path = "reference/bulk_parent.rs"]
mod reference;

use std::cell::RefCell;
use std::rc::Rc;

use wattdb_common::{
    ByteSize, DetRng, DiskId, DiskSpec, NetworkSpec, NodeId, SimDuration, SimTime,
};
use wattdb_core::replay::replay_trace;
use wattdb_core::{Cluster, ClusterConfig, ClusterRc};
use wattdb_net::Network;
use wattdb_query::{CostTrace, Stage, StageKind};
use wattdb_sim::{Completion, Resource, Sim};
use wattdb_storage::SimDisk;

/// Cases per property.
const CASES: u64 = 60;

const NODES: u16 = 4;
const MIB: u64 = 1024 * 1024;

type Log = Rc<RefCell<Vec<(SimTime, usize)>>>;

/// A completion that logs `tag` at the instant it runs.
fn logged(log: &Log, tag: usize) -> Completion {
    let log = log.clone();
    Completion::call(move |sim| log.borrow_mut().push((sim.now(), tag)))
}

/// A size that lands on the chunking's edges as often as between them.
fn size(rng: &mut DetRng, chunk: u64) -> u64 {
    let chunks = rng.uniform(0, 12);
    match rng.uniform(0, 3) {
        0 => chunks * chunk,
        1 => (chunks * chunk).saturating_sub(rng.uniform(1, 4096)),
        2 => chunks * chunk + rng.uniform(1, chunk - 1),
        _ => rng.uniform(0, 4096),
    }
}

/// One transfer of a case: when it is submitted and what it moves.
#[derive(Clone, Copy)]
enum Transfer {
    Message { from: u16, to: u16, bytes: u64 },
    Bulk { disk: usize, bytes: u64 },
}

fn transfers(rng: &mut DetRng) -> Vec<(SimTime, Transfer)> {
    let n = rng.uniform(1, 24) as usize;
    (0..n)
        .map(|_| {
            let at = SimTime::from_micros(rng.uniform(0, 200_000));
            let transfer = if rng.chance(0.5) {
                let from = rng.uniform(0, NODES as u64 - 1) as u16;
                let to = (from + rng.uniform(1, NODES as u64 - 1) as u16) % NODES;
                let bytes = size(rng, 2 * MIB);
                Transfer::Message { from, to, bytes }
            } else {
                let disk = rng.uniform(0, 2) as usize;
                Transfer::Bulk {
                    disk,
                    bytes: size(rng, 8 * MIB),
                }
            };
            (at, transfer)
        })
        .collect()
}

/// The drives of a case: two SSDs and a disk, shared by the transfers.
fn disk_specs() -> [DiskSpec; 3] {
    [DiskSpec::ssd(), DiskSpec::ssd(), DiskSpec::hdd()]
}

/// Run a case's transfers through the network and the drives.
fn run_transfers(case: &[(SimTime, Transfer)]) -> Vec<(SimTime, usize)> {
    let (mut sim, log) = (Sim::new(), Log::default());
    let net = Rc::new(Network::new(NODES as usize, NetworkSpec::default()));
    let disks: Rc<RefCell<Vec<SimDisk>>> = Rc::new(RefCell::new(
        (disk_specs().into_iter().enumerate())
            .map(|(i, spec)| SimDisk::new(DiskId::new(NodeId(1), i as u8), spec))
            .collect(),
    ));
    for (tag, &(at, transfer)) in case.iter().enumerate() {
        let (net, disks, done) = (net.clone(), disks.clone(), logged(&log, tag));
        sim.schedule(at, move |sim| match transfer {
            Transfer::Message { from, to, bytes } => {
                net.send(sim, NodeId(from), NodeId(to), ByteSize::bytes(bytes), done);
            }
            Transfer::Bulk { disk, bytes } => {
                disks.borrow_mut()[disk].bulk_transfer(sim, ByteSize::bytes(bytes), done);
            }
        });
    }
    sim.run_to_completion();
    let out = log.borrow().clone();
    out
}

/// Run a case's transfers through the reference chains on bare links and
/// drives of the same specs.
fn run_reference_transfers(case: &[(SimTime, Transfer)]) -> Vec<(SimTime, usize)> {
    let (mut sim, log) = (Sim::new(), Log::default());
    let spec = NetworkSpec::default();
    let links: Vec<_> = (0..NODES)
        .map(|i| {
            (
                Resource::new(format!("tx{i}"), 1),
                Resource::new(format!("rx{i}"), 1),
            )
        })
        .collect();
    let links = Rc::new(links);
    let drives: Vec<_> = disk_specs().map(|s| (Resource::new("drive", 1), s)).into();
    let drives = Rc::new(drives);
    for (tag, &(at, transfer)) in case.iter().enumerate() {
        let (links, drives, done) = (links.clone(), drives.clone(), logged(&log, tag));
        sim.schedule(at, move |sim| match transfer {
            Transfer::Message { from, to, bytes } => {
                let (tx, rx) = (&links[from as usize].0, &links[to as usize].1);
                reference::stream(tx, rx, spec, sim, bytes, done);
            }
            Transfer::Bulk { disk, bytes } => {
                let (drive, spec) = &drives[disk];
                reference::stream_chunks(drive, *spec, sim, bytes, done);
            }
        });
    }
    sim.run_to_completion();
    let out = log.borrow().clone();
    out
}

#[test]
fn chunked_transfers_complete_when_and_in_the_order_the_chains_did() {
    let mut run = 0;
    for case in 0..CASES {
        let seed = 0xB01C_0000 + case;
        let transfers = transfers(&mut DetRng::new(seed));
        let got = run_transfers(&transfers);
        let want = run_reference_transfers(&transfers);
        assert_eq!(
            got.len(),
            transfers.len(),
            "every transfer of case {seed} lands"
        );
        assert_eq!(got, want, "completions of case {seed}");
        run += transfers.len();
    }
    assert!(run > CASES as usize * 5, "{run} transfers");
}

fn node(rng: &mut DetRng) -> NodeId {
    NodeId(rng.uniform(0, NODES as u64 - 1) as u16)
}

/// A random trace over every stage kind.
fn trace(rng: &mut DetRng) -> CostTrace {
    let stages = (0..rng.uniform(0, 8))
        .map(|_| {
            let on = node(rng);
            let kind = match rng.uniform(0, 3) {
                0 => StageKind::Cpu {
                    dur: SimDuration::from_micros(rng.uniform(0, 20_000)),
                },
                1 => StageKind::PageReads {
                    pages: rng.uniform(0, 3_000),
                },
                2 => {
                    let to = NodeId((on.raw() + rng.uniform(1, NODES as u64 - 1) as u16) % NODES);
                    StageKind::NetTransfer {
                        from: on,
                        to,
                        bytes: size(rng, 2 * MIB),
                        calls: rng.uniform(1, 40),
                        overlapped: rng.chance(0.5),
                    }
                }
                _ => StageKind::SortWorkspace {
                    bytes: rng.uniform(0, 6 * MIB),
                    cpu: SimDuration::from_micros(rng.uniform(0, 20_000)),
                },
            };
            Stage { on, kind }
        })
        .collect();
    CostTrace { stages }
}

fn twin_cluster() -> ClusterRc {
    let cfg = ClusterConfig {
        nodes: NODES,
        buffer_pages: 64,
        ..Default::default()
    };
    let active: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    Cluster::new(cfg, &active)
}

/// Sort memory of nodes 1 and 2: tight enough that concurrent sorts
/// spill.
const LIMITS: [(NodeId, u64); 2] = [(NodeId(1), 4 * MIB), (NodeId(2), 8 * MIB)];

#[test]
fn replays_complete_when_and_in_the_order_the_closure_replay_did() {
    let mut spills = 0;
    for case in 0..CASES {
        let seed = 0x5_7A6E_0000 + case;
        let mut rng = DetRng::new(seed);
        let replays: Vec<(SimTime, CostTrace)> = (0..rng.uniform(1, 12))
            .map(|_| {
                (
                    SimTime::from_micros(rng.uniform(0, 100_000)),
                    trace(&mut rng),
                )
            })
            .collect();

        let (cl, mut sim, log) = (twin_cluster(), Sim::new(), Log::default());
        wattdb_core::executor::install(&cl, &mut sim);
        for (node, limit) in LIMITS {
            cl.borrow_mut().replays.broker.set_limit(node, limit);
        }
        for (tag, (at, trace)) in replays.iter().cloned().enumerate() {
            let (cl, done) = (cl.clone(), logged(&log, tag));
            sim.schedule(at, move |sim| replay_trace(&cl, sim, trace, done));
        }
        sim.run_to_completion();

        let (twin, mut twin_sim, twin_log) = (twin_cluster(), Sim::new(), Log::default());
        let broker = Rc::new(RefCell::new(reference::SortMemoryBroker::default()));
        for (node, limit) in LIMITS {
            broker.borrow_mut().set_limit(node, limit);
        }
        for (tag, (at, trace)) in replays.iter().cloned().enumerate() {
            let (twin, broker, done) = (twin.clone(), broker.clone(), logged(&twin_log, tag));
            twin_sim.schedule(at, move |sim| {
                reference::replay_trace(&twin, sim, trace, broker, done)
            });
        }
        twin_sim.run_to_completion();

        assert_eq!(
            log.borrow().len(),
            replays.len(),
            "every replay of case {seed} ends"
        );
        assert_eq!(
            *log.borrow(),
            *twin_log.borrow(),
            "completions of case {seed}"
        );
        let spilled = cl.borrow().replays.broker.spills;
        assert_eq!(spilled, broker.borrow().spills, "spills of case {seed}");
        spills += spilled;
    }
    assert!(spills > 0, "some sorts spill");
}
