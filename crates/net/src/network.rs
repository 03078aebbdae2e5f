//! The simulated Gigabit Ethernet interconnect.
//!
//! §3.1: nodes are "interconnected by a Gigabit Ethernet [...] All nodes
//! can communicate directly." The model: each node has a full-duplex NIC —
//! an egress and an ingress queueing resource of 1 Gbit/s each — plus a
//! fixed per-hop switch latency. A transfer occupies the sender's egress
//! and the receiver's ingress for its serialization time in parallel
//! (cut-through, not store-and-forward) and is delivered one hop latency
//! after both links are clear. Contention — the effect that makes remote
//! volcano `next()` calls catastrophic in Fig. 1 and bulk segment copies
//! interfere with query traffic — emerges from the queues.

use std::cell::Cell;
use std::rc::Rc;

use wattdb_common::{ByteSize, NetworkSpec, NodeId, SimDuration};
use wattdb_sim::{EventFn, Resource, ResourceHandle, Sim};

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    /// Messages sent.
    pub tx_messages: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Messages received.
    pub rx_messages: u64,
    /// Bytes received.
    pub rx_bytes: u64,
}

struct Nic {
    tx: ResourceHandle,
    rx: ResourceHandle,
    stats: Cell<NicStats>,
}

/// The cluster interconnect.
pub struct Network {
    spec: NetworkSpec,
    nics: Vec<Nic>,
}

impl Network {
    /// A switch fabric connecting `nodes` nodes.
    pub fn new(nodes: usize, spec: NetworkSpec) -> Self {
        let nics = (0..nodes)
            .map(|i| Nic {
                tx: Resource::new(format!("n{i}-nic-tx"), 1),
                rx: Resource::new(format!("n{i}-nic-rx"), 1),
                stats: Cell::new(NicStats::default()),
            })
            .collect();
        Self { spec, nics }
    }

    /// The network spec in force.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Number of attached nodes.
    pub fn nodes(&self) -> usize {
        self.nics.len()
    }

    /// Egress resource of a node (for utilization probes).
    pub fn tx_resource(&self, node: NodeId) -> &ResourceHandle {
        &self.nics[node.raw() as usize].tx
    }

    /// Ingress resource of a node.
    pub fn rx_resource(&self, node: NodeId) -> &ResourceHandle {
        &self.nics[node.raw() as usize].rx
    }

    /// Traffic counters for a node.
    pub fn stats(&self, node: NodeId) -> NicStats {
        self.nics[node.raw() as usize].stats.get()
    }

    /// Serialization time of `bytes` on one link.
    pub fn wire_time(&self, bytes: ByteSize) -> SimDuration {
        bytes.transfer_time(self.spec.bandwidth)
    }

    /// Send `bytes` from `src` to `dst`; `delivered` fires at the receiver
    /// when the message arrives. Local sends (src == dst) skip the wire
    /// entirely (records move through main memory, §3.3). Transfers larger
    /// than 2 MiB are streamed in chunks so small messages (volcano calls,
    /// log shipping) interleave on the links instead of stalling behind a
    /// multi-second bulk copy.
    pub fn send(
        &self,
        sim: &mut Sim,
        src: NodeId,
        dst: NodeId,
        bytes: ByteSize,
        delivered: EventFn,
    ) {
        if src == dst {
            sim.after(SimDuration::ZERO, delivered);
            return;
        }
        const CHUNK: u64 = 2 * 1024 * 1024;
        if bytes.as_u64() > CHUNK {
            let first = ByteSize::bytes(CHUNK);
            let rest = ByteSize::bytes(bytes.as_u64() - CHUNK);
            let tx = self.nics[src.raw() as usize].tx.clone();
            let rx = self.nics[dst.raw() as usize].rx.clone();
            let spec = self.spec;
            let chain: EventFn = Box::new(move |sim: &mut Sim| {
                send_chunked(tx, rx, spec, sim, rest, delivered);
            });
            // Account the full message once, then stream.
            let mut st = self.nics[src.raw() as usize].stats.get();
            st.tx_messages += 1;
            st.tx_bytes += bytes.as_u64();
            self.nics[src.raw() as usize].stats.set(st);
            let mut sr = self.nics[dst.raw() as usize].stats.get();
            sr.rx_messages += 1;
            sr.rx_bytes += bytes.as_u64();
            self.nics[dst.raw() as usize].stats.set(sr);
            let tx2 = self.nics[src.raw() as usize].tx.clone();
            let rx2 = self.nics[dst.raw() as usize].rx.clone();
            send_piece(tx2, rx2, self.spec, sim, first, SimDuration::ZERO, chain);
            return;
        }
        let mut s = self.nics[src.raw() as usize].stats.get();
        s.tx_messages += 1;
        s.tx_bytes += bytes.as_u64();
        self.nics[src.raw() as usize].stats.set(s);
        let mut r = self.nics[dst.raw() as usize].stats.get();
        r.rx_messages += 1;
        r.rx_bytes += bytes.as_u64();
        self.nics[dst.raw() as usize].stats.set(r);

        let wire = self.wire_time(bytes);
        let hop = self.spec.hop_latency;
        // Join of egress and ingress occupancy; delivery one hop after the
        // later of the two completes.
        let remaining = Rc::new(Cell::new(2u8));
        let delivered = Rc::new(Cell::new(Some(delivered)));
        let make_arm = |label: &'static str| {
            let remaining = remaining.clone();
            let delivered = delivered.clone();
            let _ = label;
            Box::new(move |sim: &mut Sim| {
                remaining.set(remaining.get() - 1);
                if remaining.get() == 0 {
                    let done = delivered.take().expect("delivered once");
                    sim.after(hop, done);
                }
            }) as EventFn
        };
        Resource::submit(&self.nics[src.raw() as usize].tx, sim, wire, make_arm("tx"));
        Resource::submit(&self.nics[dst.raw() as usize].rx, sim, wire, make_arm("rx"));
    }
}

/// One chunk over the dual-occupancy links; `done` fires `hop` after both
/// directions clear (zero for intermediate chunks of a stream — the hop
/// latency is paid once per message, not per chunk).
fn send_piece(
    tx: ResourceHandle,
    rx: ResourceHandle,
    spec: NetworkSpec,
    sim: &mut Sim,
    bytes: ByteSize,
    hop: SimDuration,
    done: EventFn,
) {
    let wire = bytes.transfer_time(spec.bandwidth);
    let remaining = Rc::new(Cell::new(2u8));
    let done_cell = Rc::new(Cell::new(Some(done)));
    let mk = || {
        let remaining = remaining.clone();
        let done_cell = done_cell.clone();
        Box::new(move |sim: &mut Sim| {
            remaining.set(remaining.get() - 1);
            if remaining.get() == 0 {
                let d = done_cell.take().expect("once");
                sim.after(hop, d);
            }
        }) as EventFn
    };
    Resource::submit(&tx, sim, wire, mk());
    Resource::submit(&rx, sim, wire, mk());
}

fn send_chunked(
    tx: ResourceHandle,
    rx: ResourceHandle,
    spec: NetworkSpec,
    sim: &mut Sim,
    remaining_bytes: ByteSize,
    done: EventFn,
) {
    const CHUNK: u64 = 2 * 1024 * 1024;
    let total = remaining_bytes.as_u64();
    if total == 0 {
        sim.after(SimDuration::ZERO, done);
        return;
    }
    let this = ByteSize::bytes(total.min(CHUNK));
    let rest = ByteSize::bytes(total.saturating_sub(CHUNK));
    let last = rest.as_u64() == 0;
    let tx2 = tx.clone();
    let rx2 = rx.clone();
    let chain: EventFn = Box::new(move |sim: &mut Sim| {
        if last {
            done(sim);
        } else {
            send_chunked(tx2, rx2, spec, sim, rest, done);
        }
    });
    let hop = if last {
        spec.hop_latency
    } else {
        SimDuration::ZERO
    };
    send_piece(tx, rx, spec, sim, this, hop, chain);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use wattdb_common::SimTime;

    fn net(nodes: usize) -> Network {
        Network::new(nodes, NetworkSpec::default())
    }

    fn send_and_time(
        net: &Network,
        sim: &mut Sim,
        src: u16,
        dst: u16,
        bytes: u64,
    ) -> Rc<RefCell<Option<SimTime>>> {
        let at = Rc::new(RefCell::new(None));
        let a = at.clone();
        net.send(
            sim,
            NodeId(src),
            NodeId(dst),
            ByteSize::bytes(bytes),
            Box::new(move |sim| *a.borrow_mut() = Some(sim.now())),
        );
        at
    }

    #[test]
    fn small_message_dominated_by_hop_latency() {
        let mut sim = Sim::new();
        let n = net(3);
        let at = send_and_time(&n, &mut sim, 0, 1, 100);
        sim.run_to_completion();
        let t = at.borrow().unwrap().as_micros();
        // ~450 µs hop + ~1 µs wire.
        assert!((440..500).contains(&t), "{t}");
    }

    #[test]
    fn bulk_transfer_is_bandwidth_bound() {
        let mut sim = Sim::new();
        let n = net(2);
        // 11.7 MB at 117 MB/s ≈ 100 ms ≫ hop latency.
        let at = send_and_time(&n, &mut sim, 0, 1, 11_700_000);
        sim.run_to_completion();
        let t = at.borrow().unwrap().as_micros();
        assert!((100_000..102_000).contains(&t), "{t}");
    }

    #[test]
    fn local_send_is_free() {
        let mut sim = Sim::new();
        let n = net(2);
        let at = send_and_time(&n, &mut sim, 1, 1, 1_000_000);
        sim.run_to_completion();
        assert_eq!(at.borrow().unwrap(), SimTime::ZERO);
        assert_eq!(n.stats(NodeId(1)).tx_messages, 0, "no wire traffic");
    }

    #[test]
    fn sender_egress_serializes() {
        let mut sim = Sim::new();
        let n = net(3);
        // Two large messages from node 0 to different receivers share the
        // single egress link: chunks interleave fairly, so both complete
        // around the combined serialization time (~200 ms), never earlier
        // than their own half.
        let a1 = send_and_time(&n, &mut sim, 0, 1, 11_700_000);
        let a2 = send_and_time(&n, &mut sim, 0, 2, 11_700_000);
        sim.run_to_completion();
        let t1 = a1.borrow().unwrap().as_micros();
        let t2 = a2.borrow().unwrap().as_micros();
        assert!(t1 > 150_000, "shared link, not solo speed: {t1}");
        assert!(
            (180_000..210_000).contains(&t2),
            "combined volume bound: {t2}"
        );
    }

    #[test]
    fn receiver_ingress_is_incast_bottleneck() {
        let mut sim = Sim::new();
        let n = net(3);
        // Two senders to one receiver: the shared ingress is the
        // bottleneck — neither can finish before the combined volume fits
        // through one link.
        let a1 = send_and_time(&n, &mut sim, 0, 2, 11_700_000);
        let a2 = send_and_time(&n, &mut sim, 1, 2, 11_700_000);
        sim.run_to_completion();
        let t1 = a1.borrow().unwrap().as_micros();
        let t2 = a2.borrow().unwrap().as_micros();
        assert!(t1 > 150_000, "incast shares ingress: {t1}");
        assert!(t2 >= 190_000, "incast serialized: {t2}");
    }

    #[test]
    fn full_duplex_does_not_serialize_opposite_directions() {
        let mut sim = Sim::new();
        let n = net(2);
        let a1 = send_and_time(&n, &mut sim, 0, 1, 11_700_000);
        let a2 = send_and_time(&n, &mut sim, 1, 0, 11_700_000);
        sim.run_to_completion();
        // Both complete in one transfer window.
        assert!(a1.borrow().unwrap().as_micros() < 102_000);
        assert!(a2.borrow().unwrap().as_micros() < 102_000);
    }

    #[test]
    fn stats_accumulate() {
        let mut sim = Sim::new();
        let n = net(2);
        send_and_time(&n, &mut sim, 0, 1, 1000);
        send_and_time(&n, &mut sim, 0, 1, 2000);
        sim.run_to_completion();
        let s0 = n.stats(NodeId(0));
        let s1 = n.stats(NodeId(1));
        assert_eq!(s0.tx_messages, 2);
        assert_eq!(s0.tx_bytes, 3000);
        assert_eq!(s1.rx_bytes, 3000);
        assert_eq!(s1.tx_messages, 0);
    }
}
