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
//!
//! A message is one kernel event: both links book the piece when it is
//! sent, and its delivery is posted once, one hop after the later of the
//! two clears ([`Resource::submit_pair`]). So a one-piece message's
//! arrival is known when it is sent, and [`Network::send`] returns it: a
//! sender that waits on nothing but wants to know when it landed (a
//! replica's acknowledgement) books it with [`Sim::book`].

use std::cell::Cell;

use wattdb_common::{ByteSize, NetworkSpec, NodeId, SimDuration, SimTime};
use wattdb_sim::{Completion, Resource, ResourceHandle, Sim};

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

    /// Send `bytes` from `src` to `dst`; `delivered` fires at the receiver
    /// when the message arrives. Local sends (src == dst) skip the wire
    /// entirely (records move through main memory, §3.3). Transfers larger
    /// than 2 MiB are streamed in chunks so small messages (volcano calls,
    /// log shipping) interleave on the links instead of stalling behind a
    /// multi-second bulk copy.
    ///
    /// Returns `Some((arrival, as_of))` for a message that rides one piece:
    /// it arrives at `arrival`, ranked among the events due then as of
    /// `as_of`, the instant its later link arm clears (a local send: now,
    /// twice). `None` for a streamed one, whose later chunks are booked only
    /// as the earlier ones clear.
    pub fn send(
        &self,
        sim: &mut Sim,
        src: NodeId,
        dst: NodeId,
        bytes: ByteSize,
        delivered: Completion,
    ) -> Option<(SimTime, SimTime)> {
        if src == dst {
            sim.post_after(SimDuration::ZERO, delivered);
            return Some((sim.now(), sim.now()));
        }
        let (from, to) = (
            &self.nics[src.raw() as usize],
            &self.nics[dst.raw() as usize],
        );
        // Account the full message once, then stream.
        let mut s = from.stats.get();
        s.tx_messages += 1;
        s.tx_bytes += bytes.as_u64();
        from.stats.set(s);
        let mut r = to.stats.get();
        r.rx_messages += 1;
        r.rx_bytes += bytes.as_u64();
        to.stats.set(r);
        stream(&from.tx, &to.rx, self.spec, sim, bytes.as_u64(), delivered)
    }
}

/// `remaining` bytes over the dual-occupancy links, a chunk at a time; each
/// later chunk is chained from its predecessor's completion (a closure:
/// only messages past one chunk pay for it). The hop latency is paid once
/// per message, by its last chunk. Returns a one-piece message's arrival
/// and its as-of instant (see [`Network::send`]).
fn stream(
    tx: &ResourceHandle,
    rx: &ResourceHandle,
    spec: NetworkSpec,
    sim: &mut Sim,
    remaining: u64,
    done: Completion,
) -> Option<(SimTime, SimTime)> {
    const CHUNK: u64 = 2 * 1024 * 1024;
    let this = ByteSize::bytes(remaining.min(CHUNK));
    let rest = remaining - this.as_u64();
    if rest == 0 {
        let clear = send_piece(tx, rx, spec, sim, this, spec.hop_latency, done);
        return Some((clear + spec.hop_latency, clear));
    }
    let (tx2, rx2) = (tx.clone(), rx.clone());
    let chain = Completion::call(move |sim| {
        stream(&tx2, &rx2, spec, sim, rest, done);
    });
    send_piece(tx, rx, spec, sim, this, SimDuration::ZERO, chain);
    None
}

/// One piece occupying the sender's egress and the receiver's ingress in
/// parallel; `done` is due `hop` after the later of the two clears
/// ([`Resource::submit_pair`]), which this returns.
pub(crate) fn send_piece(
    tx: &ResourceHandle,
    rx: &ResourceHandle,
    spec: NetworkSpec,
    sim: &mut Sim,
    bytes: ByteSize,
    hop: SimDuration,
    done: Completion,
) -> SimTime {
    let wire = bytes.transfer_time(spec.bandwidth);
    Resource::submit_pair(tx, rx, sim, wire, hop, done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
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
            Completion::call(move |sim| *a.borrow_mut() = Some(sim.now())),
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
    fn a_one_piece_message_returns_when_it_arrives() {
        let mut sim = Sim::new();
        let n = net(3);
        let at = Rc::new(RefCell::new(None));
        let a = at.clone();
        let done = Completion::call(move |sim| *a.borrow_mut() = Some(sim.now()));
        let bytes = ByteSize::bytes(117_000); // 1 ms on the wire
        let (arrival, as_of) = n.send(&mut sim, NodeId(0), NodeId(1), bytes, done).unwrap();
        assert_eq!(as_of, SimTime::from_millis(1), "its link arms clear");
        assert_eq!(arrival, as_of + NetworkSpec::default().hop_latency);
        sim.run_to_completion();
        assert_eq!(*at.borrow(), Some(arrival));
        // A detached message posts nothing but still returns its arrival;
        // one streamed in chunks does not know it yet.
        let quiet = n.send(&mut sim, NodeId(0), NodeId(2), bytes, Completion::Detached);
        assert!(quiet.is_some() && sim.pending() == 0);
        let big = ByteSize::bytes(3 * 1024 * 1024);
        assert_eq!(
            n.send(&mut sim, NodeId(0), NodeId(2), big, Completion::Detached),
            None
        );
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
