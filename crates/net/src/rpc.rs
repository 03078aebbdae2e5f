//! Request/response helpers over the network model.
//!
//! A remote volcano `next()` call (§3.3), a routing lookup at the master,
//! or a lock-release notification are all the same shape: request bytes one
//! way, server-side work, response bytes back. [`round_trip`] wires the
//! three stages through the simulator; the per-message CPU overhead from
//! the [`NetworkSpec`] is charged on top by the caller's CPU accounting.
//!
//! [`NetworkSpec`]: wattdb_common::NetworkSpec

use wattdb_common::{ByteSize, NodeId, SimDuration};
use wattdb_sim::{Completion, Sim};

use crate::network::{send_piece, Network};

/// Issue a request of `req_bytes` from `client` to `server`, model
/// `server_time` of processing there, send `resp_bytes` back, then fire
/// `done` at the client.
///
/// `server_time` covers the server-side latency that is not separately
/// modelled through a resource. For CPU-accurate server work, use
/// [`Network::send`] directly and submit to the server's CPU resource in
/// the delivery continuation.
#[allow(clippy::too_many_arguments)]
pub fn round_trip(
    net: &Network,
    sim: &mut Sim,
    client: NodeId,
    server: NodeId,
    req_bytes: ByteSize,
    resp_bytes: ByteSize,
    server_time: SimDuration,
    done: Completion,
) {
    // The response leg runs when the cluster's network is no longer
    // borrowed: capture what it needs by value.
    let spec = *net.spec();
    let tx_back = net.tx_resource(server).clone();
    let rx_back = net.rx_resource(client).clone();
    let request_served = Completion::call(move |sim| {
        sim.after(server_time, move |sim| {
            if client == server {
                sim.post_after(SimDuration::ZERO, done);
                return;
            }
            // Same dual-occupancy model as `Network::send`, one piece.
            send_piece(
                &tx_back,
                &rx_back,
                spec,
                sim,
                resp_bytes,
                spec.hop_latency,
                done,
            );
        });
    });
    net.send(sim, client, server, req_bytes, request_served);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use wattdb_common::{NetworkSpec, SimTime};

    #[test]
    fn round_trip_time_is_two_hops_plus_server() {
        let mut sim = Sim::new();
        let net = Network::new(2, NetworkSpec::default());
        let at: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
        let a = at.clone();
        round_trip(
            &net,
            &mut sim,
            NodeId(0),
            NodeId(1),
            ByteSize::bytes(64),
            ByteSize::bytes(1024),
            SimDuration::from_micros(100),
            Completion::call(move |sim| *a.borrow_mut() = Some(sim.now())),
        );
        sim.run_to_completion();
        let t = at.borrow().unwrap().as_micros();
        // 2 × ~450 µs hops + 100 µs server + small wire times.
        assert!((1000..1100).contains(&t), "{t}");
    }

    #[test]
    fn local_round_trip_skips_the_wire() {
        let mut sim = Sim::new();
        let net = Network::new(2, NetworkSpec::default());
        let at: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
        let a = at.clone();
        round_trip(
            &net,
            &mut sim,
            NodeId(1),
            NodeId(1),
            ByteSize::bytes(64),
            ByteSize::bytes(1024),
            SimDuration::from_micros(100),
            Completion::call(move |sim| *a.borrow_mut() = Some(sim.now())),
        );
        sim.run_to_completion();
        assert_eq!(at.borrow().unwrap(), SimTime::from_micros(100));
    }

    #[test]
    fn pipelined_round_trips_share_links() {
        let mut sim = Sim::new();
        let net = Network::new(2, NetworkSpec::default());
        let count: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
        for _ in 0..10 {
            let c = count.clone();
            round_trip(
                &net,
                &mut sim,
                NodeId(0),
                NodeId(1),
                ByteSize::bytes(64),
                ByteSize::bytes(64),
                SimDuration::ZERO,
                Completion::call(move |_| *c.borrow_mut() += 1),
            );
        }
        sim.run_to_completion();
        assert_eq!(*count.borrow(), 10);
    }
}
