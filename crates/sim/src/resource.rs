//! Queueing resources: the simulated hardware components.
//!
//! A [`Resource`] models a server with `slots` parallel service stations and
//! a FIFO queue — CPU (slots = cores), a disk (slots = 1), a NIC direction
//! (slots = 1). Requests carry a service time and a [`Completion`] — data
//! on the hot path, so a request allocates nothing.
//! Contention (queueing delay) emerges naturally when concurrent requests
//! exceed the slot count, which is exactly the effect the paper measures
//! when rebalancing competes with queries for disk bandwidth (§5.2, Fig. 7).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use wattdb_common::{SimDuration, SimTime};

use crate::event::Completion;
use crate::kernel::Sim;

/// Shared handle to a resource. Resources are owned jointly by everything
/// that submits work to them; the DES is single-threaded so `RefCell` is
/// sufficient.
pub type ResourceHandle = Rc<RefCell<Resource>>;

struct Pending {
    enqueued: SimTime,
    service: SimDuration,
    then: Completion,
}

/// Aggregate counters for a resource, for utilization and wait accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceStats {
    /// Requests completed.
    pub completed: u64,
    /// Sum of service times of completed requests (µs).
    pub service_us: u64,
    /// Sum of queue-wait times of completed requests (µs).
    pub wait_us: u64,
    /// Longest queue observed.
    pub max_queue: usize,
}

/// A multi-slot FIFO queueing server.
pub struct Resource {
    name: String,
    slots: u32,
    busy: u32,
    queue: VecDeque<Pending>,
    /// Integral of busy slots over time, in slot-µs; used for utilization.
    busy_integral_us: u64,
    last_change: SimTime,
    stats: ResourceStats,
}

impl Resource {
    /// Create a shared resource with `slots` parallel service stations.
    pub fn new(name: impl Into<String>, slots: u32) -> ResourceHandle {
        assert!(slots > 0, "a resource needs at least one slot");
        Rc::new(RefCell::new(Resource {
            name: name.into(),
            slots,
            busy: 0,
            queue: VecDeque::new(),
            busy_integral_us: 0,
            last_change: SimTime::ZERO,
            stats: ResourceStats::default(),
        }))
    }

    /// Resource name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parallel service stations.
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Requests currently being served.
    pub fn busy(&self) -> u32 {
        self.busy
    }

    /// Requests waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ResourceStats {
        self.stats
    }

    /// Drop every queued request without running its completion. For
    /// tearing a simulation down: a closure completion usually holds
    /// whatever owns this resource, and the pair would keep each other
    /// alive.
    pub fn abandon_queue(&mut self) {
        self.queue.clear();
    }

    fn advance_integral(&mut self, now: SimTime) {
        let dt = now.since(self.last_change).as_micros();
        self.busy_integral_us += dt * self.busy as u64;
        self.last_change = now;
    }

    /// Monotonic busy integral in slot-µs up to `now`. Utilization over a
    /// window is `Δintegral / (Δt · slots)`; see [`UtilizationProbe`].
    ///
    /// [`UtilizationProbe`]: crate::probe::UtilizationProbe
    pub fn busy_integral_us(&mut self, now: SimTime) -> u64 {
        self.advance_integral(now);
        self.busy_integral_us
    }

    /// Submit a request: serve for `service` once a slot frees up, then run
    /// `then`. Completion order among queued requests is FIFO.
    pub fn submit(this: &ResourceHandle, sim: &mut Sim, service: SimDuration, then: Completion) {
        let mut r = this.borrow_mut();
        r.advance_integral(sim.now());
        if r.busy < r.slots {
            r.busy += 1;
            drop(r);
            sim.post_served(this.clone(), service, SimDuration::ZERO, then);
        } else {
            r.queue.push_back(Pending {
                enqueued: sim.now(),
                service,
                then,
            });
            let qlen = r.queue.len();
            r.stats.max_queue = r.stats.max_queue.max(qlen);
        }
    }

    /// The kernel's half of a completion: book the request that just
    /// finished, and hand its slot to the next queued one — scheduled before
    /// the finished request's completion runs, which is what keeps firing
    /// order identical however that completion is expressed.
    pub(crate) fn served(
        this: ResourceHandle,
        sim: &mut Sim,
        service: SimDuration,
        waited: SimDuration,
    ) {
        let next = {
            let mut r = this.borrow_mut();
            r.advance_integral(sim.now());
            r.stats.completed += 1;
            r.stats.service_us += service.as_micros();
            r.stats.wait_us += waited.as_micros();
            let next = r.queue.pop_front();
            if next.is_none() {
                r.busy -= 1;
            }
            next
        };
        if let Some(p) = next {
            sim.post_served(this, p.service, sim.now().since(p.enqueued), p.then);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use wattdb_common::SimTime;

    fn collect_completions(
        res: &ResourceHandle,
        sim: &mut Sim,
        services: &[u64],
    ) -> Rc<RefCell<Vec<(u32, SimTime)>>> {
        let log: Rc<RefCell<Vec<(u32, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &svc) in services.iter().enumerate() {
            let l = log.clone();
            Resource::submit(
                res,
                sim,
                SimDuration::from_micros(svc),
                Completion::call(move |sim| l.borrow_mut().push((i as u32, sim.now()))),
            );
        }
        log
    }

    #[test]
    fn single_slot_serializes_fifo() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let log = collect_completions(&res, &mut sim, &[10, 10, 10]);
        sim.run_to_completion();
        let v = log.borrow();
        assert_eq!(
            *v,
            vec![
                (0, SimTime::from_micros(10)),
                (1, SimTime::from_micros(20)),
                (2, SimTime::from_micros(30)),
            ]
        );
    }

    #[test]
    fn two_slots_run_in_parallel() {
        let mut sim = Sim::new();
        let res = Resource::new("cpu", 2);
        let log = collect_completions(&res, &mut sim, &[10, 10, 10]);
        sim.run_to_completion();
        let v = log.borrow();
        // First two run in parallel, third waits for a slot.
        assert_eq!(v[0], (0, SimTime::from_micros(10)));
        assert_eq!(v[1], (1, SimTime::from_micros(10)));
        assert_eq!(v[2], (2, SimTime::from_micros(20)));
    }

    #[test]
    fn wait_time_accounted() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let _log = collect_completions(&res, &mut sim, &[100, 50]);
        sim.run_to_completion();
        let stats = res.borrow().stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.service_us, 150);
        // Second request waited the full 100 µs of the first.
        assert_eq!(stats.wait_us, 100);
        assert_eq!(stats.max_queue, 1);
    }

    #[test]
    fn busy_integral_tracks_utilization() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let _log = collect_completions(&res, &mut sim, &[250]);
        sim.run_to_completion();
        // Busy 250 µs out of 250 µs: integral = 250 slot-µs.
        assert_eq!(res.borrow_mut().busy_integral_us(sim.now()), 250);
        // Advance idle time; integral unchanged.
        sim.run_until(SimTime::from_micros(1_000));
        assert_eq!(res.borrow_mut().busy_integral_us(sim.now()), 250);
    }

    #[test]
    fn multi_slot_integral_counts_slot_us() {
        let mut sim = Sim::new();
        let res = Resource::new("cpu", 2);
        let _log = collect_completions(&res, &mut sim, &[100, 100]);
        sim.run_to_completion();
        // Two slots busy for 100 µs each = 200 slot-µs.
        assert_eq!(res.borrow_mut().busy_integral_us(sim.now()), 200);
    }

    #[test]
    fn completions_interleave_with_submissions() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let log: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        // Submit one request; from its completion, submit another.
        let l2 = log.clone();
        let r2 = res.clone();
        Resource::submit(
            &res,
            &mut sim,
            SimDuration::from_micros(10),
            Completion::call(move |sim| {
                let l3 = l2.clone();
                Resource::submit(
                    &r2,
                    sim,
                    SimDuration::from_micros(5),
                    Completion::call(move |sim| l3.borrow_mut().push(sim.now())),
                );
            }),
        );
        sim.run_to_completion();
        assert_eq!(log.borrow()[0], SimTime::from_micros(15));
        assert_eq!(res.borrow().busy(), 0);
        assert_eq!(res.borrow().queue_len(), 0);
    }

    #[test]
    fn zero_service_requests_complete() {
        let mut sim = Sim::new();
        let res = Resource::new("noop", 1);
        let log = collect_completions(&res, &mut sim, &[0, 0]);
        sim.run_to_completion();
        assert_eq!(log.borrow().len(), 2);
    }
}
