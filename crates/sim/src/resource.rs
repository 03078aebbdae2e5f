//! Queueing resources: the simulated hardware components.
//!
//! A [`Resource`] models a server with `slots` parallel service stations and
//! a FIFO queue — CPU (slots = cores), a disk (slots = 1), a NIC direction
//! (slots = 1). Requests carry a service time and a [`Completion`] — data
//! on the hot path, so a request allocates nothing.
//! Contention (queueing delay) emerges naturally when concurrent requests
//! exceed the slot count, which is exactly the effect the paper measures
//! when rebalancing competes with queries for disk bandwidth (§5.2, Fig. 7).
//!
//! # Requests nobody waits on
//!
//! A request whose completion is [`Completion::Detached`] only occupies a
//! slot. When it starts with nothing queued behind it — on a free slot at
//! submit, or re-armed by a completion that leaves the queue empty — it
//! costs no kernel event. The resource takes a **reserved key** instead:
//! the `(at = now + service, seq)` its completion event would have been
//! filed under, with `seq` consumed from the kernel's counter exactly where
//! the push would have consumed it.
//!
//! * **Settling.** Before every [`Resource::submit`], completion and
//!   [`Resource::busy_integral_us`], the resource books every reserved
//!   request whose key comes before the kernel's position (see
//!   [`crate::kernel`]), in key order: it advances the busy integral to the
//!   request's `at`, books its stats and frees its slot — what its event
//!   would have done, at the same instant. `busy_integral_us(now)` settles
//!   only what ends strictly before `now`; a request ending at `now` adds
//!   the same slot-µs whether it is settled or not. When the kernel's
//!   queue drains it settles every reserved request, so a finished
//!   simulation leaves its resources idle, as it did when each was an
//!   event.
//! * **Materialising.** The one thing such a completion could have done
//!   besides booking is re-arm the queue. So when a submit finds every slot
//!   taken, each reserved request becomes the ordinary resource completion
//!   event under its reserved key before the new request queues, and the
//!   queue re-arms at exactly the instant and position it always did.
//!   Invariant: a resource with a non-empty queue holds no reserved request.
//!
//! The reserved list is sized to `slots` (each entry holds a slot), so a
//! reserved request allocates nothing. [`Resource::stats`] and
//! [`Resource::busy`] are read without a clock: they count a reserved
//! request as served only once it is settled.
//!
//! [`Resource::submit_pair`] is the same idea applied to a join: of two arms
//! with one service time, the arm that can finish last carries the join and
//! the other is detached.

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

/// A detached request holding a slot on the reserved key `(at, seq)`.
struct Reserved {
    at: SimTime,
    seq: u64,
    service: SimDuration,
    waited: SimDuration,
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
    /// Detached requests in service with no event; empty while `queue`
    /// is not.
    reserved: Vec<Reserved>,
    /// On the kernel's list of resources to settle when its queue drains.
    listed: bool,
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
            reserved: Vec::with_capacity(slots as usize),
            listed: false,
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

    /// Requests currently being served, a reserved one until it is settled.
    pub fn busy(&self) -> u32 {
        self.busy
    }

    /// Requests waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Counters snapshot; a reserved request counts once it is settled.
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

    fn book(&mut self, service: SimDuration, waited: SimDuration) {
        self.stats.completed += 1;
        self.stats.service_us += service.as_micros();
        self.stats.wait_us += waited.as_micros();
    }

    /// Book every reserved request whose key comes before `position`, in
    /// key order, as its completion event would have.
    fn settle(&mut self, position: (SimTime, u64)) {
        while let Some(i) = (0..self.reserved.len())
            .filter(|&i| (self.reserved[i].at, self.reserved[i].seq) < position)
            .min_by_key(|&i| (self.reserved[i].at, self.reserved[i].seq))
        {
            let done = self.reserved.swap_remove(i);
            self.advance_integral(done.at);
            self.book(done.service, done.waited);
            self.busy -= 1;
        }
    }

    /// The kernel's queue drained: settle every reserved request and
    /// return the last one's end.
    pub(crate) fn settle_all(&mut self) -> SimTime {
        let end = self.reserved.iter().map(|r| r.at).max();
        self.settle((SimTime(u64::MAX), u64::MAX));
        self.listed = false;
        end.unwrap_or(SimTime::ZERO)
    }

    /// Start a request on a slot it already holds: on a reserved key when
    /// it is detached and nothing queues behind it, as an event otherwise.
    fn start(
        &mut self,
        this: &ResourceHandle,
        sim: &mut Sim,
        service: SimDuration,
        waited: SimDuration,
        then: Completion,
    ) {
        if matches!(then, Completion::Detached) && self.queue.is_empty() {
            let at = sim.now() + service;
            let seq = sim.reserve_seq(at);
            self.reserved.push(Reserved {
                at,
                seq,
                service,
                waited,
            });
            if !self.listed {
                self.listed = true;
                sim.settle_on_drain(this.clone());
            }
        } else {
            sim.post_served(this.clone(), service, waited, then);
        }
    }

    /// Monotonic busy integral in slot-µs up to `now`, the kernel's clock.
    /// Utilization over a window is `Δintegral / (Δt · slots)`; see
    /// [`UtilizationProbe`].
    ///
    /// [`UtilizationProbe`]: crate::probe::UtilizationProbe
    pub fn busy_integral_us(&mut self, now: SimTime) -> u64 {
        // `seq` 0 settles what ends strictly before `now`.
        self.settle((now, 0));
        self.advance_integral(now);
        self.busy_integral_us
    }

    /// Submit a request: serve for `service` once a slot frees up, then run
    /// `then`. Completion order among queued requests is FIFO.
    pub fn submit(this: &ResourceHandle, sim: &mut Sim, service: SimDuration, then: Completion) {
        let mut r = this.borrow_mut();
        r.settle(sim.position());
        r.advance_integral(sim.now());
        if r.busy < r.slots {
            r.busy += 1;
            r.start(this, sim, service, SimDuration::ZERO, then);
        } else {
            // The queue re-arms from completion events: give every
            // reserved request its event back, under its own key.
            for done in r.reserved.drain(..) {
                sim.post_served_reserved(
                    done.at,
                    done.seq,
                    this.clone(),
                    done.service,
                    done.waited,
                );
            }
            r.queue.push_back(Pending {
                enqueued: sim.now(),
                service,
                then,
            });
            let qlen = r.queue.len();
            r.stats.max_queue = r.stats.max_queue.max(qlen);
        }
    }

    /// Occupy `a` and `b` in parallel for the same `service` — a message on
    /// a sender's egress and a receiver's ingress — and make `done` due
    /// `hop` after the later of the two finishes.
    ///
    /// Only the arm that finishes last needs an event, and with one service
    /// time it is known at submit: an arm on a free slot never finishes
    /// after one that has to queue (the queued one starts no earlier, and
    /// takes its key later), and of two free arms `b`'s key is the later.
    /// That arm closes a one-arm join; the other is detached. With no slot
    /// free on either, both arms join as two; a detached `done` needs no
    /// join at all. The firing order is the one the two-arm join gave.
    pub fn submit_pair(
        a: &ResourceHandle,
        b: &ResourceHandle,
        sim: &mut Sim,
        service: SimDuration,
        hop: SimDuration,
        done: Completion,
    ) {
        debug_assert!(!Rc::ptr_eq(a, b), "a pair occupies two resources");
        if matches!(done, Completion::Detached) {
            Self::submit(a, sim, service, Completion::Detached);
            Self::submit(b, sim, service, Completion::Detached);
            return;
        }
        let position = sim.position();
        let free = |r: &ResourceHandle| {
            let mut r = r.borrow_mut();
            r.settle(position);
            r.busy < r.slots
        };
        let (a_free, b_free) = (free(a), free(b));
        let (then_a, then_b) = if a_free || b_free {
            let last = Completion::JoinArm(sim.join(1, hop, done));
            if a_free {
                (Completion::Detached, last)
            } else {
                (last, Completion::Detached)
            }
        } else {
            let join = sim.join(2, hop, done);
            (Completion::JoinArm(join), Completion::JoinArm(join))
        };
        Self::submit(a, sim, service, then_a);
        Self::submit(b, sim, service, then_b);
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
        let mut r = this.borrow_mut();
        r.settle(sim.position());
        r.advance_integral(sim.now());
        r.book(service, waited);
        match r.queue.pop_front() {
            Some(p) => {
                let waited = sim.now().since(p.enqueued);
                r.start(&this, sim, p.service, waited, p.then);
            }
            None => r.busy -= 1,
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

    // ---- reserved keys ----

    #[test]
    fn detached_request_on_a_free_slot_fires_no_event() {
        let mut sim = Sim::new();
        let res = Resource::new("cpu", 1);
        Resource::submit(
            &res,
            &mut sim,
            SimDuration::from_micros(40),
            Completion::Detached,
        );
        assert_eq!(sim.pending(), 0, "no event filed");
        // Busy through 40 µs and no further.
        sim.run_until(SimTime::from_micros(39));
        assert_eq!(res.borrow_mut().busy_integral_us(sim.now()), 39);
        assert_eq!(res.borrow().busy(), 1);
        sim.run_until(SimTime::from_micros(40));
        assert_eq!(res.borrow_mut().busy_integral_us(sim.now()), 40);
        // A submit at 40 µs finds the slot free: nothing queues.
        let log = collect_completions(&res, &mut sim, &[10]);
        assert_eq!(res.borrow().queue_len(), 0);
        sim.run_until(SimTime::from_micros(1_000));
        assert_eq!(*log.borrow(), vec![(0, SimTime::from_micros(50))]);
        assert_eq!(sim.events_executed(), 1, "only the waited-on request fired");
        assert_eq!(res.borrow_mut().busy_integral_us(sim.now()), 50);
        let stats = res.borrow().stats();
        assert_eq!(
            (stats.completed, stats.service_us, stats.wait_us),
            (2, 50, 0)
        );
    }

    #[test]
    fn a_drained_queue_settles_reserved_requests() {
        let mut first = Sim::new();
        let res = Resource::new("disk", 1);
        let service = SimDuration::from_micros(70);
        Resource::submit(&res, &mut first, service, Completion::Detached);
        assert_eq!(first.run_to_completion(), 0);
        // The clock ends where the completion event would have left it,
        // and the resource is idle.
        assert_eq!(first.now(), SimTime::from_micros(70));
        assert_eq!(res.borrow().busy(), 0);
        assert_eq!(res.borrow().stats().completed, 1);
        assert_eq!(res.borrow_mut().busy_integral_us(first.now()), 70);
        // So a second simulator driving the same resource finds it free.
        let mut second = Sim::new();
        let log = collect_completions(&res, &mut second, &[10]);
        second.run_to_completion();
        assert_eq!(*log.borrow(), vec![(0, SimTime::from_micros(10))]);
    }

    #[test]
    fn zero_service_detached_request_holds_its_slot_for_the_rest_of_the_event() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let log: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let (r, l) = (res.clone(), log.clone());
        sim.after(SimDuration::from_micros(5), move |sim| {
            Resource::submit(&r, sim, SimDuration::ZERO, Completion::Detached);
            let l = l.clone();
            let then = Completion::call(move |sim| l.borrow_mut().push(sim.now()));
            Resource::submit(&r, sim, SimDuration::ZERO, then);
            assert_eq!(r.borrow().queue_len(), 1, "the second request queues");
        });
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec![SimTime::from_micros(5)]);
        // The timer, the detached request's completion (it had a queue to
        // re-arm) and the queued request's.
        assert_eq!(sim.events_executed(), 3);
        let stats = res.borrow().stats();
        assert_eq!((stats.completed, stats.wait_us, stats.max_queue), (2, 0, 1));
    }

    #[test]
    fn a_key_reserved_after_run_until_returns_is_not_yet_past() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let log: Rc<RefCell<Vec<&str>>> = Rc::new(RefCell::new(Vec::new()));
        let note = |tag: &'static str| {
            let l = log.clone();
            Completion::call(move |_| l.borrow_mut().push(tag))
        };
        sim.run_until(SimTime::from_micros(5));
        // Reserved on (5 µs, seq 0): as an event it would still be due.
        Resource::submit(&res, &mut sim, SimDuration::ZERO, Completion::Detached);
        Resource::submit(&res, &mut sim, SimDuration::from_micros(10), note("b"));
        assert_eq!(res.borrow().queue_len(), 1, "b queues behind it");
        sim.post(SimTime::from_micros(15), note("c"));
        sim.run_to_completion();
        // `b` is re-armed when the detached request completes, after `c`
        // was posted for the same instant.
        assert_eq!(*log.borrow(), vec!["c", "b"]);
    }

    #[test]
    fn a_request_queued_behind_a_reserved_one_keeps_the_eager_position() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let log: Rc<RefCell<Vec<&str>>> = Rc::new(RefCell::new(Vec::new()));
        let note = |tag: &'static str| {
            let l = log.clone();
            Completion::call(move |_| l.borrow_mut().push(tag))
        };
        // The detached request's completion would be (10 µs, seq 0).
        Resource::submit(
            &res,
            &mut sim,
            SimDuration::from_micros(10),
            Completion::Detached,
        );
        // (10 µs, seq 1): fires after it, and posts `c` for the same instant.
        let c = note("c");
        let l = log.clone();
        sim.post(
            SimTime::from_micros(10),
            Completion::call(move |sim| {
                l.borrow_mut().push("a");
                sim.post_after(SimDuration::ZERO, c);
            }),
        );
        // Queues: the detached request becomes its event under seq 0, so
        // `x` is re-armed before `a` runs and fires before `c`. Under a
        // fresh key it would be re-armed after `a`, and fire after `c`.
        Resource::submit(&res, &mut sim, SimDuration::ZERO, note("x"));
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec!["a", "x", "c"]);
        assert_eq!(sim.events_executed(), 4);
    }
}
