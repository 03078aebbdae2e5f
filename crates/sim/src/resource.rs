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
//! # Departures booked at submit
//!
//! In a FIFO server whose service times are known (§3.1), a request's
//! departure is fixed the moment it arrives: it takes the slot that frees
//! first, starts at `max(now, free at)` and finishes `service` later. So
//! [`Resource::submit`] books both then and there, and the resource keeps
//! only
//!
//! * one *free at* time per slot;
//! * the total service booked (in [`ResourceStats::service_us`]): the busy
//!   integral at `now` is that total less the work still ahead of `now` on
//!   each slot, `Σ max(0, free at − now)`. This is exact because no slot
//!   idles between the latest submit and its free-at time, and the clock
//!   may not go back past the latest submit (an `assert`);
//! * the start times of the requests still waiting, in FIFO order, from
//!   which [`ResourceStats::max_queue`] is read.
//!
//! A waited-on request posts its completion once, due at its finish and
//! ranked as of its start (see [`crate::kernel`]); a
//! [`Completion::Detached`] one posts nothing. [`Resource::stream`] submits
//! a bulk transfer a piece at a time, so small requests queue between its
//! pieces; in between, it waits in a slot of the kernel's recycled pool
//! that the piece's [`Completion::Chunk`] names.

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

/// Aggregate counters for a resource, for utilization and wait accounting.
/// A request counts when it is submitted, with the wait and service it is
/// booked for.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceStats {
    /// Requests booked.
    pub completed: u64,
    /// Sum of service times of booked requests (µs).
    pub service_us: u64,
    /// Sum of queue-wait times of booked requests (µs).
    pub wait_us: u64,
    /// Longest queue observed: requests submitted but not yet started, at
    /// a submit.
    pub max_queue: usize,
}

/// A multi-slot FIFO queueing server.
pub struct Resource {
    name: String,
    /// When each slot is next free.
    free_at: Vec<SimTime>,
    /// Start times of the requests that had not started at the latest
    /// submit, earliest first.
    waiting: VecDeque<SimTime>,
    /// The latest submit's instant.
    last_submit: SimTime,
    stats: ResourceStats,
}

impl Resource {
    /// Create a shared resource with `slots` parallel service stations.
    pub fn new(name: impl Into<String>, slots: u32) -> ResourceHandle {
        assert!(slots > 0, "a resource needs at least one slot");
        Rc::new(RefCell::new(Resource {
            name: name.into(),
            free_at: vec![SimTime::ZERO; slots as usize],
            waiting: VecDeque::new(),
            last_submit: SimTime::ZERO,
            stats: ResourceStats::default(),
        }))
    }

    /// Number of parallel service stations.
    pub fn slots(&self) -> u32 {
        self.free_at.len() as u32
    }

    /// Requests waiting in the queue at `now`.
    pub fn queue_len(&self, now: SimTime) -> usize {
        self.waiting.iter().filter(|&&start| start > now).count()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ResourceStats {
        self.stats
    }

    /// The clock reads `now`: it may not have gone back past the latest
    /// submit, which would serve a request in another run's past.
    fn check_clock(&self, now: SimTime) {
        assert!(
            now >= self.last_submit,
            "resource {} driven by a clock that went back from {} to {now}",
            self.name,
            self.last_submit
        );
    }

    /// Monotonic busy integral in slot-µs up to `now`, the kernel's clock.
    /// Utilization over a window is `Δintegral / (Δt · slots)`; see
    /// [`UtilizationProbe`].
    ///
    /// [`UtilizationProbe`]: crate::probe::UtilizationProbe
    pub fn busy_integral_us(&self, now: SimTime) -> u64 {
        self.check_clock(now);
        let ahead: u64 = self.free_at.iter().map(|f| f.since(now).as_micros()).sum();
        self.stats.service_us - ahead
    }

    /// Book a request of `service` submitted at `now` on the slot that
    /// frees first; returns its `(start, finish)`.
    fn book(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        self.check_clock(now);
        self.last_submit = now;
        let (slot, free) = self
            .free_at
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, free)| free)
            .expect("a resource has a slot");
        let start = now.max(free);
        let finish = start + service;
        self.free_at[slot] = finish;
        while self.waiting.front().is_some_and(|&s| s <= now) {
            self.waiting.pop_front();
        }
        if start > now {
            self.waiting.push_back(start);
            self.stats.max_queue = self.stats.max_queue.max(self.waiting.len());
        }
        self.stats.completed += 1;
        self.stats.service_us += service.as_micros();
        self.stats.wait_us += start.since(now).as_micros();
        (start, finish)
    }

    /// Submit a request: serve for `service` once a slot frees up, then run
    /// `then`. Service is FIFO. Returns the instant the request finishes.
    pub fn submit(
        this: &ResourceHandle,
        sim: &mut Sim,
        service: SimDuration,
        then: Completion,
    ) -> SimTime {
        let (start, finish) = this.borrow_mut().book(sim.now(), service);
        sim.booked_until = sim.booked_until.max(finish);
        if !matches!(then, Completion::Detached) {
            sim.post_as_of(finish, start, then);
        }
        finish
    }

    /// Occupy `a` and `b` in parallel for the same `service` — a message on
    /// a sender's egress and a receiver's ingress — and make `done` due
    /// `hop` after the later of the two clears. Returns that clear instant.
    pub fn submit_pair(
        a: &ResourceHandle,
        b: &ResourceHandle,
        sim: &mut Sim,
        service: SimDuration,
        hop: SimDuration,
        done: Completion,
    ) -> SimTime {
        debug_assert!(!Rc::ptr_eq(a, b), "a pair occupies two resources");
        let clear_a = Self::submit(a, sim, service, Completion::Detached);
        let clear = clear_a.max(Self::submit(b, sim, service, Completion::Detached));
        if !matches!(done, Completion::Detached) {
            sim.post_as_of(clear + hop, clear, done);
        }
        clear
    }

    /// Move `bytes` over `a` (a drive), or over `a` and `b` in parallel (a
    /// message's egress and ingress), in pieces of at most `chunk` bytes
    /// priced by `service`, each submitted when the one before it is done;
    /// the last makes `done` due `hop` after it clears. Returns the instant
    /// the first piece clears.
    pub fn stream(
        sim: &mut Sim,
        (a, b): (&ResourceHandle, Option<&ResourceHandle>),
        (bytes, chunk, hop): (u64, u64, SimDuration),
        service: impl Fn(u64) -> SimDuration,
        done: Completion,
    ) -> SimTime {
        let left = bytes.div_ceil(chunk).max(1);
        let tail = service(bytes - (left - 1) * chunk);
        let full = if left > 1 { service(chunk) } else { tail };
        match (left, b) {
            (1, Some(b)) => Resource::submit_pair(a, b, sim, tail, hop, done),
            (1, None) => Resource::submit(a, sim, tail, done),
            _ => Chunks((a.clone(), b.cloned()), left, [full, tail, hop], done).next(sim),
        }
    }
}

/// A chunked transfer between two pieces ([`Resource::stream`]): its arms,
/// the pieces not yet submitted, the service of a full piece and of the
/// last, the last one's hop, and what the last one completes.
pub(crate) struct Chunks(Arms, u64, [SimDuration; 3], Completion);

type Arms = (ResourceHandle, Option<ResourceHandle>);

impl Chunks {
    /// Submit the next piece: the last carries `done`, any other parks the
    /// transfer in the kernel's pool until it clears. Returns when it clears.
    pub(crate) fn next(mut self, sim: &mut Sim) -> SimTime {
        self.1 -= 1;
        let (arms, [full, tail, hop]) = (self.0.clone(), self.2);
        let (service, hop, then) = match self.1 {
            0 => (tail, hop, self.3),
            _ => (full, SimDuration::ZERO, Completion::Chunk(sim.park(self))),
        };
        match arms {
            (a, Some(b)) => Resource::submit_pair(&a, &b, sim, service, hop, then),
            (a, None) => Resource::submit(&a, sim, service, then),
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

    type Tags = Rc<RefCell<Vec<&'static str>>>;

    fn tagger() -> (Tags, impl Fn(&'static str) -> Completion) {
        let log: Tags = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let note = move |tag: &'static str| {
            let l = l.clone();
            Completion::call(move |_| l.borrow_mut().push(tag))
        };
        (log, note)
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
    fn a_queued_request_takes_the_slot_that_frees_first() {
        let mut sim = Sim::new();
        let res = Resource::new("cpu", 2);
        let log = collect_completions(&res, &mut sim, &[100, 10, 5, 5]);
        sim.run_to_completion();
        // The third starts at 10 on the second slot, the fourth at 15.
        let ends: Vec<u64> = log.borrow().iter().map(|&(_, t)| t.0).collect();
        assert_eq!(ends, vec![10, 15, 20, 100]);
        let stats = res.borrow().stats();
        assert_eq!((stats.wait_us, stats.max_queue), (10 + 15, 2));
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
        assert_eq!(res.borrow().busy_integral_us(sim.now()), 250);
        // Advance idle time; integral unchanged.
        sim.run_until(SimTime::from_micros(1_000));
        assert_eq!(res.borrow().busy_integral_us(sim.now()), 250);
    }

    #[test]
    fn multi_slot_integral_counts_slot_us() {
        let mut sim = Sim::new();
        let res = Resource::new("cpu", 2);
        let _log = collect_completions(&res, &mut sim, &[100, 100]);
        sim.run_to_completion();
        // Two slots busy for 100 µs each = 200 slot-µs.
        assert_eq!(res.borrow().busy_integral_us(sim.now()), 200);
    }

    #[test]
    fn queued_work_is_not_busy_until_it_starts() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let _log = collect_completions(&res, &mut sim, &[100, 100]);
        for (at, busy, queued) in [(50, 50, 1), (150, 150, 0), (400, 200, 0)] {
            sim.run_until(SimTime::from_micros(at));
            let r = res.borrow();
            assert_eq!(r.busy_integral_us(sim.now()), busy, "at {at} µs");
            assert_eq!(r.queue_len(sim.now()), queued, "at {at} µs");
        }
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
        assert_eq!(res.borrow().queue_len(sim.now()), 0);
        assert_eq!(res.borrow().busy_integral_us(sim.now()), 15);
    }

    #[test]
    fn zero_service_requests_complete() {
        let mut sim = Sim::new();
        let res = Resource::new("noop", 1);
        let log = collect_completions(&res, &mut sim, &[0, 0]);
        sim.run_to_completion();
        assert_eq!(log.borrow().len(), 2);
    }

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
        assert_eq!(res.borrow().busy_integral_us(sim.now()), 39);
        sim.run_until(SimTime::from_micros(40));
        assert_eq!(res.borrow().busy_integral_us(sim.now()), 40);
        // A submit at 40 µs finds the slot free: nothing queues.
        let log = collect_completions(&res, &mut sim, &[10]);
        assert_eq!(res.borrow().queue_len(sim.now()), 0);
        sim.run_until(SimTime::from_micros(1_000));
        assert_eq!(*log.borrow(), vec![(0, SimTime::from_micros(50))]);
        assert_eq!(sim.events_executed(), 1, "only the waited-on request fired");
        assert_eq!(res.borrow().busy_integral_us(sim.now()), 50);
        let stats = res.borrow().stats();
        assert_eq!(
            (stats.completed, stats.service_us, stats.wait_us),
            (2, 50, 0)
        );
    }

    #[test]
    fn detached_requests_behind_a_queue_fire_no_event_either() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let service = SimDuration::from_micros(10);
        for _ in 0..3 {
            Resource::submit(&res, &mut sim, service, Completion::Detached);
        }
        let log = collect_completions(&res, &mut sim, &[10]);
        assert_eq!(sim.pending(), 1, "one event: the waited-on request");
        assert_eq!(sim.run_to_completion(), 1);
        assert_eq!(*log.borrow(), vec![(0, SimTime::from_micros(40))]);
        let stats = res.borrow().stats();
        assert_eq!((stats.wait_us, stats.max_queue), (10 + 20 + 30, 3));
    }

    #[test]
    fn a_drained_queue_leaves_the_clock_at_the_last_finish() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let service = SimDuration::from_micros(70);
        Resource::submit(&res, &mut sim, service, Completion::Detached);
        Resource::submit(&res, &mut sim, service, Completion::Detached);
        assert_eq!(sim.run_to_completion(), 0);
        // Where the last request ends, with the resource idle.
        assert_eq!(sim.now(), SimTime::from_micros(140));
        assert_eq!(res.borrow().queue_len(sim.now()), 0);
        assert_eq!(res.borrow().busy_integral_us(sim.now()), 140);
        assert_eq!(res.borrow().stats().completed, 2);
    }

    #[test]
    #[should_panic(expected = "driven by a clock that went back")]
    fn a_clock_that_goes_back_panics() {
        let res = Resource::new("disk", 1);
        let mut first = Sim::new();
        first.run_until(SimTime::from_micros(70));
        Resource::submit(&res, &mut first, SimDuration::ZERO, Completion::Detached);
        // A second simulator, at time zero, driving the same resource.
        let mut second = Sim::new();
        Resource::submit(&res, &mut second, SimDuration::ZERO, Completion::Detached);
    }

    #[test]
    fn zero_service_request_frees_its_slot_at_once() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let log: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let (r, l) = (res.clone(), log.clone());
        sim.after(SimDuration::from_micros(5), move |sim| {
            Resource::submit(&r, sim, SimDuration::ZERO, Completion::Detached);
            let l = l.clone();
            let then = Completion::call(move |sim| l.borrow_mut().push(sim.now()));
            Resource::submit(&r, sim, SimDuration::ZERO, then);
            assert_eq!(r.borrow().queue_len(sim.now()), 0, "nothing queues");
        });
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec![SimTime::from_micros(5)]);
        // The timer and the waited-on request.
        assert_eq!(sim.events_executed(), 2);
        let stats = res.borrow().stats();
        assert_eq!((stats.completed, stats.wait_us, stats.max_queue), (2, 0, 0));
    }

    #[test]
    fn a_queued_request_ranks_as_of_its_start() {
        let mut sim = Sim::new();
        let res = Resource::new("disk", 1);
        let (log, note) = tagger();
        Resource::submit(
            &res,
            &mut sim,
            SimDuration::from_micros(10),
            Completion::Detached,
        );
        // Due at 10 µs as of 0: fires first, and posts `c` for the same
        // instant as of 10 µs.
        let c = note("c");
        let l = log.clone();
        sim.post(
            SimTime::from_micros(10),
            Completion::call(move |sim| {
                l.borrow_mut().push("a");
                sim.post_after(SimDuration::ZERO, c);
            }),
        );
        // Starts at 10 µs and ends then: as of 10 µs, posted before `c`.
        Resource::submit(&res, &mut sim, SimDuration::ZERO, note("x"));
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec!["a", "x", "c"]);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn a_message_fires_once_hop_after_its_later_arm() {
        let mut sim = Sim::new();
        let (tx, rx) = (Resource::new("tx", 1), Resource::new("rx", 1));
        let (log, note) = tagger();
        let wire = SimDuration::from_micros(10);
        // The ingress is busy until 30 µs: the message clears it at 40.
        Resource::submit(&rx, &mut sim, SimDuration::from_micros(30), note("busy"));
        let hop = SimDuration::from_micros(5);
        let clear = Resource::submit_pair(&tx, &rx, &mut sim, wire, hop, note("msg"));
        assert_eq!(clear, SimTime::from_micros(40));
        // Due with the message, but ranked as of 0 µs: fires before it.
        sim.post(SimTime::from_micros(45), note("timer"));
        sim.run_to_completion();
        assert_eq!(*log.borrow(), vec!["busy", "timer", "msg"]);
        assert_eq!(sim.now(), SimTime::from_micros(45));
        assert_eq!(sim.events_executed(), 3, "one event for the message");
        // A detached message posts nothing.
        Resource::submit_pair(&tx, &rx, &mut sim, wire, hop, Completion::Detached);
        assert_eq!(sim.pending(), 0);
    }
}
