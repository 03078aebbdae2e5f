//! The event loop: a virtual clock plus an ordered queue of typed events.
//!
//! # What an event is
//!
//! A queue entry carries a small enum, dispatched by one `match` in
//! [`Sim::step`]:
//!
//! * a [`Completion`] due at a time — plain data on the hot path
//!   ([`Signal`]: ids and timestamps for the layers above, delivered to the
//!   one handler installed with [`Sim::set_handler`]; or nothing at all), or
//!   a boxed closure ([`Completion::Call`]) for cold paths, which is what
//!   [`Sim::schedule`] / [`Sim::after`] wrap;
//! * a **repeater** ([`Sim::every`]), whose closure is boxed once.
//!
//! Only `Call` owns an environment. A data event and a steady-state
//! repeater firing perform **zero heap allocations**; a closure one-shot
//! costs exactly its box (both asserted by the counting-allocator test in
//! `tests/alloc_free.rs`). Firing counts by kind of completion fall out of
//! the dispatcher ([`Sim::events_by_kind`]).
//!
//! A resource request is not an event of its own: a
//! [`Resource`](crate::resource::Resource) books its start and finish when
//! it is submitted, and a waited-on request is one posted completion, due at
//! its finish; a detached one is none. Nor is an outcome that nobody waits
//! on but somebody reads later (a follower's acknowledgement of a shipped
//! log batch): [`Sim::book`] returns the [`Rank`] its event would have
//! taken, and a reader counts it once its own [`Sim::rank`] is at or past
//! it. The kernel only remembers the latest finish booked, so that a
//! [`Sim::step`] that finds the queue drained leaves the clock there.
//!
//! # Order
//!
//! Events fire in order of their [`Rank`], `(time, as-of instant,
//! sequence)`. The as-of instant ranks events due at the same µs by the
//! moment their outcome was settled:
//!
//! * a resource request that had to queue: the instant it starts service;
//! * a message ([`submit_pair`](crate::resource::Resource::submit_pair)):
//!   the instant its later link arm clears;
//! * anything else: the instant it is posted.
//!
//! That is the instant at which a kernel that ran every service start and
//! link arm as an event of its own would have posted it. The sequence
//! number is taken when the event is posted, so ties on both fire FIFO. All
//! randomness elsewhere comes from seeded generators, so two runs of the
//! same experiment fire the same events in the same order.
//!
//! # Queue layout — one binary heap
//!
//! Every pending event is one entry in one `BinaryHeap`, under its rank,
//! ordered inverted so the earliest rank pops first. A repeater re-arms by
//! pushing its own entry back under a fresh rank, so it keeps its closure
//! box and allocates nothing. The queue stays small (about a thousand
//! entries on the busiest workload), so its `O(log n)` push and pop are a
//! small share of a step.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use wattdb_common::{Rank, SimDuration, SimTime};

use crate::event::{Completion, RepeatFn, Signal, EVENT_KINDS, KIND_REPEAT};

/// The interpreter of [`Signal`]s. Shared so a firing can call it while it
/// schedules more events on the kernel that owns it.
type Handler = Rc<dyn Fn(&mut Sim, Signal)>;

/// What a pending event does when it fires.
enum EventKind {
    /// A completion due at the entry's time.
    Fire(Completion),
    Repeat {
        f: RepeatFn,
        period: SimDuration,
    },
}

/// A pending event: its payload under its rank, ordered so the earliest
/// rank pops first from the (max-)`BinaryHeap`.
struct Entry {
    due: Rank,
    kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so the earliest key pops first.
        other.due.cmp(&self.due)
    }
}

/// The simulation kernel.
///
/// ```
/// use wattdb_sim::Sim;
/// use wattdb_common::{SimDuration, SimTime};
/// use std::{cell::RefCell, rc::Rc};
///
/// let mut sim = Sim::new();
/// let log = Rc::new(RefCell::new(Vec::new()));
/// let l = log.clone();
/// sim.after(SimDuration::from_millis(5), move |sim| {
///     l.borrow_mut().push(sim.now());
/// });
/// sim.run_to_completion();
/// assert_eq!(log.borrow()[0], SimTime::from_millis(5));
/// ```
pub struct Sim {
    now: SimTime,
    seq: u64,
    /// The latest finish any resource request has booked: where a drained
    /// queue leaves the clock.
    booked_until: SimTime,
    executed: u64,
    /// Every pending event, earliest key on top.
    queue: BinaryHeap<Entry>,
    handler: Option<Handler>,
    /// Events fired per kind, indexed like [`EVENT_KINDS`].
    by_kind: [u64; EVENT_KINDS.len()],
    /// The rank of the event firing now, `None` between events.
    firing: Option<Rank>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// A simulator at time zero with an empty queue.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            booked_until: SimTime::ZERO,
            executed: 0,
            queue: BinaryHeap::new(),
            handler: None,
            by_kind: [0; EVENT_KINDS.len()],
            firing: None,
        }
    }

    /// Install the one handler [`Signal`]s are delivered to. A data event
    /// that fires with none installed is a wiring bug and panics.
    pub fn set_handler(&mut self, handler: impl Fn(&mut Sim, Signal) + 'static) {
        self.handler = Some(Rc::new(handler));
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Events executed so far, by kind (names in [`EVENT_KINDS`]); the
    /// counts sum to [`Sim::events_executed`].
    pub fn events_by_kind(&self) -> [(&'static str, u64); EVENT_KINDS.len()] {
        std::array::from_fn(|i| (EVENT_KINDS[i], self.by_kind[i]))
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// File an entry due at `at`, ranked as of `as_of`. Scheduling in the
    /// past is a logic error and panics (it would reorder causality).
    #[inline]
    fn push(&mut self, at: SimTime, as_of: SimTime, kind: EventKind) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let due = Rank { at, as_of, seq };
        self.queue.push(Entry { due, kind });
    }

    /// Make `then` due at absolute time `at`.
    #[inline]
    pub fn post(&mut self, at: SimTime, then: Completion) {
        self.push(at, self.now, EventKind::Fire(then));
    }

    /// Make `then` due after a relative delay.
    #[inline]
    pub fn post_after(&mut self, delay: SimDuration, then: Completion) {
        self.post(self.now + delay, then);
    }

    /// Make `then` due at `at`, ranked among the events due then as if it
    /// had been posted at `as_of` (a booked service start or link clear).
    pub(crate) fn post_as_of(&mut self, at: SimTime, as_of: SimTime, then: Completion) {
        debug_assert!(as_of >= self.now && as_of <= at, "as-of outside [now, at]");
        self.push(at, as_of, EventKind::Fire(then));
    }

    /// Where a reader stands in the firing order: the rank of the event
    /// firing now; between events, [`Rank::end_of`] the clock.
    pub fn rank(&self) -> Rank {
        self.firing.unwrap_or(Rank::end_of(self.now))
    }

    /// Book an outcome due at `at`, settled as of `as_of`, that posts no
    /// event: returns the rank an event posted now would take (it has
    /// happened for a reader whose [`Sim::rank`] is at or past it), and a
    /// drained queue leaves the clock no earlier than `at`.
    pub fn book(&mut self, at: SimTime, as_of: SimTime) -> Rank {
        debug_assert!(as_of >= self.now && as_of <= at, "as-of outside [now, at]");
        self.occupy_until(at);
        let seq = self.seq;
        Rank { at, as_of, seq }
    }

    /// An outcome booked through `end`: a drained queue leaves the clock
    /// no earlier.
    #[inline]
    pub(crate) fn occupy_until(&mut self, end: SimTime) {
        self.booked_until = self.booked_until.max(end);
    }

    /// Schedule closure `f` at absolute time `at` (one box; see
    /// [`Sim::post`] for the allocation-free form).
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) {
        self.post(at, Completion::call(f));
    }

    /// Schedule closure `f` after a relative delay.
    pub fn after(&mut self, delay: SimDuration, f: impl FnOnce(&mut Sim) + 'static) {
        self.schedule(self.now + delay, f);
    }

    /// Run `then` now, inside the current event.
    #[inline]
    pub fn complete(&mut self, then: Completion) {
        match then {
            Completion::Detached => {}
            Completion::Call(f) => f(self),
            Completion::Signal(signal) => {
                let handler = self.handler.clone();
                handler.expect("a data event fired with no handler installed")(self, signal);
            }
        }
    }

    /// Repeat `f` every `period`, first firing one period from now.
    /// The closure is boxed once; each firing re-arms by pushing the same
    /// box back, so steady-state repetition allocates nothing.
    pub fn every(&mut self, period: SimDuration, f: impl FnMut(&mut Sim) -> bool + 'static) {
        assert!(period.as_micros() > 0, "repeater period must be positive");
        let kind = EventKind::Repeat {
            f: Box::new(f),
            period,
        };
        self.push(self.now + period, self.now, kind);
    }

    /// Execute the next event, if any. Returns false when the queue is
    /// empty, having moved the clock to the end of the last resource
    /// request booked if that is later.
    pub fn step(&mut self) -> bool {
        let Some(Entry { due, kind }) = self.queue.pop() else {
            self.now = self.now.max(self.booked_until);
            return false;
        };
        debug_assert!(due.at >= self.now);
        self.now = due.at;
        self.executed += 1;
        self.firing = Some(due);
        match kind {
            EventKind::Fire(then) => {
                self.by_kind[then.kind()] += 1;
                self.complete(then);
            }
            EventKind::Repeat { mut f, period } => {
                self.by_kind[KIND_REPEAT] += 1;
                if f(self) {
                    // Re-arm with the same closure box under a fresh key:
                    // the order of a new closure scheduled after each
                    // firing, without its per-period allocation.
                    self.push(self.now + period, self.now, EventKind::Repeat { f, period });
                }
            }
        }
        self.firing = None;
        true
    }

    /// Run until the queue drains. Returns events executed by this call.
    pub fn run_to_completion(&mut self) -> u64 {
        let before = self.executed;
        while self.step() {}
        self.executed - before
    }

    /// Run all events with `time <= t`, then advance the clock to exactly
    /// `t` (even if idle). Returns events executed by this call.
    pub fn run_until(&mut self, t: SimTime) -> u64 {
        let before = self.executed;
        while self.queue.peek().is_some_and(|e| e.due.at <= t) {
            self.step();
        }
        self.now = self.now.max(t);
        self.executed - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventFn;
    use crate::profile::CostCategory;
    use crate::resource::Resource;
    use std::cell::RefCell;
    use std::rc::Rc;
    use wattdb_common::NodeId;

    type EventLog = Rc<RefCell<Vec<(SimTime, u32)>>>;

    fn recorder() -> (EventLog, impl Fn(u32) -> EventFn) {
        let log: EventLog = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let mk = move |tag: u32| -> EventFn {
            let l = l.clone();
            Box::new(move |sim: &mut Sim| l.borrow_mut().push((sim.now(), tag)))
        };
        (log, mk)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule(SimTime::from_millis(30), mk(3));
        sim.schedule(SimTime::from_millis(10), mk(1));
        sim.schedule(SimTime::from_millis(20), mk(2));
        assert_eq!(sim.run_to_completion(), 3);
        let tags: Vec<u32> = log.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn equal_time_events_fifo() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        for i in 0..10 {
            sim.schedule(SimTime::from_millis(5), mk(i));
        }
        sim.run_to_completion();
        let tags: Vec<u32> = log.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        let follow = mk(2);
        sim.after(SimDuration::from_millis(1), move |sim| {
            sim.after(SimDuration::from_millis(1), follow);
        });
        sim.run_to_completion();
        assert_eq!(log.borrow()[0], (SimTime::from_millis(2), 2));
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule(SimTime::from_secs(1), mk(1));
        sim.schedule(SimTime::from_secs(3), mk(3));
        let n = sim.run_until(SimTime::from_secs(2));
        assert_eq!(n, 1);
        assert_eq!(sim.now(), SimTime::from_secs(2), "idle clock advance");
        assert_eq!(log.borrow().len(), 1);
        sim.run_to_completion();
        assert_eq!(log.borrow().len(), 2);
    }

    #[test]
    fn run_until_inclusive_of_boundary() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule(SimTime::from_secs(2), mk(1));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(log.borrow().len(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new();
        sim.schedule(SimTime::from_secs(5), |_| {});
        sim.run_to_completion();
        sim.schedule(SimTime::from_secs(1), |_| {});
    }

    #[test]
    fn zero_delay_event_runs_at_same_time() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        let e = mk(7);
        sim.after(SimDuration::from_millis(4), move |sim| {
            sim.after(SimDuration::ZERO, e);
        });
        sim.run_to_completion();
        assert_eq!(log.borrow()[0], (SimTime::from_millis(4), 7));
    }

    #[test]
    fn counters() {
        let mut sim = Sim::new();
        sim.after(SimDuration::from_millis(1), |_| {});
        sim.after(SimDuration::from_millis(2), |_| {});
        assert_eq!(sim.pending(), 2);
        sim.run_to_completion();
        assert_eq!(sim.events_executed(), 2);
        assert_eq!(sim.pending(), 0);
    }

    // ---- typed events ----

    fn count_of(sim: &Sim, kind: &str) -> u64 {
        let by_kind = sim.events_by_kind();
        by_kind.iter().find(|(name, _)| *name == kind).unwrap().1
    }

    #[test]
    fn every_kind_is_counted_under_its_own_name() {
        let (job, node, since) = (1, NodeId(2), SimTime::ZERO);
        let category = CostCategory::Cpu;
        let signals = [
            (
                Signal::Resume {
                    job,
                    category,
                    since,
                },
                "resume",
            ),
            (
                Signal::PageOffDisk {
                    job,
                    since,
                    storage: node,
                    exec: node,
                },
                "page_off_disk",
            ),
            (Signal::Retry { job }, "retry"),
            (Signal::FlushLog { node }, "flush_log"),
            (Signal::FlushDone { node, batch: 0 }, "flush_done"),
            (Signal::ClientArrival { client: 3 }, "client_arrival"),
            (Signal::PoolArrival { carrier: 4 }, "pool_arrival"),
        ];
        let mut sim = Sim::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        sim.set_handler(move |_, signal| s.borrow_mut().push(signal));
        for (i, (signal, name)) in signals.into_iter().enumerate() {
            // Each kind fires i + 1 times, so a swapped index shows.
            for _ in 0..=i {
                sim.post_after(SimDuration::from_millis(1), signal.into());
            }
            sim.run_to_completion();
            assert_eq!(count_of(&sim, name), i as u64 + 1, "{name}");
            assert_eq!(seen.borrow().last(), Some(&signal));
        }
        sim.after(SimDuration::ZERO, |_| {});
        sim.post_after(SimDuration::ZERO, Completion::Detached);
        sim.every(SimDuration::from_millis(1), |_| false);
        let res = Resource::new("r", 1);
        Resource::submit(&res, &mut sim, SimDuration::ZERO, Completion::Detached);
        sim.run_to_completion();
        for (kind, n) in [
            ("call", 1),
            ("repeat", 1),
            // Posted; the detached request posts nothing.
            ("detached", 1),
        ] {
            assert_eq!(count_of(&sim, kind), n, "{kind}");
        }
        let total: u64 = sim.events_by_kind().iter().map(|(_, n)| n).sum();
        assert_eq!(total, sim.events_executed());
        // A replica's acknowledgement is booked, not an event of its own.
        assert!(!EVENT_KINDS.contains(&"ship_ack"));
    }

    #[test]
    #[should_panic(expected = "no handler installed")]
    fn data_event_without_a_handler_panics() {
        let mut sim = Sim::new();
        sim.post_after(SimDuration::ZERO, Signal::Retry { job: 1 }.into());
        sim.run_to_completion();
    }

    // ---- order across near, far and same-millisecond events ----

    /// Interleaved near, far and same-millisecond events still fire in
    /// exact (time, seq) order.
    #[test]
    fn wheel_and_overflow_interleave_in_order() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        // Seconds away.
        sim.schedule(SimTime::from_secs(10), mk(4));
        // Within a few hundred ms.
        sim.schedule(SimTime::from_millis(100), mk(1));
        sim.schedule(SimTime::from_millis(200), mk(2));
        // The same millisecond as event 1, later micros within it.
        sim.schedule(SimTime::from_micros(100_500), mk(5));
        // Seconds away, earlier than the other far event.
        sim.schedule(SimTime::from_secs(5), mk(3));
        sim.run_to_completion();
        let order: Vec<u32> = log.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(order, vec![1, 5, 2, 3, 4]);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    /// A far event posted early fires before a nearer-looking event posted
    /// later that falls after it.
    #[test]
    fn overflow_entering_horizon_beats_fresh_wheel_events() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule(SimTime::from_secs(1), mk(1)); // a second away at t = 0
        let late = mk(2);
        sim.schedule(SimTime::from_millis(990), move |sim| {
            // Now the 1 s event is 10 ms away.
            sim.after(SimDuration::from_millis(50), late); // t = 1.04 s
        });
        sim.run_to_completion();
        let order: Vec<u32> = log.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn a_queue_entry_is_56_bytes() {
        // Down from 64 when a resource completion was an entry of its own.
        assert_eq!(std::mem::size_of::<Entry>(), 56);
    }

    /// Events due at the same µs fire by the instant they were settled,
    /// then FIFO.
    #[test]
    fn same_time_events_rank_by_their_as_of_instant() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        let at = SimTime::from_micros(50);
        sim.post_as_of(at, SimTime::from_micros(30), Completion::Call(mk(3)));
        sim.post_as_of(at, SimTime::from_micros(20), Completion::Call(mk(2)));
        sim.post(at, Completion::Call(mk(1)));
        sim.post_as_of(at, SimTime::from_micros(20), Completion::Call(mk(4)));
        sim.run_to_completion();
        let order: Vec<u32> = log.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(order, vec![1, 2, 4, 3]);
    }

    /// A booked outcome has happened for a reader ranked at or after the
    /// event it stands for, and for no reader before it.
    #[test]
    fn a_booked_outcome_ranks_where_its_event_would_have() {
        let mut sim = Sim::new();
        let (at, as_of) = (SimTime::from_micros(50), SimTime::from_micros(30));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let reader = |tag: u32| {
            let s = seen.clone();
            Completion::call(move |sim: &mut Sim| s.borrow_mut().push((tag, sim.rank())))
        };
        // Posted before the booking: the same instant and as-of, earlier.
        sim.post_as_of(at, as_of, reader(1));
        let booked = sim.book(at, as_of);
        // Posted after it: ranked later at the same µs and as-of.
        sim.post_as_of(at, as_of, reader(2));
        // The same µs, settled earlier or later.
        sim.post_as_of(at, SimTime::from_micros(20), reader(3));
        sim.post_as_of(at, SimTime::from_micros(40), reader(4));
        assert_eq!(sim.pending(), 4, "the booking posts nothing");
        sim.run_to_completion();
        let landed: Vec<(u32, bool)> = (seen.borrow().iter())
            .map(|&(tag, rank)| (tag, booked <= rank))
            .collect();
        assert_eq!(landed, vec![(3, false), (1, false), (2, true), (4, true)]);
        // Between events every outcome due by the clock has happened.
        assert!(booked <= sim.rank() && sim.rank() == Rank::end_of(at));
        assert_eq!(sim.events_executed(), 4);
        // A booking keeps a drained queue's clock until it is due.
        sim.book(SimTime::from_micros(90), SimTime::from_micros(60));
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::from_micros(90));
    }

    #[test]
    fn kernel_every_repeats_and_stops() {
        let mut sim = Sim::new();
        let hits: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        sim.every(SimDuration::from_secs(1), move |sim| {
            h.borrow_mut().push(sim.now());
            h.borrow().len() < 3
        });
        sim.run_to_completion();
        assert_eq!(
            *hits.borrow(),
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(3)
            ]
        );
        assert_eq!(sim.pending(), 0);
    }
}
