//! The event loop: a virtual clock plus an ordered queue of typed events.
//!
//! # What an event is
//!
//! An arena entry is a small enum, dispatched by one `match` in
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
//! its finish; a detached one is none. The kernel only remembers the latest
//! finish booked, so that a [`Sim::step`] that finds the queue drained
//! leaves the clock where the last request ends.
//!
//! # Order
//!
//! Events fire in order of `(time, as-of instant, sequence)`. The as-of
//! instant ranks events due at the same µs by the moment their outcome was
//! settled:
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
//! # Queue layout — one timer wheel and an overflow heap
//!
//! The kernel's traffic is dominated by short timers: resource service
//! times, client think-times, WAL group-commit ticks, monitoring windows,
//! power samples. A single `BinaryHeap` pays `O(log n)` per insert, which
//! caps how many clients a scenario can model. The queue is therefore split
//! three ways:
//!
//! * a **timer wheel** of 256 buckets, each 1.024 ms wide, giving
//!   `O(1)` insertion for everything within the ~262 ms horizon where
//!   the periodic traffic lives;
//! * an **overflow heap** for events beyond the horizon (rare: long
//!   experiment timers, drift horizons, a request behind a long queue);
//! * a **current-batch heap** holding the events of the slot being
//!   drained, so firing order is exactly the order above.
//!
//! Event payloads live in an **arena** with a free list; a repeating event
//! re-arms by reusing its arena slot.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use wattdb_common::{SimDuration, SimTime};

use crate::event::{Completion, RepeatFn, Signal, EVENT_KINDS, KIND_REPEAT};

/// The interpreter of [`Signal`]s. Shared so a firing can call it while it
/// schedules more events on the kernel that owns it.
type Handler = Rc<dyn Fn(&mut Sim, Signal)>;

/// Slot width is `2^SLOT_SHIFT` µs = 1.024 ms (a power of two so the
/// slot of a timestamp is a shift, not a division).
const SLOT_SHIFT: u32 = 10;
/// Number of wheel slots; horizon = 256 × 1.024 ms ≈ 262 ms.
const WHEEL_SLOTS: u64 = 256;

/// What an arena entry currently holds.
enum EventKind {
    /// Free-list link; `u32::MAX` terminates the list.
    Empty {
        next_free: u32,
    },
    /// A completion due at the entry's time.
    Fire(Completion),
    Repeat {
        f: RepeatFn,
        period: SimDuration,
    },
}

/// When an event fires: due `at`, ranked among the events due at the same
/// µs by `as_of`, then FIFO by `seq`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Due {
    at: SimTime,
    as_of: SimTime,
    seq: u64,
}

/// Arena entry: the payload plus the key it is currently scheduled under.
struct Entry {
    due: Due,
    kind: EventKind,
}

/// Heap key referencing an arena entry. Ordered so the earliest [`Due`]
/// pops first from `BinaryHeap` (which is a max-heap).
struct Key {
    due: Due,
    idx: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so the earliest key pops first.
        other.due.cmp(&self.due)
    }
}

const NO_FREE: u32 = u32::MAX;

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
    /// Arena of event payloads; indices are stable while scheduled.
    arena: Vec<Entry>,
    /// Head of the arena free list (`NO_FREE` when exhausted).
    free_head: u32,
    /// Near-future buckets: slot `t & (WHEEL_SLOTS-1)` holds the
    /// (unsorted) entries of wheel tick `t`, for ticks in
    /// `(cursor, cursor + WHEEL_SLOTS)`.
    wheel: Vec<Vec<u32>>,
    /// Total entries across all wheel slots.
    wheel_len: usize,
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<Key>,
    /// Events of the tick currently being drained, in exact key order.
    current: BinaryHeap<Key>,
    /// Wheel tick the `current` batch was drained up to. All wheel
    /// entries sit at ticks strictly greater than `cursor`.
    cursor: u64,
    handler: Option<Handler>,
    /// Events fired per kind, indexed like [`EVENT_KINDS`].
    by_kind: [u64; EVENT_KINDS.len()],
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.0 >> SLOT_SHIFT
}

impl Sim {
    /// A simulator at time zero with an empty queue.
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            booked_until: SimTime::ZERO,
            executed: 0,
            arena: Vec::new(),
            free_head: NO_FREE,
            // Pre-size each slot so the first events landing in a
            // never-touched bucket don't allocate mid-run. A request is
            // filed when it is submitted, so a queue on one disk puts
            // several entries in a slot at once.
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::with_capacity(32)).collect(),
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            current: BinaryHeap::new(),
            cursor: 0,
            handler: None,
            by_kind: [0; EVENT_KINDS.len()],
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
        self.current.len() + self.wheel_len + self.overflow.len()
    }

    /// Grab an arena slot off the free list (or grow the arena) and
    /// fill it.
    fn alloc_entry(&mut self, due: Due, kind: EventKind) -> u32 {
        if self.free_head != NO_FREE {
            let idx = self.free_head;
            let e = &mut self.arena[idx as usize];
            self.free_head = match e.kind {
                EventKind::Empty { next_free } => next_free,
                _ => unreachable!("free-list entry not empty"),
            };
            e.due = due;
            e.kind = kind;
            idx
        } else {
            let idx = u32::try_from(self.arena.len()).expect("event arena overflow");
            self.arena.push(Entry { due, kind });
            idx
        }
    }

    fn release_entry(&mut self, idx: u32) {
        self.arena[idx as usize].kind = EventKind::Empty {
            next_free: self.free_head,
        };
        self.free_head = idx;
    }

    /// File an already-allocated entry under its key.
    fn enqueue(&mut self, idx: u32) {
        let due = self.arena[idx as usize].due;
        let tick = tick_of(due.at);
        if tick <= self.cursor {
            // The entry's tick has already been drained (or is being
            // drained): join the current batch directly. `push`
            // guarantees `at >= now`, so order is still honoured.
            self.current.push(Key { due, idx });
        } else if tick - self.cursor < WHEEL_SLOTS {
            self.wheel[(tick & (WHEEL_SLOTS - 1)) as usize].push(idx);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Key { due, idx });
        }
    }

    /// Ensure `current` holds the next batch of runnable events.
    /// Returns `false` when nothing is pending anywhere.
    fn refill_current(&mut self) -> bool {
        if !self.current.is_empty() {
            return true;
        }
        if self.wheel_len == 0 && self.overflow.is_empty() {
            return false;
        }
        // Earliest occupied wheel tick, if any. Slots map back to a
        // unique tick in (cursor, cursor + WHEEL_SLOTS), so scanning
        // the next WHEEL_SLOTS-1 ticks visits each slot once.
        let mut next_tick = None;
        if self.wheel_len > 0 {
            for t in (self.cursor + 1)..(self.cursor + WHEEL_SLOTS) {
                if !self.wheel[(t & (WHEEL_SLOTS - 1)) as usize].is_empty() {
                    next_tick = Some(t);
                    break;
                }
            }
        }
        // An overflow entry can be earlier than every wheel entry once
        // the cursor has advanced past its insertion horizon.
        if let Some(k) = self.overflow.peek() {
            let t = tick_of(k.due.at);
            if next_tick.is_none_or(|w| t < w) {
                next_tick = Some(t);
            }
        }
        let tick = next_tick.expect("pending count said non-empty");
        self.cursor = tick;
        if self.wheel_len > 0 {
            let slot = &mut self.wheel[(tick & (WHEEL_SLOTS - 1)) as usize];
            self.wheel_len -= slot.len();
            for idx in slot.drain(..) {
                let due = self.arena[idx as usize].due;
                debug_assert_eq!(tick_of(due.at), tick);
                self.current.push(Key { due, idx });
            }
        }
        while let Some(k) = self.overflow.peek() {
            if tick_of(k.due.at) != tick {
                break;
            }
            let k = self.overflow.pop().expect("peeked");
            self.current.push(k);
        }
        true
    }

    /// Allocate and file an entry due at `at`, ranked as of `as_of`.
    /// Scheduling in the past is a logic error and panics (it would
    /// silently reorder causality otherwise).
    #[inline]
    fn push(&mut self, at: SimTime, as_of: SimTime, kind: EventKind) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        let due = Due {
            at,
            as_of,
            seq: self.seq,
        };
        self.seq += 1;
        let idx = self.alloc_entry(due, kind);
        self.enqueue(idx);
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

    /// A resource request booked through `end`: a drained queue leaves the
    /// clock no earlier.
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
    /// The closure is boxed once; each firing re-arms by reusing the
    /// same arena entry, so steady-state repetition allocates nothing.
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
        if !self.refill_current() {
            self.now = self.now.max(self.booked_until);
            return false;
        }
        let key = self.current.pop().expect("refill_current said non-empty");
        debug_assert!(key.due.at >= self.now);
        self.now = key.due.at;
        self.executed += 1;
        // Move the payload out so the arena isn't borrowed while the
        // event runs (events freely schedule more events).
        let kind = std::mem::replace(
            &mut self.arena[key.idx as usize].kind,
            EventKind::Empty { next_free: NO_FREE },
        );
        match kind {
            EventKind::Fire(then) => {
                self.release_entry(key.idx);
                self.by_kind[then.kind()] += 1;
                self.complete(then);
            }
            EventKind::Repeat { mut f, period } => {
                self.by_kind[KIND_REPEAT] += 1;
                if f(self) {
                    // Re-arm in place: same entry, same closure box,
                    // a fresh key — the order of a new closure scheduled
                    // after each firing, without its per-period
                    // allocation.
                    let due = Due {
                        at: self.now + period,
                        as_of: self.now,
                        seq: self.seq,
                    };
                    self.seq += 1;
                    let e = &mut self.arena[key.idx as usize];
                    e.due = due;
                    e.kind = EventKind::Repeat { f, period };
                    self.enqueue(key.idx);
                } else {
                    self.release_entry(key.idx);
                }
            }
            EventKind::Empty { .. } => unreachable!("scheduled entry was empty"),
        }
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
        while self.refill_current() {
            let next_at = self.current.peek().expect("refilled").due.at;
            if next_at > t {
                break;
            }
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
    use wattdb_common::{Lsn, NodeId};

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
            (
                Signal::ShipAck {
                    leader: node,
                    follower: node,
                    through: Lsn(9),
                },
                "ship_ack",
            ),
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
    }

    #[test]
    #[should_panic(expected = "no handler installed")]
    fn data_event_without_a_handler_panics() {
        let mut sim = Sim::new();
        sim.post_after(SimDuration::ZERO, Signal::Retry { job: 1 }.into());
        sim.run_to_completion();
    }

    // ---- timer-wheel specifics ----

    /// Interleaved near (wheel), far (overflow), and same-tick events
    /// still fire in exact (time, seq) order.
    #[test]
    fn wheel_and_overflow_interleave_in_order() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        // Far beyond the 262 ms horizon → overflow heap.
        sim.schedule(SimTime::from_secs(10), mk(4));
        // Within the horizon → wheel.
        sim.schedule(SimTime::from_millis(100), mk(1));
        sim.schedule(SimTime::from_millis(200), mk(2));
        // Same wheel slot as event 1 but later micros within it.
        sim.schedule(SimTime::from_micros(100_500), mk(5));
        // Beyond horizon, earlier than the other overflow event.
        sim.schedule(SimTime::from_secs(5), mk(3));
        sim.run_to_completion();
        let order: Vec<u32> = log.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(order, vec![1, 5, 2, 3, 4]);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    /// Overflow events whose tick has entered the horizon fire before
    /// later wheel events scheduled afterwards.
    #[test]
    fn overflow_entering_horizon_beats_fresh_wheel_events() {
        let mut sim = Sim::new();
        let (log, mk) = recorder();
        sim.schedule(SimTime::from_secs(1), mk(1)); // overflow at t=0
        let late = mk(2);
        sim.schedule(SimTime::from_millis(990), move |sim| {
            // Now the 1 s event is within the wheel horizon of `now`.
            sim.after(SimDuration::from_millis(50), late); // t = 1.04 s
        });
        sim.run_to_completion();
        let order: Vec<u32> = log.borrow().iter().map(|&(_, t)| t).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut sim = Sim::new();
        for round in 0..100u64 {
            sim.after(SimDuration::from_millis(1), |_| {});
            sim.run_until(SimTime::from_millis(round + 1));
        }
        // One live event at a time → the arena never grows past the
        // first allocation.
        assert_eq!(sim.arena.len(), 1);
    }

    #[test]
    fn an_arena_entry_is_56_bytes() {
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
