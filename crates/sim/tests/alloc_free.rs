//! The kernel's hot path must be allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase (the queue's capacity growth amortizes out), a long
//! stretch of repeater firings, data events, resource
//! requests (detached ones included) and messages must report **zero**
//! new allocations from the kernel itself, and a closure one-shot exactly
//! its box. This is the contract that lets a 100×-client scenario run: the
//! event loop's cost per firing is a few pointer moves, not a malloc. The
//! resource tests also pin the event count: one event per waited-on
//! request or message, however contended, and none per detached request.
//!
//! Lives in its own test binary because a global allocator is
//! process-wide; the count is per thread, so the tests (one thread each)
//! do not see one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use wattdb_common::{SimDuration, SimTime};
use wattdb_sim::{Completion, CostCategory, Resource, Signal, Sim};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A repeater firing in steady state performs zero heap allocations:
/// the closure box is pushed back into the queue each period.
#[test]
fn steady_state_repeater_is_allocation_free() {
    let mut sim = Sim::new();
    let count = Rc::new(RefCell::new(0u64));
    let c = count.clone();
    sim.every(SimDuration::from_millis(7), move |_| {
        *c.borrow_mut() += 1;
        true
    });
    // A second repeater on a different period keeps the queue honest
    // (two live entries, interleaving firings).
    sim.every(SimDuration::from_millis(13), |_| true);

    // Warm-up: the queue's capacity stabilizes.
    sim.run_until(SimTime::from_secs(2));
    let fired_before = *count.borrow();
    let before = allocs();

    sim.run_until(SimTime::from_secs(12));

    let after = allocs();
    let fired = *count.borrow() - fired_before;
    assert!(fired > 1_000, "repeater actually ran ({fired} firings)");
    assert_eq!(
        after - before,
        0,
        "steady-state repeater firings allocated ({} allocs over {fired} firings)",
        after - before
    );
}

/// A closure one-shot costs exactly its box: the queue reuses its
/// capacity, so `n` sequential events allocate `n` boxes, not `n` queue
/// entries plus `n` boxes.
#[test]
fn one_shot_events_reuse_arena_entries() {
    let mut sim = Sim::new();
    let hits = Rc::new(Cell::new(0u64));
    // Warm up: the first event grows the queue.
    sim.after(SimDuration::from_millis(1), |_| {});
    sim.run_until(SimTime::from_millis(2));

    let before = allocs();
    let n = 10_000u64;
    for i in 0..n {
        // A capturing closure: its box is a real allocation.
        let h = hits.clone();
        sim.after(SimDuration::from_millis(1), move |_| h.set(h.get() + 1));
        sim.run_until(SimTime::from_millis(3 + i));
    }
    assert_eq!(hits.get(), n);
    assert_eq!(allocs() - before, n, "one box per closure event");
}

/// A sim whose handler counts the data events it is handed.
fn counting_sim() -> (Sim, Rc<Cell<u64>>) {
    let mut sim = Sim::new();
    let seen = Rc::new(Cell::new(0u64));
    let s = seen.clone();
    sim.set_handler(move |_, _| s.set(s.get() + 1));
    (sim, seen)
}

fn resume(job: u64, since: SimTime) -> Completion {
    Signal::Resume {
        job,
        category: CostCategory::Cpu,
        since,
    }
    .into()
}

/// Run `round` in stretches of 262 ms of simulated time (256 × 1.024 ms)
/// until one allocates nothing: the queue has grown to the largest batch
/// the round files in it. Events are filed at submit, so a resource queue
/// eight deep is eight entries in the kernel's queue at once.
fn warm_up(sim: &mut Sim, mut round: impl FnMut(&mut Sim, u64)) {
    let turn = SimDuration::from_micros(256 * 1_024);
    for _ in 0..100 {
        let (before, end) = (allocs(), sim.now() + turn);
        while sim.now() < end {
            round(sim, 1);
        }
        if allocs() == before {
            return;
        }
    }
    panic!("the kernel still allocates after 100 stretches of 262 ms");
}

/// Requests with a data completion allocate nothing, through a contended
/// single-slot resource (every request queues) and an idle two-slot one
/// (none does), and each is one event.
#[test]
fn resource_requests_with_data_completions_are_allocation_free() {
    let (mut sim, seen) = counting_sim();
    let disk = Resource::new("disk", 1);
    let cpu = Resource::new("cpu", 2);
    let service = SimDuration::from_micros(100);
    let round = |sim: &mut Sim, n: u64| {
        for job in 0..n {
            // Eight deep on the one-slot disk, then drain.
            for _ in 0..8 {
                Resource::submit(&disk, sim, service, resume(job, sim.now()));
            }
            Resource::submit(&cpu, sim, service, resume(job, sim.now()));
            Resource::submit(&cpu, sim, service, Completion::Detached);
            sim.run_to_completion();
        }
    };
    warm_up(&mut sim, round);
    let (before, seen_before) = (allocs(), seen.get());
    let events_before = sim.events_executed();
    round(&mut sim, 1_000); // 10 000 submissions
    assert_eq!(seen.get() - seen_before, 9_000, "every data completion ran");
    assert_eq!(sim.events_executed() - events_before, 9_000);
    assert_eq!(disk.borrow().stats().max_queue, 7, "the disk was contended");
    assert_eq!(cpu.borrow().stats().max_queue, 0, "the cpu was idle");
    assert_eq!(allocs() - before, 0, "a resource request allocated");
}

/// Detached requests allocate nothing and post no event, on a free slot,
/// in front of a waited-on request and behind one.
#[test]
fn detached_requests_are_allocation_free() {
    let (mut sim, seen) = counting_sim();
    let cpu = Resource::new("cpu", 4);
    let disk = Resource::new("disk", 1);
    let service = SimDuration::from_micros(100);
    let round = |sim: &mut Sim, n: u64| {
        for job in 0..n {
            for _ in 0..4 {
                Resource::submit(&cpu, sim, service, Completion::Detached);
            }
            Resource::submit(&disk, sim, service, Completion::Detached);
            Resource::submit(&disk, sim, service, resume(job, sim.now()));
            Resource::submit(&disk, sim, service, Completion::Detached);
            sim.run_to_completion();
        }
    };
    warm_up(&mut sim, round);
    let (before, seen_before) = (allocs(), seen.get());
    let events_before = sim.events_executed();
    round(&mut sim, 1_000); // 7 000 submissions
    assert_eq!(seen.get() - seen_before, 1_000, "every data completion ran");
    // Per round: the waited-on request, and nothing else.
    assert_eq!(sim.events_executed() - events_before, 1_000);
    assert_eq!(disk.borrow().stats().max_queue, 2, "the disk was contended");
    assert_eq!(cpu.borrow().stats().max_queue, 0, "the cpu was idle");
    assert_eq!(allocs() - before, 0, "a detached request allocated");
}

/// A message's link pair — the NIC's tx/rx — allocates nothing and is one
/// event, whether its links are free or both busy.
#[test]
fn two_arm_joins_are_allocation_free() {
    let (mut sim, seen) = counting_sim();
    let tx = Resource::new("tx", 1);
    let rx = Resource::new("rx", 1);
    let hop = SimDuration::from_micros(450);
    let round = |sim: &mut Sim, n: u64| {
        for job in 0..n {
            // Two messages in flight at once, the first on free links, the
            // second queued behind it on both.
            for wire in [10, 25] {
                let wire = SimDuration::from_micros(wire);
                Resource::submit_pair(&tx, &rx, sim, wire, hop, resume(job, sim.now()));
            }
            sim.run_to_completion();
        }
    };
    warm_up(&mut sim, round);
    let (before, seen_before) = (allocs(), seen.get());
    let events_before = sim.events_executed();
    round(&mut sim, 5_000); // 10 000 messages
    assert_eq!(
        seen.get() - seen_before,
        10_000,
        "every message delivered once"
    );
    assert_eq!(sim.events_executed() - events_before, 10_000);
    assert_eq!(allocs() - before, 0, "a message allocated");
}
