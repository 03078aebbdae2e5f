//! The kernel's hot path must be allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase (arena growth, heap/wheel capacity growth amortize
//! out), a long stretch of repeater firings, data events, resource
//! requests and joins must report **zero** new allocations from the
//! kernel itself, and a closure one-shot exactly its box. This is the
//! contract that lets a 100×-client scenario run: the event loop's cost
//! per firing is a few pointer moves, not a malloc.
//!
//! Lives in its own test binary because a global allocator is
//! process-wide; the count is per thread, so the tests (one thread each)
//! do not see one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use wattdb_common::{SimDuration, SimTime};
use wattdb_sim::{Completion, CostCategory, Repeater, Resource, Signal, Sim};

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
/// the closure box and arena entry are reused across periods.
#[test]
fn steady_state_repeater_is_allocation_free() {
    let mut sim = Sim::new();
    let count = Rc::new(RefCell::new(0u64));
    let c = count.clone();
    Repeater::every(&mut sim, SimDuration::from_millis(7), move |_| {
        *c.borrow_mut() += 1;
        true
    });
    // A second repeater on a different period keeps the wheel honest
    // (two live arena entries, interleaving slots).
    Repeater::every(&mut sim, SimDuration::from_millis(13), |_| true);

    // Warm-up: arena, wheel slot vectors, and heap capacity stabilize.
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

/// A closure one-shot costs exactly its box: the arena entry is recycled
/// through the free list, so `n` sequential events allocate `n` boxes, not
/// `n` queue entries plus `n` boxes.
#[test]
fn one_shot_events_reuse_arena_entries() {
    let mut sim = Sim::new();
    let hits = Rc::new(Cell::new(0u64));
    // Warm up: first event grows the arena and wheel slot.
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

/// Requests with a data completion allocate nothing, through a contended
/// single-slot resource (every request queues) and an idle two-slot one
/// (none does).
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
    round(&mut sim, 300); // warm-up: queue, arena and wheel capacities
    let (before, seen_before) = (allocs(), seen.get());
    round(&mut sim, 1_000); // 10 000 submissions
    assert_eq!(seen.get() - seen_before, 9_000, "every data completion ran");
    assert_eq!(disk.borrow().stats().max_queue, 7, "the disk was contended");
    assert_eq!(cpu.borrow().stats().max_queue, 0, "the cpu was idle");
    assert_eq!(allocs() - before, 0, "a resource request allocated");
}

/// A two-arm join — the NIC's tx/rx pair — allocates nothing: its slot is
/// recycled and its arms are data.
#[test]
fn two_arm_joins_are_allocation_free() {
    let (mut sim, seen) = counting_sim();
    let tx = Resource::new("tx", 1);
    let rx = Resource::new("rx", 1);
    let hop = SimDuration::from_micros(450);
    let round = |sim: &mut Sim, n: u64| {
        for job in 0..n {
            // Two messages in flight at once: two live join slots.
            for wire in [10, 25] {
                let join = sim.join(2, hop, resume(job, sim.now()));
                let wire = SimDuration::from_micros(wire);
                Resource::submit(&tx, sim, wire, Completion::JoinArm(join));
                Resource::submit(&rx, sim, wire, Completion::JoinArm(join));
            }
            sim.run_to_completion();
        }
    };
    round(&mut sim, 300);
    let (before, seen_before) = (allocs(), seen.get());
    round(&mut sim, 5_000); // 10 000 joins
    assert_eq!(
        seen.get() - seen_before,
        10_000,
        "every join delivered once"
    );
    assert_eq!(allocs() - before, 0, "a join allocated");
}
