//! A slotted page is one heap block, body and slot directory together, so
//! a page costs one heap call when it is born sized and one per regrow,
//! however many of its two parts grow.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! `alloc` and `realloc` calls (`alloc_zeroed` goes through `alloc`), the
//! way the benchmark's `allocs_per_txn` does. Pinned: a page sized for
//! its records is one call and never another while its records are like
//! its first; a page that then takes narrower records (more of them fit
//! than it was sized for) regrows body and directory in one call; a page
//! born empty grows as its two vectors used to, in fewer calls.
//!
//! Lives in its own test binary because a global allocator is
//! process-wide; the count is per thread, so the tests (one thread each)
//! do not see one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wattdb_storage::page::{SlottedPage, PAGE_SIZE, SLOT_OVERHEAD};

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

/// Heap calls `f` makes.
fn calls<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}

/// The engine's version: 33 bytes stored, 47 charged.
const PHYSICAL: usize = 33;
const LOGICAL: usize = 47;

#[test]
fn a_sized_page_is_one_heap_call() {
    let (n, mut page) = calls(|| SlottedPage::sized_for(LOGICAL, PHYSICAL));
    assert_eq!(n, 1, "body and directory in one block");
    let full = PAGE_SIZE / (LOGICAL + SLOT_OVERHEAD);
    assert_eq!(page.capacity(), (full * PHYSICAL, full));
    let record = [0xAB; PHYSICAL];
    let (n, _) = calls(|| {
        for i in 0..full {
            assert_eq!(page.insert(&record, LOGICAL).unwrap() as usize, i);
        }
        page.delete(7).unwrap();
        page.update(8, &record, LOGICAL).unwrap();
        assert_eq!(page.insert(&record, LOGICAL).unwrap(), 7);
    });
    assert_eq!(n, 0, "a page of records like its first never regrows");
    assert!(!page.fits(LOGICAL));
}

#[test]
fn a_mixed_width_regrow_is_one_heap_call() {
    // Sized for 75 records of logical width 100; it takes 170 of width 40.
    let mut page = SlottedPage::sized_for(100, PHYSICAL);
    let born = page.capacity();
    assert_eq!(born, (75 * PHYSICAL, 75));
    let record = [0xCD; PHYSICAL];
    let (n, _) = calls(|| {
        for _ in 0..75 {
            page.insert(&record, 40).unwrap();
        }
    });
    assert_eq!(n, 0);
    let (n, _) = calls(|| page.insert(&record, 40).unwrap());
    assert_eq!(n, 1, "body and directory regrow together");
    assert_eq!(page.capacity(), (2 * born.0, 2 * born.1));
    let (n, _) = calls(|| {
        for _ in 76..150 {
            page.insert(&record, 40).unwrap();
        }
    });
    assert_eq!(n, 0);
    assert_eq!(page.live_records(), 150);
    assert!(page.iter().all(|(_, bytes)| bytes == record));
}

#[test]
fn a_page_born_empty_regrows_once_per_step() {
    let (n, mut page) = calls(SlottedPage::new);
    assert_eq!(n, 0);
    let (n, _) = calls(|| page.insert(b"payload.", 64).unwrap());
    assert_eq!(n, 1);
    assert_eq!(page.capacity(), (8, 4));
    // Body room 16, 32, 64 … 512 bytes and directory room 8 … 64 slots:
    // ten regrows of two vectors, six of one block.
    let (n, _) = calls(|| {
        for _ in 1..64 {
            page.insert(b"payload.", 64).unwrap();
        }
    });
    assert_eq!(n, 6);
    assert_eq!(page.capacity(), (512, 64));
}
