//! The counting `#[global_allocator]` of the allocation-budget tests.
//!
//! Heap calls are `alloc` + `alloc_zeroed` + `realloc`, counted like the
//! benchmark's `allocs_per_txn`. The live heap is the bytes requested and
//! not yet freed, and its high-water mark is kept since the last
//! [`reset_peak`]. Both sum requested sizes, which no allocator or build
//! profile changes, so with the engine on one thread every reading is
//! deterministic. A global allocator is process-wide: a test binary that
//! includes this module holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static HEAP_CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested and not yet freed.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// Most bytes live at once since the last [`reset_peak`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Both blocks are live while the old one is copied.
        grew(new_size);
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap calls so far.
pub fn heap_calls() -> u64 {
    HEAP_CALLS.load(Ordering::Relaxed)
}

/// The live heap now, in MB (2^20 bytes).
pub fn live_mb() -> f64 {
    LIVE_BYTES.load(Ordering::Relaxed) as f64 / f64::from(1 << 20)
}

/// The live heap's high-water mark since the last [`reset_peak`], in MB.
pub fn peak_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / f64::from(1 << 20)
}

/// Start a new high-water mark at the live heap now.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}
