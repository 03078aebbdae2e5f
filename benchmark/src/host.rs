//! Host-process readouts: a counting global allocator, the thread's CPU
//! clock, and the `/proc` file that gives resident memory.
//!
//! The benchmark is single-process and single-threaded, so the process
//! totals are the engine's own.
//!
//! Host time is read from the thread's CPU clock, not the wall clock. The
//! engine never blocks, so on a quiet machine the two agree; on a shared
//! one the CPU clock leaves out the time a neighbour (or the hypervisor)
//! held the core, which on the 2-vCPU sandbox this was written on came to
//! a quarter of the wall time in bursts. Wall time is still read, to
//! report how much of it the run owned (`cpu_share`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Heap `alloc` + `realloc` calls since process start.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one relaxed add per `alloc`/`realloc`. The
/// cost is identical on both sides of any comparison, and the count is a
/// statistic that publishes no other data, hence `Relaxed`.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One reading of the host-side meters.
#[derive(Debug, Clone, Copy)]
pub struct HostSnap {
    /// Wall clock.
    pub at: Instant,
    /// Heap allocation calls so far.
    pub allocs: u64,
    /// Nanoseconds this thread has spent on a CPU.
    pub cpu_ns: u64,
    /// Resident set size now, in KiB.
    pub rss_kb: u64,
}

impl HostSnap {
    /// Read every meter now.
    pub fn take() -> Self {
        Self {
            at: Instant::now(),
            allocs: ALLOC_CALLS.load(Ordering::Relaxed),
            cpu_ns: thread_cpu_ns(),
            rss_kb: status_kb("VmRSS:"),
        }
    }

    /// Share of the wall time since `earlier` that the process spent on
    /// a CPU. Below ~0.95 a neighbour was stealing the core and host-time
    /// numbers from the interval are not trustworthy.
    pub fn cpu_share_since(&self, earlier: &HostSnap) -> f64 {
        let wall = self.at.duration_since(earlier.at).as_nanos() as f64;
        if wall <= 0.0 {
            return 1.0;
        }
        (self.cpu_ns.saturating_sub(earlier.cpu_ns)) as f64 / wall
    }
}

/// Peak resident set size of the process so far (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// A `kB` field of `/proc/self/status`; 0 where the file is missing
/// (non-Linux hosts), which the run's non-zero check then reports.
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Nanoseconds the calling thread has spent on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`), exact to the nanosecond at the call.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> u64 {
    /// `struct timespec` of 64-bit Linux: two 64-bit fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout the
    // C library expects on this target, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere there is no portable thread CPU clock in `std`: fall back to
/// wall time since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
