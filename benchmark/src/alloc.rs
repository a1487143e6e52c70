//! The counting global allocator behind `peak_heap_mb` and
//! `compiler.allocs_per_compile`: the system allocator plus three relaxed
//! counters (live bytes, peak live bytes, allocation calls).
//!
//! The counters are statistics and publish no other data, so every access is
//! `Relaxed`. Two atomic read-modify-writes per allocation are part of what
//! the benchmark measures on both sides of any comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Installed as the process's `#[global_allocator]` in `main.rs`.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates neither allocate
// nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System` through this allocator and
        // the caller guarantees `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
            }
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Highest value [`live_bytes`] has reached since the process started.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live bytes and returns the peak
/// reached so far.
pub fn restart_peak() -> u64 {
    PEAK.swap(LIVE.load(Relaxed), Relaxed)
}

/// Allocation calls (alloc, alloc_zeroed, realloc) since the process started.
pub fn alloc_calls() -> u64 {
    ALLOCS.load(Relaxed)
}
