//! Allocation budget of the cold compile's worst case.
//!
//! `resnet152@isaac` is the zoo's slowest cold compile: its segmentation
//! DP prices ~12 000 candidate segments. A counting global allocator pins
//! how many heap allocations the whole compile makes, so a change that
//! boxes a memo key or grows a buffer per candidate again fails here
//! instead of only showing up as a slower benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cim_arch::presets;
use cim_compiler::Compiler;
use cim_graph::zoo;

/// The system allocator, counting allocations while `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// relaxed atomic that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_resnet152_isaac_compile_stays_under_its_allocation_budget() {
    let (graph, arch) = (zoo::resnet152(), presets::isaac_baseline());
    let compiler = Compiler::new();
    COUNTING.store(true, Ordering::Relaxed);
    let compiled = compiler.compile(&graph, &arch);
    COUNTING.store(false, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(compiled.is_ok());
    println!("resnet152@isaac: {allocations} allocations");
    assert!(
        allocations < 1_500,
        "resnet152@isaac made {allocations} allocations (budget 1 500)"
    );
}
