//! Allocation budgets of the cold compile's worst case and of a served
//! flow head.
//!
//! `resnet152@isaac` is the zoo's slowest cold compile: its segmentation
//! DP prices ~12 000 candidate segments. A counting global allocator pins
//! how many heap allocations the whole compile makes, so a change that
//! boxes a memo key or grows a buffer per candidate again fails here
//! instead of only showing up as a slower benchmark. The same counter
//! pins the head step of a served flow: given the whole flow's counts,
//! it generates only the statements it keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cim_arch::presets;
use cim_compiler::{CodegenPass, CompileOptions, Compiler, Pipeline};
use cim_graph::zoo;

/// The system allocator, counting the allocations of a thread inside an
/// [`allocations_of`] window (other test threads allocate meanwhile).
struct Counting;

thread_local! {
    // `const` and drop-free, so reading them never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are drop-free `const` thread-locals, so touching them allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.get();
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCATIONS.get() - before)
}

#[test]
fn a_resnet152_isaac_compile_stays_under_its_allocation_budget() {
    let (graph, arch) = (zoo::resnet152(), presets::isaac_baseline());
    let compiler = Compiler::new();
    let (compiled, allocations) = allocations_of(|| compiler.compile(&graph, &arch));
    assert!(compiled.is_ok());
    println!("resnet152@isaac: {allocations} allocations");
    assert!(
        allocations < 1_500,
        "resnet152@isaac made {allocations} allocations (budget 1 500)"
    );
}

#[test]
fn a_served_head_step_allocates_for_its_head_not_its_flow() {
    // lenet5@isaac-wlm's whole flow is 23 362 statements; walking it
    // allocates once per parallel block and per `dcom` (~1 300 times).
    let (graph, arch) = (zoo::lenet5(), presets::isaac_baseline_wlm());
    let options = CompileOptions::default();
    let mut pipeline = Pipeline::plan(&options, &arch);
    pipeline.push(Box::new(CodegenPass::keeping(0)));
    pipeline.push(Box::new(CodegenPass::keeping(200)));
    let mut session = pipeline.session(&graph, &arch, options);
    while session.next_pass() != Some("codegen") {
        session.step().unwrap();
    }
    let (stepped, allocations) = allocations_of(|| session.step());
    assert!(stepped.unwrap());
    let flow = session.artifact().flow().unwrap();
    assert_eq!((flow.stmts().len(), flow.pushed()), (200, 23_362));
    println!("lenet5@isaac-wlm head step at keep 200: {allocations} allocations");
    assert!(
        allocations < 100,
        "the head step made {allocations} allocations (budget 100)"
    );
}
