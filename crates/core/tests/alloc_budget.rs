//! Count budgets of the cold compile and of a served flow head: the
//! compile-time gates.
//!
//! Wall clocks on a shared host drift by more than the regressions worth
//! catching, so these gates count instead. For four reference compiles
//! they pin:
//!
//! * the heap allocations of the whole compile (a counting global
//!   allocator), so a change that boxes a memo key or grows a buffer per
//!   DP candidate fails here;
//! * the DP's work, the `compile.cg.priced` counter: the candidate
//!   segments the memo could not answer and the DP had to price, so a
//!   memo that stops answering fails here;
//! * the cost of tracing: the span events and the allocations of the same
//!   compile with the collector on, so a span opened per DP candidate
//!   fails here.
//!
//! `resnet152@isaac` and `resnet152@isaac-wlm` are the zoo's two slowest
//! cold compiles; `vit_base@isaac` (repeated encoder blocks the memo
//! answers) and `resnet50@puma` (many segments on a small chip) round the
//! set out. The same counters pin a one-layer `Session::recompile` of
//! `resnet152@isaac-wlm` (the `incremental-smoke` edit): its allocations
//! and `compile.cg.priced`, so a recompile that stops reusing the
//! session's region memo fails here. The allocation counter also pins
//! the head step of a served flow: given the whole flow's counts, it
//! generates only the statements it keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cim_arch::presets;
use cim_compiler::{CodegenPass, CompileOptions, Compiler, Pipeline};
use cim_graph::{zoo, GraphDelta, GraphEdit, OpKind};

/// The system allocator, counting the allocations of a thread inside an
/// [`allocations_of`] window.
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

/// The collector and the metrics registry are process-wide, and a span
/// recorded on a counting thread allocates: every test of this binary
/// holds this lock, so none of them overlaps another's measurement.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A reference compile's counts: in [`BUDGETS`] their upper bounds,
/// from [`counts_of`] what one compile counted.
struct Counts {
    model: &'static str,
    arch: &'static str,
    /// Heap allocations of the compile.
    allocations: u64,
    /// `compile.cg.priced`: DP candidates the memo could not answer.
    priced: u64,
    /// Span events of the compile with the collector on.
    span_events: u64,
    /// The allocations the collector adds to the compile.
    tracing_allocations: u64,
}

/// Each budget sits about a fifth over the count it was set from: 376,
/// 341, 6 and 11 (`vit_base@isaac`), 477, 272, 6 and 12
/// (`resnet50@puma`), 927, 6 532, 6 and 11 (`resnet152@isaac`), and
/// 963, 6 532, 8 and 14 (`resnet152@isaac-wlm`).
const BUDGETS: &[Counts] = &[
    Counts {
        model: "vit_base",
        arch: "isaac",
        allocations: 450,
        priced: 410,
        span_events: 8,
        tracing_allocations: 14,
    },
    Counts {
        model: "resnet50",
        arch: "puma",
        allocations: 570,
        priced: 330,
        span_events: 8,
        tracing_allocations: 15,
    },
    Counts {
        model: "resnet152",
        arch: "isaac",
        allocations: 1_110,
        priced: 7_800,
        span_events: 8,
        tracing_allocations: 14,
    },
    Counts {
        model: "resnet152",
        arch: "isaac-wlm",
        allocations: 1_160,
        priced: 7_800,
        span_events: 10,
        tracing_allocations: 17,
    },
];

/// One cold compile of `budget`'s pair, counted: its allocations and,
/// run again with tracing and metrics on, its `compile.cg.priced` count,
/// its span events and the allocations tracing adds.
fn counts_of(budget: &Counts) -> Counts {
    let graph = zoo::by_name(budget.model).expect("a zoo model");
    let arch = presets::by_name(budget.arch).expect("a preset");
    let compiler = Compiler::new();
    let (compiled, allocations) = allocations_of(|| compiler.compile(&graph, &arch));
    assert!(compiled.is_ok(), "{}@{}", budget.model, budget.arch);

    let priced = cim_obs::metrics().counter("compile.cg.priced");
    let before = priced.get();
    cim_obs::enable();
    let (compiled, traced) = allocations_of(|| compiler.compile(&graph, &arch));
    cim_obs::disable();
    let trace = cim_obs::drain();
    assert!(compiled.is_ok(), "{}@{}", budget.model, budget.arch);
    Counts {
        model: budget.model,
        arch: budget.arch,
        allocations,
        priced: priced.get() - before,
        span_events: trace.events.len() as u64,
        tracing_allocations: traced.saturating_sub(allocations),
    }
}

#[test]
fn reference_compiles_stay_under_their_count_budgets() {
    let _serial = serial();
    // Register this thread's span buffer and the counters a compile
    // bumps once, so the measured compiles do not pay for them.
    cim_obs::enable();
    let _ = Compiler::new().compile(&zoo::lenet5(), &presets::isaac_baseline());
    cim_obs::disable();
    let _ = cim_obs::drain();

    let mut over = Vec::new();
    for budget in BUDGETS {
        let key = format!("{}@{}", budget.model, budget.arch);
        let counted = counts_of(budget);
        for (name, value, limit) in [
            ("allocations", counted.allocations, budget.allocations),
            ("compile.cg.priced", counted.priced, budget.priced),
            ("span events", counted.span_events, budget.span_events),
            (
                "tracing allocations",
                counted.tracing_allocations,
                budget.tracing_allocations,
            ),
        ] {
            println!("{key}: {name} {value} (budget {limit})");
            if value > limit {
                over.push(format!("{key}: {name} {value} over its budget {limit}"));
            }
        }
    }
    assert!(over.is_empty(), "{over:#?}");
}

/// The counts of one warm `Session::recompile` of resnet152@isaac-wlm
/// after the `incremental-smoke` edit — its `fc` head retuned to
/// ImageNet-21k's 21 841 classes — over a cold compile's memo: the
/// allocations of the recompile, and, run again on a second session with
/// tracing and metrics on, its `compile.cg.priced`.
fn recompile_counts() -> (u64, u64) {
    let (graph, arch) = (zoo::resnet152(), presets::isaac_baseline_wlm());
    let delta = GraphDelta::new().with(GraphEdit::RetuneOpParams {
        node: "fc".into(),
        op: OpKind::Linear {
            out_features: 21_841,
        },
    });
    let options = CompileOptions::default();
    let warm = || {
        let mut session = Pipeline::plan(&options, &arch).session(&graph, &arch, options);
        session.run().expect("the cold compile");
        session
    };
    let mut session = warm();
    let (recompiled, allocations) = allocations_of(|| session.recompile(&delta));
    recompiled.expect("the recompile");

    let mut session = warm();
    let priced = cim_obs::metrics().counter("compile.cg.priced");
    let before = priced.get();
    cim_obs::enable();
    let recompiled = session.recompile(&delta);
    cim_obs::disable();
    let _ = cim_obs::drain();
    recompiled.expect("the recompile");
    (allocations, priced.get() - before)
}

/// The one-layer recompile's budgets, about a fifth over its counts:
/// 1 345 allocations (561 of them apply the delta to a copy of the
/// graph) and 5 DP candidates priced. A recompile over a fresh memo
/// makes 1 507 allocations and prices 6 437 candidates.
const RECOMPILE_BUDGET: (u64, u64) = (1_600, 6);

#[test]
fn a_one_layer_recompile_stays_under_its_count_budgets() {
    let _serial = serial();
    let (allocations, priced) = recompile_counts();
    let (allocation_limit, priced_limit) = RECOMPILE_BUDGET;
    println!(
        "resnet152@isaac-wlm recompile: allocations {allocations} (budget {allocation_limit})"
    );
    println!("resnet152@isaac-wlm recompile: compile.cg.priced {priced} (budget {priced_limit})");
    assert!(
        allocations <= allocation_limit && priced <= priced_limit,
        "the recompile made {allocations} allocations and priced {priced} DP candidates \
         (budgets {allocation_limit} and {priced_limit})"
    );
}

#[test]
fn a_served_head_step_allocates_for_its_head_not_its_flow() {
    let _serial = serial();
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
