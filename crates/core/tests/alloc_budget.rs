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
//!   memo that stops answering fails here, and the
//!   `compile.cg.stage_prices` counter: the stage latencies the DP
//!   computed for them, so a row that stops reusing the latencies of
//!   stages whose duplication did not change fails here;
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
//! generates only the statements it keeps. Last, it pins the allocations
//! and allocated bytes of a warm compile of `resnet152@isaac-wlm` and of
//! `vit_base@isaac` through a memory and a disk cache, with the exact
//! cache counters: a warm `Session::run` loads only the deepest cached
//! artifact, so one that loads and decodes every pass's entry again
//! fails here. And it pins the allocations of loading the
//! `resnet152` and `resnet18` model files with `cim_graph::from_json`,
//! so a loader that builds the document's tree again fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use std::sync::Arc;

use cim_arch::presets;
use cim_compiler::{
    CacheStats, CodegenPass, CompileCache, CompileOptions, Compiler, DiskCache, MemoryCache,
    Pipeline,
};
use cim_graph::{zoo, GraphDelta, GraphEdit, OpKind};

/// The system allocator, counting the allocations of a thread inside a
/// [`heap_of`] window, and the bytes they ask for.
struct Counting;

thread_local! {
    // `const` and drop-free, so reading them never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if COUNTING.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        BYTES.set(BYTES.get() + bytes as u64);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are drop-free `const` thread-locals, so touching them allocates
// nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, allocations, _) = heap_of(f);
    (out, allocations)
}

/// The allocations `f` makes on this thread, and the bytes they ask for
/// (a `realloc` counts as one allocation of its new size).
fn heap_of<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocations, bytes) = (ALLOCATIONS.get(), BYTES.get());
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, ALLOCATIONS.get() - allocations, BYTES.get() - bytes)
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
    /// `compile.cg.stage_prices`: stage latencies the DP computed.
    stage_prices: u64,
    /// Span events of the compile with the collector on.
    span_events: u64,
    /// The allocations the collector adds to the compile.
    tracing_allocations: u64,
}

/// Each budget sits about a fifth over the count it was set from: 254,
/// 341, 1 634, 6 and 11 (`vit_base@isaac`), 296, 272, 325, 6 and 11
/// (`resnet50@puma`), 618, 6 532, 31 577, 6 and 11 (`resnet152@isaac`),
/// and 655, 6 532, 31 577, 8 and 14 (`resnet152@isaac-wlm`).
const BUDGETS: &[Counts] = &[
    Counts {
        model: "vit_base",
        arch: "isaac",
        allocations: 305,
        priced: 410,
        stage_prices: 1_960,
        span_events: 8,
        tracing_allocations: 14,
    },
    Counts {
        model: "resnet50",
        arch: "puma",
        allocations: 355,
        priced: 330,
        stage_prices: 390,
        span_events: 8,
        tracing_allocations: 15,
    },
    Counts {
        model: "resnet152",
        arch: "isaac",
        allocations: 740,
        priced: 7_800,
        stage_prices: 37_900,
        span_events: 8,
        tracing_allocations: 14,
    },
    Counts {
        model: "resnet152",
        arch: "isaac-wlm",
        allocations: 785,
        priced: 7_800,
        stage_prices: 37_900,
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
    let stage_prices = cim_obs::metrics().counter("compile.cg.stage_prices");
    let before = (priced.get(), stage_prices.get());
    cim_obs::enable();
    let (compiled, traced) = allocations_of(|| compiler.compile(&graph, &arch));
    cim_obs::disable();
    let trace = cim_obs::drain();
    assert!(compiled.is_ok(), "{}@{}", budget.model, budget.arch);
    Counts {
        model: budget.model,
        arch: budget.arch,
        allocations,
        priced: priced.get() - before.0,
        stage_prices: stage_prices.get() - before.1,
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
            (
                "compile.cg.stage_prices",
                counted.stage_prices,
                budget.stage_prices,
            ),
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
/// 513 allocations (46 of them apply the delta to a copy of the graph)
/// and 5 DP candidates priced. A recompile over a fresh memo makes 697
/// allocations and prices 6 437 candidates.
const RECOMPILE_BUDGET: (u64, u64) = (620, 6);

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

/// A warm compile's counts: in [`WARM_BUDGETS`] the allocation budget and
/// the exact cache counters, from [`warm_counts_of`] what one warm
/// `finish()` counted.
struct WarmCounts {
    model: &'static str,
    arch: &'static str,
    /// `"memory"` or `"disk"`.
    cache: &'static str,
    /// Heap allocations of the warm `finish()`, session set-up included.
    allocations: u64,
    /// The bytes those allocations ask for.
    bytes: u64,
    /// Its cache counters: a hit per pass served, nothing else.
    stats: CacheStats,
}

const fn served(passes: u64) -> CacheStats {
    CacheStats {
        hits: passes,
        misses: 0,
        stores: 0,
    }
}

/// Each budget sits about a fifth over the count it was set from: 73
/// and 85 allocations of 41 140 and 77 480 bytes (`resnet152@isaac-wlm`
/// through memory and disk), 43 and 54 of 17 275 and 31 066 bytes
/// (`vit_base@isaac`). Loading every pass's entry, as a step loop does,
/// counts 102, 144, 51 and 82 allocations of 121 676, 236 720, 40 227
/// and 74 752 bytes: with the schedules' short lists held in place an
/// entry costs few allocations, so the bytes are what tell the two apart.
const WARM_BUDGETS: &[WarmCounts] = &[
    WarmCounts {
        model: "resnet152",
        arch: "isaac-wlm",
        cache: "memory",
        allocations: 88,
        bytes: 49_500,
        stats: served(4),
    },
    WarmCounts {
        model: "resnet152",
        arch: "isaac-wlm",
        cache: "disk",
        allocations: 102,
        bytes: 93_000,
        stats: served(4),
    },
    WarmCounts {
        model: "vit_base",
        arch: "isaac",
        cache: "memory",
        allocations: 52,
        bytes: 20_800,
        stats: served(3),
    },
    WarmCounts {
        model: "vit_base",
        arch: "isaac",
        cache: "disk",
        allocations: 65,
        bytes: 37_300,
        stats: served(3),
    },
];

/// One warm `finish()` of `budget`'s pair over a cache a cold compile
/// filled, counted: its allocations and the cache traffic it caused.
fn warm_counts_of(budget: &WarmCounts) -> WarmCounts {
    let graph = zoo::by_name(budget.model).expect("a zoo model");
    let arch = presets::by_name(budget.arch).expect("a preset");
    let dir = std::env::temp_dir().join(format!(
        "cim_alloc_budget_{}_{}_{}",
        budget.model,
        budget.arch,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache: Arc<dyn CompileCache> = match budget.cache {
        "memory" => Arc::new(MemoryCache::new()),
        _ => Arc::new(DiskCache::open(&dir).expect("a cache directory")),
    };
    let compiler = Compiler::new();
    let compile = || {
        compiler
            .session(&graph, &arch)
            .with_cache(Arc::clone(&cache))
            .finish()
    };
    compile().expect("the cold compile");
    let before = cache.stats();
    let (compiled, allocations, bytes) = heap_of(compile);
    compiled.expect("the warm compile");
    let stats = cache.stats().since(&before);
    let _ = std::fs::remove_dir_all(&dir);
    WarmCounts {
        allocations,
        bytes,
        stats,
        ..*budget
    }
}

#[test]
fn a_warm_compile_loads_its_deepest_entry_only() {
    let _serial = serial();
    let mut over = Vec::new();
    for budget in WARM_BUDGETS {
        let key = format!(
            "{}@{} warm from {}",
            budget.model, budget.arch, budget.cache
        );
        let counted = warm_counts_of(budget);
        println!(
            "{key}: allocations {} (budget {}), bytes {} (budget {}), {:?}",
            counted.allocations, budget.allocations, counted.bytes, budget.bytes, counted.stats
        );
        for (name, value, limit) in [
            ("allocations", counted.allocations, budget.allocations),
            ("bytes", counted.bytes, budget.bytes),
        ] {
            if value > limit {
                over.push(format!("{key}: {name} {value} over its budget {limit}"));
            }
        }
        if counted.stats != budget.stats {
            over.push(format!(
                "{key}: cache counters {:?}, expected {:?}",
                counted.stats, budget.stats
            ));
        }
    }
    assert!(over.is_empty(), "{over:#?}");
}

/// The allocations of loading a model file: `from_json` of `to_json`'s
/// document, the text made outside the window.
fn load_allocations(graph: &cim_graph::Graph) -> u64 {
    let json = cim_graph::to_json(graph);
    let (loaded, allocations) = allocations_of(|| cim_graph::from_json(&json));
    assert_eq!(loaded.as_ref(), Ok(graph), "{}", graph.name());
    allocations
}

/// The model loads' budgets, about a fifth over their counts: 723
/// allocations for `resnet152` (515 nodes) and 217 for `resnet18` (71
/// nodes). Building each document's `serde::Value` tree first, as the
/// loader once did, counts 6 176 and 882; gathering each node's input
/// shapes into a `Vec` counts 1 237 and 285.
const LOAD_BUDGETS: [(&str, u64); 2] = [("resnet152", 870), ("resnet18", 260)];

#[test]
fn a_model_load_stays_under_its_count_budget() {
    let _serial = serial();
    let mut over = Vec::new();
    for (model, limit) in LOAD_BUDGETS {
        let allocations = load_allocations(&zoo::by_name(model).expect("a zoo model"));
        println!("{model} load: allocations {allocations} (budget {limit})");
        if allocations > limit {
            over.push(format!(
                "{model} load: {allocations} allocations over {limit}"
            ));
        }
    }
    assert!(over.is_empty(), "{over:#?}");
}
