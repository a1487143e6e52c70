//! # cim-compiler — the CIM-MLC multi-level scheduler
//!
//! This crate is the primary contribution of the reproduced paper
//! (ASPLOS'24, §3.3): a compiler that lowers a DNN computation graph onto a
//! CIM accelerator described by the [`cim_arch`] abstraction, optimizing at
//! up to three granularities according to the accelerator's computing mode:
//!
//! 1. **CG-grained** ([`cg`]) — always runs. Resource-adaptive compute-graph
//!    segmentation, dynamic operator *duplication* under the
//!    `core_number` / bandwidth / ALU constraints, and an inter-operator
//!    *pipeline* (§3.3.2, Figure 9).
//! 2. **MVM-grained** ([`mvm`]) — for XBM/WLM targets. Unrolls CIM operators
//!    into matrix-vector multiplies on *virtual crossbars* (VXBs, Figure 7),
//!    refines duplication with the paper's Equation 1 using idle crossbars,
//!    and staggers crossbar activations to cut peak power (§3.3.3,
//!    Figure 12).
//! 3. **VVM-grained** ([`vvm`]) — for WLM targets. Remaps wordlines that
//!    accumulate into the same output across different crossbars so a full
//!    MVM completes in fewer `parallel_row` activations (§3.3.4,
//!    Figure 14).
//!
//! The three levels refine *one* schedule, so what they share is written
//! once, in [`level`]: the segment driver (map a per-segment function over
//! the segments on the worker pool, through the per-session [`RegionMemo`])
//! and the segment evaluator (chain latency, active crossbars, the
//! peak-power fold into a [`PerfReport`]). A level supplies only the paper's
//! equations: [`cg`] the segmentation DP and the duplication of one
//! candidate segment, [`mvm`] Equation 1 and staggering per plan, [`vvm`]
//! the d×k spread search per plan. Each exposes a plain `schedule_*`
//! function and a `schedule_*_in` form taking a session's [`SchedContext`].
//!
//! The flow is organized as a staged **pass pipeline** ([`pipeline`]):
//! each level is a [`Pass`] over typed [`Artifact`]s
//! (`Staged → CgScheduled → MvmScheduled → VvmScheduled → Codegenned`),
//! assembled by [`Pipeline::plan`] and executed by a [`Session`] that can
//! pause between passes, expose the intermediate artifact, and collect a
//! per-pass [`PassTimeline`]. A content-addressed compile cache
//! ([`cache`]) memoizes pass artifacts across sessions, sweep jobs and
//! processes. [`Compiler::compile`] is a thin wrapper
//! that runs the planned pipeline to completion and returns the
//! [`Compiled`] artifact holding the mapping, the per-level schedules
//! with their latency/peak-power reports, and (on demand) an executable
//! meta-operator flow ([`codegen`]). [`compile_batch`] is the evaluation
//! step of sweeps, design-space exploration and traffic pricing.
//!
//! ```
//! use cim_arch::presets;
//! use cim_compiler::Compiler;
//! use cim_graph::zoo;
//!
//! # fn main() -> Result<(), cim_compiler::CompileError> {
//! let arch = presets::isaac_baseline();
//! let graph = zoo::lenet5();
//! // One-shot…
//! let compiled = Compiler::new().compile(&graph, &arch)?;
//! assert!(compiled.report().latency_cycles > 0.0);
//! // …or staged, pausing after every pass.
//! let mut session = Compiler::new().session(&graph, &arch);
//! while session.step()? {
//!     println!("ran `{}`", session.timeline().records.last().unwrap().pass);
//! }
//! assert_eq!(session.finish()?.report(), compiled.report());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod cache;
pub mod cg;
pub mod codegen;
mod compile;
mod error;
pub mod inline;
pub mod level;
pub mod mapping;
mod metrics;
pub mod mvm;
pub mod pass;
pub mod perf;
pub mod pipeline;
pub mod pool;
pub mod region;
pub mod scratch;
pub mod stage;
pub mod vvm;

pub use cache::{
    write_atomic, CacheStats, CompileCache, DiskCache, Fingerprint, FingerprintBuilder,
    MemoryCache, TieredCache,
};
pub use compile::{compile_batch, BatchJob, CompileOptions, Compiled, Compiler, OptLevel};
pub use error::CompileError;
pub use level::SchedContext;
pub use metrics::{CompileMetrics, JobMetrics};
pub use pass::{Diagnostics, Pass, PassContext, PassRecord, PassTimeline};
pub use perf::PerfReport;
pub use pipeline::{
    Artifact, CgPass, CodegenPass, ExtractStagesPass, MvmPass, Pipeline, Session, StageKind,
    VvmPass,
};
pub use pool::{run_ordered, Pool, PoolFull};
pub use region::RegionMemo;
pub use scratch::{ScratchArena, ScratchArray, ScratchVec};

/// Convenient result alias for fallible compilation operations.
pub type Result<T> = std::result::Result<T, CompileError>;

// [`compile_batch`] (behind sweeps, exploration and traffic pricing)
// shares compilers, schedules and reports across worker threads. They are
// plain owned data — no interior mutability — so thread-safety is a
// compile-time invariant we pin down rather than an accident of the
// current field set.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Compiler>();
    assert_send_sync::<CompileOptions>();
    assert_send_sync::<Compiled>();
    assert_send_sync::<CompileMetrics>();
    assert_send_sync::<PerfReport>();
    assert_send_sync::<CompileError>();
    assert_send_sync::<cg::CgSchedule>();
    assert_send_sync::<mvm::MvmSchedule>();
    assert_send_sync::<vvm::VvmSchedule>();
    // `Pass: Send + Sync` is a supertrait bound, so pipelines can be
    // shared across sweep worker threads.
    assert_send_sync::<Artifact>();
    assert_send_sync::<Pipeline>();
    assert_send_sync::<PassTimeline>();
    // The compile caches are shared across sweep worker threads by
    // design (`CompileCache: Send + Sync` is a supertrait bound).
    assert_send_sync::<MemoryCache>();
    assert_send_sync::<DiskCache>();
    assert_send_sync::<std::sync::Arc<dyn CompileCache>>();
    assert_send_sync::<CacheStats>();
};

// One thread at a time runs a session: its scratch arena and region memo
// are `RefCell`/`Cell` inside, so they are `Send` but not `Sync`. A
// session still moves between threads — a batch worker builds one, and a
// pinned `cimc serve` session sits in a `Mutex` that any worker may lock.
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send::<Session<'static>>();
    assert_send::<ScratchArena>();
    assert_send::<RegionMemo>();
};
