//! # CIM-MLC — A Multi-level Compilation Stack for Computing-In-Memory Accelerators
//!
//! A Rust reproduction of the ASPLOS'24 paper by Qu, Zhao, Li, He, Cai,
//! Zhang and Wang. This facade crate re-exports the public API of the
//! whole stack; see the individual crates for details:
//!
//! * [`arch`] (`cim-arch`) — three-tier hardware abstraction (Abs-arch)
//!   and computing modes (Abs-com), cost model, published architecture
//!   presets;
//! * [`graph`] (`cim-graph`) — DNN computation-graph IR, JSON exchange
//!   format, model zoo (VGG / ResNet / ViT / …);
//! * [`mop`] (`cim-mop`) — the meta-operator ISA (MOP_CM / MOP_XBM /
//!   MOP_WLM, DCOM, DMOV) with pretty printing and validation;
//! * [`compiler`] (`cim-compiler`) — the multi-level scheduler:
//!   CG-grained, MVM-grained and VVM-grained optimization plus code
//!   generation;
//! * [`obs`] (`cim-obs`) — tracing spans, metrics and exporters, plus the
//!   one versioned report envelope (`doc`) and nearest-rank statistics
//!   (`stats`) every document shares;
//! * [`sim`] (`cim-sim`) — functional simulator (bit-exact against a
//!   reference executor) and performance traces;
//! * [`bench`](mod@bench) (`cim-bench`) — the paper's evaluation: figure/table
//!   regeneration, the comparator schedulers ([`baselines`]: Poly-Schedule
//!   and the vendor schedules), and the parallel sweep driver with
//!   machine-readable bench reports (`cimc bench`);
//! * [`dse`] (`cim-dse`) — design-space exploration: pluggable search
//!   strategies over the parameterized architecture axes,
//!   multi-objective Pareto fronts, cached parallel candidate
//!   evaluation (`cimc explore`);
//! * [`traffic`] (`cim-traffic`) — trace-driven multi-tenant serving
//!   simulation: seeded workload generators, spatial crossbar
//!   partitioning, fifo/priority/EDF scheduling with batching, and
//!   deterministic latency/throughput reports (`cimc trace`,
//!   `cimc simulate`).
//!
//! ## Quickstart: the staged pipeline
//!
//! Compilation is a pipeline of passes over typed artifacts
//! (`Staged → CgScheduled → MvmScheduled → VvmScheduled → Codegenned`,
//! the paper's Figure 3 made explicit). Drive it one pass at a time to
//! pause between levels, inspect intermediate schedules, and collect
//! per-pass timings:
//!
//! ```
//! use cim_mlc::prelude::*;
//!
//! # fn main() -> Result<(), Error> {
//! // Describe (or pick) an accelerator and a model…
//! let arch = presets::isaac_baseline();
//! let model = zoo::resnet18();
//!
//! // …run the staged pipeline, pausing after every pass…
//! let mut session = Compiler::new().session(&model, &arch);
//! while session.step()? {
//!     if let Some(report) = session.artifact().report() {
//!         // The per-level reports the paper's figures are built from.
//!         assert!(report.latency_cycles > 0.0);
//!     }
//! }
//! println!("{}", session.timeline().render()); // per-pass wall time
//!
//! // …and collapse the final artifact into the one-shot result.
//! let compiled = session.finish()?;
//! assert_eq!(compiled.report().level, "cg+mvm"); // XBM target: CG + MVM ran
//! # Ok(())
//! # }
//! ```
//!
//! ### Migration note
//!
//! The pre-pipeline one-shot call still works unchanged — it is now a
//! thin wrapper that runs the planned pipeline to completion:
//!
//! ```
//! # use cim_mlc::prelude::*;
//! # fn main() -> Result<(), Error> {
//! # let arch = presets::isaac_baseline();
//! # let model = zoo::lenet5();
//! let compiled = Compiler::new().compile(&model, &arch)?;
//! # Ok(())
//! # }
//! ```
//!
//! Reach for [`Compiler::session`](cim_compiler::Compiler::session) (or
//! [`Pipeline`](cim_compiler::Pipeline) directly, to skip/replace
//! passes) only when you need to observe or intervene between levels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cim_arch as arch;
pub use cim_bench as bench;
pub use cim_bench::baselines;
pub use cim_compiler as compiler;
pub use cim_dse as dse;
pub use cim_graph as graph;
pub use cim_mop as mop;
pub use cim_obs as obs;
pub use cim_sim as sim;
pub use cim_traffic as traffic;

pub mod api;
mod error;
pub mod loadtest;
pub mod serve;

pub use error::Error;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use crate::api::{
        ApiError, CachePolicy, Handler, RecompileOutcome, RecompileRequest, Request,
        RequestEnvelope, Response, ResponseBody, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
    };
    pub use crate::loadtest::{run_loadtest, LoadtestOptions};
    pub use crate::serve::{run_stdio, run_tcp, ServeOptions};
    pub use crate::Error;
    pub use cim_arch::{
        presets, CellType, ChipTier, CimArchitecture, ComputingMode, CoreTier, CrossbarTier,
        NocCost, NocKind, XbShape,
    };
    pub use cim_bench::{
        compare, run_sweep, run_sweep_cached, BenchReport, DocError, Document, SweepSpec,
        Tolerances,
    };
    pub use cim_compiler::{
        codegen, write_atomic, Artifact, CacheStats, CodegenPass, CompileCache, CompileMetrics,
        CompileOptions, Compiled, Compiler, Diagnostics, DiskCache, Fingerprint, MemoryCache,
        OptLevel, Pass, PassContext, PassTimeline, PerfReport, Pipeline, Session, StageKind,
    };
    pub use cim_dse::{
        pareto_front, DesignPoint, DesignSpace, DseError, DseReport, Explorer, Metric, Objective,
        SearchStrategy, StrategyKind,
    };
    pub use cim_graph::{zoo, DeltaError, Graph, GraphDelta, GraphEdit, NodeId, OpKind, Shape};
    pub use cim_mop::{FlowStats, MopFlow};
    pub use cim_sim::{reference, trace, Machine, WeightStore};
    pub use cim_traffic::{
        run_simulation, Batching, GeneratorKind, Partition, Placement, PolicyKind, SimConfig,
        TenantSpec, Trace, TraceSpec, TrafficError, TrafficReport,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_compiles_and_reexports() {
        let arch = presets::table2_example();
        let model = zoo::lenet5();
        let compiled = Compiler::new().compile(&model, &arch).unwrap();
        assert_eq!(compiled.report().level, "cg+mvm+vvm");
    }
}
