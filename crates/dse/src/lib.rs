//! # cim-dse — design-space exploration for CIM architectures
//!
//! The CIM-MLC abstraction deliberately parameterizes the accelerator
//! (crossbar geometry, tier fan-outs, device precision, converter
//! resolution, scheduling depth); this crate *searches* that space
//! instead of only evaluating hand-written presets:
//!
//! * [`DesignSpace`] / [`DesignPoint`] — the mutable axes with validated
//!   bounds, realized into concrete [`CimArchitecture`](cim_arch::CimArchitecture)s
//!   through the arch builder's mutation helpers;
//! * [`SearchStrategy`] — pluggable batch-proposing searches, with four
//!   built-ins ([`Exhaustive`], [`Random`], [`HillClimb`],
//!   [`Evolutionary`]), all deterministic from their seed;
//! * [`Objective`] / [`Metric`] — weighted single- or multi-objective
//!   goals over the existing compile metrics, with exact
//!   [`pareto_front`] extraction;
//! * [`Explorer`] — drives batches through
//!   [`compile_batch`](cim_compiler::compile_batch) with a shared [`CompileCache`](cim_compiler::CompileCache), so
//!   revisited points and shared pipeline prefixes are never recompiled;
//! * [`DseReport`] — the schema-versioned JSON artifact
//!   (`cimc explore --out`), byte-reproducible across worker counts via
//!   [`Document::comparable`](cim_obs::Document::comparable).
//!
//! ## Quickstart
//!
//! ```
//! use cim_dse::{DesignSpace, Explorer, Metric, Objective, StrategyKind};
//! use cim_graph::zoo;
//!
//! # fn main() -> Result<(), cim_dse::DseError> {
//! let space = DesignSpace::default_space();
//! let mut strategy = StrategyKind::HillClimb.build(42);
//! let report = Explorer::new().with_threads(2).explore(
//!     &zoo::lenet5(),
//!     &space,
//!     strategy.as_mut(),
//!     &Objective::single(Metric::Latency),
//!     42,
//!     24,
//! )?;
//! assert!(!report.front.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explorer;
pub mod objective;
pub mod report;
pub mod space;
pub mod strategy;

pub use explorer::{DseError, Explorer, TrafficWorkload};
pub use objective::{dominates, pareto_front, Metric, Objective, ObjectiveError, TrafficEval};
pub use report::{DseCandidate, DseFailure, DseReport, TracePoint};
pub use space::{DesignPoint, DesignSpace, SpaceError, AXIS_BOUNDS, AXIS_NAMES, NUM_AXES};
pub use strategy::{
    Evolutionary, Exhaustive, HillClimb, History, Random, SearchStrategy, SplitMix64, StrategyKind,
};
