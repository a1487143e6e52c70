//! # cim-traffic — trace-driven multi-tenant serving simulation
//!
//! Replays a request trace against a CIM chip running several models
//! co-resident via spatial crossbar partitioning, under one of three
//! scheduling policies, and reports per-tenant and aggregate service
//! quality (latency percentiles, throughput, drops, deadline misses,
//! partition utilization).
//!
//! The pipeline has four stages, each its own module:
//!
//! 1. [`trace`] — seeded workload generators (Poisson, bursty on/off,
//!    weighted multi-model mixes) and the schema-versioned on-disk
//!    trace format. A [`TraceSpec`] fully determines its [`Trace`]:
//!    same spec, same bytes.
//! 2. [`placement`] — carving the chip's cores into per-model
//!    [`Partition`]s and pricing each partition's [`ServiceModel`] by
//!    compiling the model against its slice
//!    ([`CimArchitecture::partition`]).
//! 3. [`policy`] — the [`PolicyKind`] disciplines (FIFO, strict
//!    priority, EDF with drop-on-miss, whose key leads with the deadline),
//!    each a queue key — a total order ending in the request id — and
//!    all composed with the same [`Batching`] knob.
//! 4. [`engine`] + [`report`] — the deterministic integer-cycle event
//!    loop ([`run_simulation`]; per partition, a queue of FIFO runs in
//!    key order, so `O(n log r)` for `n` requests with at most `r` runs
//!    open at once — one under `fifo`, at most one per distinct priority
//!    or relative deadline under `priority` and `edf`, never more than
//!    `n` — plus `O(n)` for the latency summaries, which select
//!    percentiles rather than sort) and the schema-versioned
//!    [`TrafficReport`] it produces, bit-reproducible for a given
//!    `(trace, placement, policy, batching)` at any thread count (check with
//!    [`Document::comparable`](cim_obs::Document::comparable)).
//!
//! ```
//! use cim_traffic::{
//!     run_simulation, Batching, GeneratorKind, Placement, PolicyKind, SimConfig, TenantSpec,
//!     TraceSpec,
//! };
//!
//! let spec = TraceSpec {
//!     name: "demo".into(),
//!     kind: GeneratorKind::Poisson,
//!     seed: 42,
//!     horizon: 1_000_000,
//!     mean_gap: 5_000.0,
//!     burst_len: 8,
//!     idle_gap: 100_000.0,
//!     tenants: vec![TenantSpec {
//!         name: "interactive".into(),
//!         model: "lenet5".into(),
//!         weight: 1.0,
//!         priority: 1,
//!         deadline: Some(200_000),
//!     }],
//! };
//! let trace = spec.generate().unwrap();
//! let arch = cim_arch::presets::isaac_baseline();
//! let placement = Placement::balanced(&arch, &spec).unwrap();
//! let models = vec![("lenet5".to_string(), cim_graph::zoo::lenet5())];
//! let config = SimConfig { policy: PolicyKind::Edf, batching: Batching::default() };
//! let report = run_simulation(&trace, &arch, &placement, &models, &config, None, 2).unwrap();
//! assert_eq!(report.aggregate.requests, trace.requests.len() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod placement;
pub mod policy;
pub mod report;
pub mod trace;

pub use engine::{
    price_placement, run_simulation, simulate_priced, RequestOutcome, SimConfig, TrafficError,
};
pub use placement::{Partition, Placement};
pub use policy::{Batching, PolicyKind};
pub use report::{FlowStats, PartitionStats, TenantStats, TrafficReport};
pub use trace::{GeneratorKind, SplitMix64, TenantSpec, Trace, TraceError, TraceEvent, TraceSpec};

#[cfg(doc)]
use cim_arch::CimArchitecture;
#[cfg(doc)]
use cim_sim::ServiceModel;
