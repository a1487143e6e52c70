//! # cim-sim — functional and performance simulation
//!
//! The paper verifies its scheduling results with a Python functional
//! simulator ("the hardware abstraction of CIM is described by a data
//! structure, and meta-operators are implemented by specific functions",
//! §4.1) cross-checked against PyTorch, plus a performance simulator
//! extended from PUMA-sim / NeuroSim / NVSim. This crate reproduces both
//! roles in Rust:
//!
//! * the [`reference`](mod@crate::reference) module — a direct integer executor for [`cim_graph::Graph`]s:
//!   the PyTorch substitute. Weights and inputs are synthesized
//!   deterministically by [`weights`].
//! * [`func`] — the functional simulator: a [`func::Machine`] with L0/L1
//!   buffers and logical crossbar arrays that executes a
//!   [`cim_mop::MopFlow`]. A compiled flow must reproduce the reference
//!   executor's output **bit-exactly**; this verifies the compiler's
//!   mapping decisions (partial-sum splits, bit-slice packing, wordline
//!   remapping), which is precisely the role the paper's functional
//!   simulator plays.
//! * [`trace`] — the performance-trace side: phase-level latency/power
//!   series derived from a compiled schedule, feeding the figure
//!   harnesses. The schedule's cycles and energy themselves come from
//!   the compiler's analytic cost model ([`cim_compiler::level::fold_report`]),
//!   not from a statement-by-statement walk of the flow.
//!
//! The functional simulator models crossbars at the *logical matrix*
//! level (exact integer MACs). Bit-serial DAC streaming and bit-sliced
//! cell storage are timing/energy phenomena handled by the cost model;
//! modelling them functionally would only re-derive the same integers.
//!
//! ```
//! use cim_arch::presets;
//! use cim_compiler::{codegen, Compiler};
//! use cim_graph::zoo;
//! use cim_sim::{func, reference, weights};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = zoo::lenet5();
//! let arch = presets::isaac_baseline();
//! let compiled = Compiler::new().compile(&graph, &arch)?;
//! let (flow, layout) = codegen::generate_flow(&compiled, &graph, &arch)?;
//!
//! let store = weights::WeightStore::for_flow(&flow);
//! let mut machine = func::Machine::new(&arch);
//! machine.load_inputs(&graph, &layout);
//! machine.execute(&flow, &store)?;
//!
//! let expected = reference::execute(&graph);
//! let out = graph.outputs()[0];
//! assert_eq!(machine.read_l0(layout.offset(out), 10), expected[&out]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod func;
pub mod kernels;
pub mod reference;
pub mod service;
pub mod trace;
pub mod weights;

pub use func::{Machine, SimError};
pub use service::ServiceModel;
pub use weights::WeightStore;

// Parallel drivers (the `cim_compiler::pool` workers) run one simulator per
// worker thread and move results across threads; pin thread-safety down
// at compile time.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Machine>();
    assert_send_sync::<WeightStore>();
    assert_send_sync::<SimError>();
};
