//! # cim-graph — DNN computation-graph IR and model zoo
//!
//! CIM-MLC consumes DNN models as computation graphs in which nodes are
//! operators and edges are data dependencies (paper §3.3.1, where the
//! input format is ONNX). This crate provides:
//!
//! * a typed operator set ([`OpKind`]) covering the paper's benchmark
//!   networks (VGG, ResNet, ViT) plus common auxiliaries;
//! * an always-consistent graph IR ([`Graph`]) with eager shape inference —
//!   a node cannot be added with mismatched input shapes;
//! * a JSON exchange format (the ONNX substitute) via serde;
//! * a [`zoo`] of builders reproducing the evaluation workloads with their
//!   exact layer shapes.
//!
//! ```
//! use cim_graph::{Graph, OpKind, Shape};
//!
//! # fn main() -> Result<(), cim_graph::GraphError> {
//! let mut g = Graph::new("tiny");
//! let x = g.add("x", OpKind::Input { shape: Shape::chw(3, 32, 32) }, [])?;
//! let c = g.add("conv", OpKind::conv2d(32, 3, 1, 1), [x])?;
//! let r = g.add("relu", OpKind::Relu, [c])?;
//! assert_eq!(g.node(r).out_shape(), &Shape::chw(32, 32, 32));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delta;
mod graph;
mod op;
mod serde_io;
mod shape;
pub mod zoo;

pub use delta::{DeltaError, GraphDelta, GraphEdit};
pub use graph::{Adjacency, Graph, GraphError, Node, NodeId, Nodes, OpId, ShapeId};
pub use op::{OpKind, PoolKind};
pub use serde_io::{from_json, to_json};
pub use shape::Shape;

// Graphs are compiled concurrently by `cim_compiler::pool`'s worker
// threads; pin thread-safety down at compile time.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Graph>();
    assert_send_sync::<GraphError>();
    assert_send_sync::<GraphDelta>();
    assert_send_sync::<DeltaError>();
};

/// Convenient result alias for fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
