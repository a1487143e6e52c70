//! The computation-graph IR.
//!
//! # Storage model: typed arenas + interning
//!
//! A [`Graph`] does not store one heap object per node. Instead it is a
//! set of typed arenas indexed by dense ids:
//!
//! * **nodes** — a flat `Vec` of fixed-size records (name offsets,
//!   operator id, shape id, edge-slice offsets), indexed by [`NodeId`];
//! * **names** — one shared string pool: each node's name is a slice of
//!   it, so a graph's names are one heap block, not one per node;
//! * **shapes** — an interned arena of unique [`Shape`]s, indexed by
//!   [`ShapeId`]. The zoo's repeated layers (e.g. the 49 identical
//!   `[tokens, dim]` activations of a ViT) collapse to one entry;
//! * **ops** — an interned arena of unique [`OpKind`] attribute sets,
//!   indexed by [`OpId`]. Identical operators (every `Relu`, every
//!   `conv3x3/1 p1 -> 512`, …) share one record;
//! * **edges** — one shared CSR-style pool: each node's inputs are a
//!   contiguous slice of the pool, so [`Node::inputs`] is a slice borrow
//!   and traversal allocates nothing. Successor adjacency is the same
//!   CSR shape, materialized once by [`Graph::successors`].
//!
//! # Invariants and index stability
//!
//! * Ids are **dense and append-only**: [`Graph::add`] mints `NodeId`s
//!   `0, 1, 2, …` in insertion order and nothing is ever removed or
//!   reordered, so insertion order *is* a topological order and a
//!   `NodeId` (or an index derived from [`NodeId::index`]) stays valid
//!   for the lifetime of the graph. Serialized artifacts (schedules,
//!   cache entries) may therefore reference nodes by index.
//! * **Interning is an encoding, not a semantic**: two nodes sharing a
//!   `ShapeId`/`OpId` is exactly equivalent to two nodes owning equal
//!   values. Equality ([`PartialEq`]) and the JSON exchange format are
//!   defined on the *resolved* values, so graphs built through different
//!   construction orders compare equal whenever their per-node contents
//!   match, and the wire format is byte-identical to the pre-arena
//!   representation.
//! * Intern ids are **deterministic**: they are assigned in first-use
//!   order, so the same build sequence always produces the same ids —
//!   replaying a serialized graph through [`Graph::add`] reproduces the
//!   arena layout exactly.
//! * Every edge points to an existing (hence earlier) node, and every
//!   node's output shape has been inferred successfully at `add` time;
//!   a `Graph` value is always consistent.
//!
//! [`Node`] is a cheap `Copy` *view* (a `(&Graph, NodeId)` pair), not a
//! stored object; [`Graph::node`] and iteration via [`Graph::nodes`] hand
//! out views that resolve arena indices on access.

use crate::{OpKind, Shape};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Identifier of a node inside one [`Graph`].
///
/// Ids are dense indices assigned in insertion order, which is also a
/// topological order (a node's inputs must already exist when it is added).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a node id from a value [`NodeId::index`] returned —
    /// deserialization support for artifacts (schedules, cache entries)
    /// that reference graph nodes by index. The caller is responsible
    /// for pairing the id with the graph it came from; ids are not
    /// validated against any particular graph here.
    ///
    /// # Panics
    /// Panics when `index` exceeds the dense-id range (`u32`).
    #[must_use]
    pub fn from_index(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node index fits the dense-id range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifier of an interned [`Shape`] inside one [`Graph`]'s shape arena.
///
/// Equal shapes within a graph always share the same `ShapeId`, so id
/// equality is shape equality (within that graph). Ids are assigned in
/// first-use order and are stable for the lifetime of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeId(pub(crate) u32);

impl ShapeId {
    /// The dense index of this shape in the graph's shape arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an interned [`OpKind`] inside one [`Graph`]'s op arena.
///
/// Equal operator attribute sets within a graph always share the same
/// `OpId`, so id equality is operator equality (within that graph). Ids
/// are assigned in first-use order and are stable for the lifetime of
/// the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// The dense index of this operator in the graph's op arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Error produced by graph construction or analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A referenced input node does not exist in the graph.
    UnknownNode {
        /// The offending id.
        id: u32,
    },
    /// An operator received the wrong number of inputs.
    ArityMismatch {
        /// Operator mnemonic.
        op: &'static str,
        /// Expected input count.
        expected: usize,
        /// Actual input count.
        got: usize,
    },
    /// Input shapes are incompatible with the operator.
    ShapeMismatch {
        /// Operator mnemonic.
        op: &'static str,
        /// Description of the mismatch.
        message: String,
    },
    /// The graph (or a serialized document) is structurally invalid.
    Malformed {
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode { id } => write!(f, "unknown node id %{id}"),
            GraphError::ArityMismatch { op, expected, got } => {
                write!(f, "operator `{op}` expects {expected} inputs, got {got}")
            }
            GraphError::ShapeMismatch { op, message } => {
                write!(f, "shape mismatch in `{op}`: {message}")
            }
            GraphError::Malformed { message } => write!(f, "malformed graph: {message}"),
        }
    }
}

impl Error for GraphError {}

/// Fixed-size arena record backing one node. All variable-size payload
/// lives in the graph-level arenas (`name_pool`, `shapes`, `ops`, `in_pool`).
#[derive(Debug, Clone, PartialEq)]
struct NodeRec {
    /// Offset of this node's name in `Graph::name_pool`.
    name_start: u32,
    /// Length of this node's name, in bytes.
    name_len: u32,
    op: OpId,
    out_shape: ShapeId,
    /// Offset of this node's input slice in `Graph::in_pool`.
    in_start: u32,
    /// Length of this node's input slice.
    in_len: u32,
}

/// A borrowed view of one operator instance in a [`Graph`].
///
/// `Node` is a `Copy` handle (graph reference + [`NodeId`]); accessors
/// resolve the graph's arenas on demand. It is obtained from
/// [`Graph::node`] or by iterating [`Graph::nodes`].
#[derive(Clone, Copy)]
pub struct Node<'g> {
    graph: &'g Graph,
    id: NodeId,
}

impl<'g> Node<'g> {
    /// The node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    fn rec(&self) -> &'g NodeRec {
        &self.graph.nodes[self.id.index()]
    }

    /// The node's user-facing name.
    #[must_use]
    pub fn name(&self) -> &'g str {
        let rec = self.rec();
        let start = rec.name_start as usize;
        &self.graph.name_pool[start..start + rec.name_len as usize]
    }

    /// The operator (resolved from the graph's interned op arena).
    #[must_use]
    pub fn op(&self) -> &'g OpKind {
        &self.graph.ops[self.rec().op.index()]
    }

    /// The interned id of the operator.
    #[must_use]
    pub fn op_id(&self) -> OpId {
        self.rec().op
    }

    /// Ids of the data inputs — a slice of the graph's shared edge pool.
    #[must_use]
    pub fn inputs(&self) -> &'g [NodeId] {
        let rec = self.rec();
        let start = rec.in_start as usize;
        &self.graph.in_pool[start..start + rec.in_len as usize]
    }

    /// The inferred output shape (resolved from the shape arena).
    #[must_use]
    pub fn out_shape(&self) -> &'g Shape {
        &self.graph.shapes[self.rec().out_shape.index()]
    }

    /// The interned id of the output shape.
    #[must_use]
    pub fn shape_id(&self) -> ShapeId {
        self.rec().out_shape
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("name", &self.name())
            .field("op", self.op())
            .field("inputs", &self.inputs())
            .field("out_shape", self.out_shape())
            .finish()
    }
}

impl PartialEq for Node<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.name() == other.name()
            && self.op() == other.op()
            && self.inputs() == other.inputs()
            && self.out_shape() == other.out_shape()
    }
}

/// Iterator over all nodes of a graph in insertion (= topological) order.
///
/// Yields [`Node`] views; created by [`Graph::nodes`].
#[derive(Clone)]
pub struct Nodes<'g> {
    graph: &'g Graph,
    range: std::ops::Range<u32>,
}

impl<'g> Iterator for Nodes<'g> {
    type Item = Node<'g>;

    fn next(&mut self) -> Option<Node<'g>> {
        self.range.next().map(|i| Node {
            graph: self.graph,
            id: NodeId(i),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for Nodes<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.range.next_back().map(|i| Node {
            graph: self.graph,
            id: NodeId(i),
        })
    }
}

impl ExactSizeIterator for Nodes<'_> {}

/// Successor adjacency in CSR form: one shared pool of consumer ids plus
/// per-node offsets. Built once by [`Graph::successors`]; lookups via
/// [`Adjacency::of`] are slice borrows and allocate nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    /// `index[i]..index[i+1]` bounds node `i`'s slice of `pool`.
    index: Vec<u32>,
    pool: Vec<NodeId>,
}

impl Adjacency {
    /// The nodes consuming `id`'s output, in consumer-id order.
    ///
    /// # Panics
    /// Panics if `id` does not belong to the graph this adjacency was
    /// built from.
    #[must_use]
    pub fn of(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.pool[self.index[i] as usize..self.index[i + 1] as usize]
    }

    /// Whether `id` has at least one consumer.
    #[must_use]
    pub fn has_successors(&self, id: NodeId) -> bool {
        !self.of(id).is_empty()
    }
}

/// A DNN computation graph: nodes are operators, edges are data
/// dependencies (paper §3.3.1).
///
/// Storage is arena-based with interned shapes and operators — the
/// `graph` module documentation states the invariants. The graph maintains
/// two of them at [`Graph::add`] time: every edge points to an existing
/// node (hence the graph is acyclic), and every node's output shape has
/// been successfully inferred from its inputs.
#[derive(Debug, Clone)]
pub struct Graph {
    name: String,
    nodes: Vec<NodeRec>,
    /// Shared name pool; each node's name is one contiguous slice.
    name_pool: String,
    /// Interned shape arena, indexed by [`ShapeId`].
    shapes: Vec<Shape>,
    shape_index: HashMap<Shape, ShapeId>,
    /// Interned operator arena, indexed by [`OpId`].
    ops: Vec<OpKind>,
    op_index: HashMap<OpKind, OpId>,
    /// Shared CSR edge pool; each node's inputs are one contiguous slice.
    in_pool: Vec<NodeId>,
}

impl PartialEq for Graph {
    /// Structural equality on resolved values: same name and, per node,
    /// same name/operator/inputs/output shape. Arena layout (intern id
    /// assignment) does not participate, so equality is independent of
    /// construction history.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nodes.len() == other.nodes.len()
            && self.nodes().zip(other.nodes()).all(|(a, b)| a == b)
    }
}

/// Infers `op`'s output shape over the output shapes of `inputs`,
/// gathered into an inline array: only a `Concat` of more than
/// [`INLINE_INPUTS`] inputs spills them to the heap.
fn infer_over(
    op: &OpKind,
    inputs: &[NodeId],
    nodes: &[NodeRec],
    shapes: &[Shape],
) -> Result<Shape, GraphError> {
    let shape_of = |id: &NodeId| &shapes[nodes[id.index()].out_shape.index()];
    match inputs {
        [] => op.infer(&[]),
        [first, ..] if inputs.len() <= INLINE_INPUTS => {
            let mut gathered = [shape_of(first); INLINE_INPUTS];
            for (slot, id) in gathered.iter_mut().zip(inputs) {
                *slot = shape_of(id);
            }
            op.infer(&gathered[..inputs.len()])
        }
        _ => op.infer(&inputs.iter().map(shape_of).collect::<Vec<_>>()),
    }
}

/// Inputs [`infer_over`] gathers without allocating: every operator but
/// `Concat` takes one or two.
const INLINE_INPUTS: usize = 4;

impl Graph {
    /// Creates an empty graph named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            nodes: Vec::new(),
            name_pool: String::new(),
            shapes: Vec::new(),
            shape_index: HashMap::new(),
            ops: Vec::new(),
            op_index: HashMap::new(),
            in_pool: Vec::new(),
        }
    }

    /// The model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the model (the exchange format may name it after its
    /// nodes).
    pub(crate) fn set_name(&mut self, name: String) {
        self.name = name;
    }

    fn intern_shape(&mut self, shape: Shape) -> ShapeId {
        if let Some(&id) = self.shape_index.get(&shape) {
            return id;
        }
        let id = ShapeId(u32::try_from(self.shapes.len()).expect("shape arena fits u32"));
        self.shapes.push(shape.clone());
        self.shape_index.insert(shape, id);
        id
    }

    fn intern_op(&mut self, op: OpKind) -> OpId {
        if let Some(&id) = self.op_index.get(&op) {
            return id;
        }
        let id = OpId(u32::try_from(self.ops.len()).expect("op arena fits u32"));
        self.ops.push(op.clone());
        self.op_index.insert(op, id);
        id
    }

    /// Adds a node and infers its output shape.
    ///
    /// # Errors
    /// Returns [`GraphError`] if an input id is unknown or shape inference
    /// fails.
    pub fn add(
        &mut self,
        name: impl AsRef<str>,
        op: OpKind,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> crate::Result<NodeId> {
        let in_start = self.in_pool.len();
        for input in inputs {
            if input.index() >= self.nodes.len() {
                self.in_pool.truncate(in_start);
                return Err(GraphError::UnknownNode { id: input.0 });
            }
            self.in_pool.push(input);
        }
        let out_shape = match infer_over(&op, &self.in_pool[in_start..], &self.nodes, &self.shapes)
        {
            Ok(shape) => shape,
            Err(err) => {
                self.in_pool.truncate(in_start);
                return Err(err);
            }
        };
        let in_len = u32::try_from(self.in_pool.len() - in_start).expect("input count fits u32");
        let id = NodeId(u32::try_from(self.nodes.len()).expect("graph node count fits u32"));
        let out_shape = self.intern_shape(out_shape);
        let op = self.intern_op(op);
        let name = name.as_ref();
        let name_start = u32::try_from(self.name_pool.len()).expect("name pool fits u32");
        self.name_pool.push_str(name);
        self.nodes.push(NodeRec {
            name_start,
            name_len: u32::try_from(name.len()).expect("a node name fits u32"),
            op,
            out_shape,
            in_start: u32::try_from(in_start).expect("edge pool fits u32"),
            in_len,
        });
        Ok(id)
    }

    /// Parameter-only graph surgery behind
    /// [`GraphDelta`](crate::GraphDelta): clones the arena, swaps the
    /// retuned operators in place, and re-infers every output shape from
    /// the first edited node onward (insertion order is topological, so
    /// one forward sweep reaches every affected node). No topology
    /// changes means names, ids and the edge pool are reusable as-is —
    /// this skips the flatten/rebuild round-trip on the recompile hot
    /// path.
    ///
    /// On failure returns the id of the node whose shape inference
    /// rejected its (possibly retuned) inputs, so the caller can name it.
    pub(crate) fn retuned_many(
        &self,
        retunes: &[(NodeId, OpKind)],
    ) -> Result<Graph, (NodeId, GraphError)> {
        let mut g = self.clone();
        let mut first = g.nodes.len();
        for (id, op) in retunes {
            let op = g.intern_op(op.clone());
            g.nodes[id.index()].op = op;
            first = first.min(id.index());
        }
        for i in first..g.nodes.len() {
            let out = {
                let rec = &g.nodes[i];
                let start = rec.in_start as usize;
                let inputs = &g.in_pool[start..start + rec.in_len as usize];
                infer_over(&g.ops[rec.op.index()], inputs, &g.nodes, &g.shapes)
                    .map_err(|e| (NodeId::from_index(i), e))?
            };
            let out = g.intern_shape(out);
            g.nodes[i].out_shape = out;
        }
        Ok(g)
    }

    /// A view of the node with id `id`.
    ///
    /// # Panics
    /// Panics (on field access) if `id` does not belong to this graph; ids
    /// are only minted by [`Graph::add`], so this indicates cross-graph id
    /// confusion.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        assert!(
            id.index() < self.nodes.len(),
            "node id {id} out of range for graph `{}` ({} nodes)",
            self.name,
            self.nodes.len()
        );
        Node { graph: self, id }
    }

    /// Iterates all nodes in insertion (= topological) order.
    #[must_use]
    pub fn nodes(&self) -> Nodes<'_> {
        Nodes {
            graph: self,
            range: 0..u32::try_from(self.nodes.len()).expect("graph node count fits u32"),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of *unique* shapes in the interned shape arena.
    #[must_use]
    pub fn shape_count(&self) -> usize {
        self.shapes.len()
    }

    /// Number of *unique* operator attribute sets in the interned op arena.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The shape stored under `id` in the shape arena.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this graph's arena.
    #[must_use]
    pub fn shape(&self, id: ShapeId) -> &Shape {
        &self.shapes[id.index()]
    }

    /// Ids in topological order (insertion order, by construction).
    #[must_use]
    pub fn topo_order(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).map(NodeId::from_index).collect()
    }

    /// Successor adjacency (node → consumers of its output) in CSR form.
    ///
    /// Building it is two passes over the edge pool and two allocations;
    /// lookups afterwards allocate nothing. Consumer lists come out in
    /// consumer-id order.
    #[must_use]
    pub fn successors(&self) -> Adjacency {
        let n = self.nodes.len();
        let mut index = vec![0u32; n + 1];
        for &input in &self.in_pool {
            index[input.index() + 1] += 1;
        }
        for i in 0..n {
            index[i + 1] += index[i];
        }
        let mut cursor: Vec<u32> = index[..n].to_vec();
        let mut pool = vec![NodeId(0); self.in_pool.len()];
        for (i, rec) in self.nodes.iter().enumerate() {
            // Consumers land in id order because nodes are scanned in id
            // order; a multi-edge (same producer twice) contributes one
            // entry per edge, like the pre-CSR map did.
            let consumer = NodeId::from_index(i);
            let start = rec.in_start as usize;
            for &input in &self.in_pool[start..start + rec.in_len as usize] {
                let slot = &mut cursor[input.index()];
                pool[*slot as usize] = consumer;
                *slot += 1;
            }
        }
        Adjacency { index, pool }
    }

    /// Nodes whose output nobody consumes (the graph outputs).
    #[must_use]
    pub fn outputs(&self) -> Vec<NodeId> {
        let mut consumed = vec![false; self.nodes.len()];
        for &input in &self.in_pool {
            consumed[input.index()] = true;
        }
        consumed
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Nodes executing in CIM arrays, in topological order.
    #[must_use]
    pub fn cim_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, rec)| self.ops[rec.op.index()].is_cim_supported())
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// The stationary weight-matrix dimensions `(rows, cols)` of a CIM
    /// node: `rows` is the reduction extent bound to crossbar rows (XBR),
    /// `cols` the output extent bound to crossbar columns (XBC)
    /// (Figure 7's dimension binding).
    ///
    /// Returns `None` for digital operators.
    #[must_use]
    pub fn weight_matrix(&self, id: NodeId) -> Option<(usize, usize)> {
        let node = self.node(id);
        match node.op() {
            OpKind::Conv2d {
                out_channels,
                kernel,
                ..
            } => {
                let (in_c, _, _) = self.input_shape(id, 0).as_chw()?;
                Some((in_c * kernel * kernel, *out_channels))
            }
            OpKind::Linear { out_features } => {
                Some((self.input_shape(id, 0).last(), *out_features))
            }
            OpKind::MatMul => {
                let (k, n) = self.input_shape(id, 1).as_tokens()?;
                Some((k, n))
            }
            _ => None,
        }
    }

    /// The number of matrix-vector multiplications a CIM node unrolls into
    /// (paper §3.3.3: a convolution becomes one MVM per sliding-window
    /// position; a linear/matmul becomes one MVM per input row).
    ///
    /// Returns 0 for digital operators.
    #[must_use]
    pub fn mvm_count(&self, id: NodeId) -> u64 {
        let node = self.node(id);
        match node.op() {
            OpKind::Conv2d { .. } => {
                let (_, oh, ow) = node.out_shape().as_chw().expect("conv output is rank 3");
                (oh * ow) as u64
            }
            OpKind::Linear { .. } => {
                let dims = node.out_shape().dims();
                dims[..dims.len() - 1]
                    .iter()
                    .map(|&d| d as u64)
                    .product::<u64>()
                    .max(1)
            }
            OpKind::MatMul => {
                let (m, _) = node
                    .out_shape()
                    .as_tokens()
                    .expect("matmul output is rank 2");
                m as u64
            }
            _ => 0,
        }
    }

    /// Multiply-accumulate count of a node (digital ops report their
    /// element-operation count instead).
    #[must_use]
    pub fn macs(&self, id: NodeId) -> u64 {
        let node = self.node(id);
        match node.op() {
            OpKind::Conv2d { .. } | OpKind::Linear { .. } | OpKind::MatMul => {
                let (rows, cols) = self.weight_matrix(id).expect("CIM op has a weight matrix");
                self.mvm_count(id) * rows as u64 * cols as u64
            }
            OpKind::Attention { .. } => {
                let (t, d) = node
                    .out_shape()
                    .as_tokens()
                    .expect("attention output is rank 2");
                2 * (t as u64) * (t as u64) * (d as u64)
            }
            _ => node.out_shape().elements(),
        }
    }

    /// Total weight parameters held in CIM arrays across the graph.
    #[must_use]
    pub fn total_weights(&self) -> u64 {
        self.cim_nodes()
            .iter()
            .filter_map(|&id| self.weight_matrix(id))
            .map(|(r, c)| r as u64 * c as u64)
            .sum()
    }

    /// Total MACs across the graph.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        (0..self.nodes.len())
            .map(|i| self.macs(NodeId::from_index(i)))
            .sum()
    }

    fn input_shape(&self, id: NodeId, idx: usize) -> &Shape {
        self.node(self.node(id).inputs()[idx]).out_shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new("tiny");
        let x = g
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::chw(3, 32, 32),
                },
                [],
            )
            .unwrap();
        let c = g.add("conv1", OpKind::conv2d(32, 3, 1, 1), [x]).unwrap();
        let r = g.add("relu1", OpKind::Relu, [c]).unwrap();
        (g, x, c, r)
    }

    #[test]
    fn add_infers_shapes() {
        let (g, _, c, r) = tiny();
        assert_eq!(g.node(c).out_shape(), &Shape::chw(32, 32, 32));
        assert_eq!(g.node(r).out_shape(), &Shape::chw(32, 32, 32));
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn add_rejects_unknown_input() {
        let mut g = Graph::new("bad");
        let err = g.add("r", OpKind::Relu, [NodeId(7)]).unwrap_err();
        assert!(matches!(err, GraphError::UnknownNode { id: 7 }));
        // A failed add leaves no garbage in the edge pool.
        assert!(g.in_pool.is_empty());
    }

    #[test]
    fn add_rejects_shape_mismatch() {
        let mut g = Graph::new("bad");
        let x = g
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::vec(8),
                },
                [],
            )
            .unwrap();
        let err = g.add("c", OpKind::conv2d(4, 3, 1, 1), [x]).unwrap_err();
        assert!(matches!(err, GraphError::ShapeMismatch { .. }));
        assert!(g.in_pool.is_empty());
    }

    #[test]
    fn topo_and_outputs() {
        let (g, x, c, r) = tiny();
        assert_eq!(g.topo_order(), vec![x, c, r]);
        assert_eq!(g.outputs(), vec![r]);
        let succ = g.successors();
        assert_eq!(succ.of(x), &[c]);
        assert_eq!(succ.of(c), &[r]);
        assert!(succ.of(r).is_empty());
        assert!(succ.has_successors(x));
        assert!(!succ.has_successors(r));
    }

    #[test]
    fn successors_handle_fanout_in_consumer_order() {
        let mut g = Graph::new("fanout");
        let x = g
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::chw(8, 8, 8),
                },
                [],
            )
            .unwrap();
        let a = g.add("a", OpKind::Relu, [x]).unwrap();
        let b = g.add("b", OpKind::BatchNorm, [x]).unwrap();
        let s = g.add("s", OpKind::Add, [a, b]).unwrap();
        let succ = g.successors();
        assert_eq!(succ.of(x), &[a, b]);
        assert_eq!(succ.of(a), &[s]);
        assert_eq!(succ.of(b), &[s]);
        assert_eq!(g.outputs(), vec![s]);
    }

    #[test]
    fn interning_dedups_shapes_and_ops() {
        let mut g = Graph::new("intern");
        let x = g
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::chw(8, 8, 8),
                },
                [],
            )
            .unwrap();
        let mut h = x;
        for i in 0..10 {
            h = g.add(format!("r{i}"), OpKind::Relu, [h]).unwrap();
        }
        // 11 nodes, but only one shape ([8,8,8]) and two unique ops.
        assert_eq!(g.len(), 11);
        assert_eq!(g.shape_count(), 1);
        assert_eq!(g.op_count(), 2);
        // Shared ids, equal resolved values.
        let first = g.node(NodeId(1));
        let last = g.node(h);
        assert_eq!(first.shape_id(), last.shape_id());
        assert_eq!(first.op_id(), last.op_id());
        assert_eq!(g.shape(first.shape_id()), &Shape::chw(8, 8, 8));
        assert_eq!(first.op(), &OpKind::Relu);
    }

    #[test]
    fn equality_is_structural() {
        let (a, ..) = tiny();
        let (b, ..) = tiny();
        assert_eq!(a, b);
        let mut c = Graph::new("tiny");
        let x = c
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::chw(3, 32, 32),
                },
                [],
            )
            .unwrap();
        let cv = c.add("conv1", OpKind::conv2d(32, 3, 1, 1), [x]).unwrap();
        let _ = c.add("relu_other", OpKind::Relu, [cv]).unwrap();
        assert_ne!(a, c); // differing node name
    }

    #[test]
    fn weight_matrix_dimension_binding() {
        let (g, _, c, _) = tiny();
        // conv 3x3 over 3 channels -> 27 rows; 32 output channels -> 32 cols.
        assert_eq!(g.weight_matrix(c), Some((27, 32)));
        let mut g2 = Graph::new("lin");
        let x = g2
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::tokens(197, 768),
                },
                [],
            )
            .unwrap();
        let l = g2.add("fc", OpKind::linear(3072), [x]).unwrap();
        assert_eq!(g2.weight_matrix(l), Some((768, 3072)));
        assert_eq!(g2.weight_matrix(x), None);
    }

    #[test]
    fn mvm_count_matches_sliding_windows() {
        let (g, _, c, r) = tiny();
        // 32x32 output positions (Figure 16: 1024 MVMs for this conv).
        assert_eq!(g.mvm_count(c), 1024);
        assert_eq!(g.mvm_count(r), 0);
    }

    #[test]
    fn macs_and_totals() {
        let (g, _, c, _) = tiny();
        assert_eq!(g.macs(c), 1024 * 27 * 32);
        assert_eq!(g.total_weights(), 27 * 32);
        assert!(g.total_macs() > g.macs(c)); // relu elements counted too
        assert_eq!(g.cim_nodes(), vec![c]);
    }

    #[test]
    fn matmul_weight_comes_from_rhs() {
        let mut g = Graph::new("attn");
        let q = g
            .add(
                "q",
                OpKind::Input {
                    shape: Shape::tokens(197, 64),
                },
                [],
            )
            .unwrap();
        let k = g
            .add(
                "k",
                OpKind::Input {
                    shape: Shape::tokens(64, 197),
                },
                [],
            )
            .unwrap();
        let s = g.add("scores", OpKind::MatMul, [q, k]).unwrap();
        assert_eq!(g.weight_matrix(s), Some((64, 197)));
        assert_eq!(g.mvm_count(s), 197);
        let _ = q;
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "%3");
    }
}
