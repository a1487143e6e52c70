//! Typed graph edits — the input to incremental recompilation.
//!
//! A [`GraphDelta`] is an ordered list of [`GraphEdit`]s addressed by
//! node *name* (never [`NodeId`] — ids are dense indices
//! that shift when nodes are inserted or removed, names survive the
//! rebuild). Applying a delta never mutates the base graph; it produces
//! a fresh, fully-consistent [`Graph`] or an error naming the offending
//! node or edge.
//!
//! # The delta contract
//!
//! Mirroring the pass-pipeline purity contract in `cim_compiler::pass`,
//! deltas obey three invariants:
//!
//! 1. **Purity** — [`GraphDelta::apply`] is a pure function of
//!    `(base, delta)`. The base graph is untouched; the result is a new
//!    graph rebuilt node by node, so every [`Graph`] invariant (dense
//!    topological ids, eager shape inference, interning) holds in the
//!    output exactly as if it had been built from scratch.
//! 2. **Atomicity** — either every edit applies and the rebuilt graph
//!    passes shape inference end to end, or the whole application fails
//!    with a [`DeltaError`] that names the offending node/edge. There is
//!    no partially-edited graph.
//! 3. **Order sensitivity** — edits apply in sequence and later edits
//!    observe earlier ones: an [`InsertNode`](GraphEdit::InsertNode) may
//!    be retargeted by a following
//!    [`RetargetEdge`](GraphEdit::RetargetEdge), and a name freed by
//!    [`RemoveNode`](GraphEdit::RemoveNode) may be reused.
//!
//! Because node *values* (weights) are not part of this structural IR,
//! [`ReplaceNodeWeights`](GraphEdit::ReplaceNodeWeights) is validated
//! (the node must exist and own stationary weights) but changes no
//! shapes — compilers consuming deltas can use it to keep all model
//! mutations flowing through one typed entry point.
//!
//! ```
//! use cim_graph::{zoo, GraphDelta, GraphEdit, OpKind};
//!
//! let base = zoo::mlp();
//! let delta = GraphDelta::new().with(GraphEdit::RetuneOpParams {
//!     node: "fc1".into(),
//!     op: OpKind::linear(512),
//! });
//! let edited = delta.apply(&base).unwrap();
//! assert_eq!(base.len(), edited.len());
//! assert_ne!(base, edited);
//! ```

use crate::{Graph, NodeId, OpKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// One name-addressed edit of a computation graph.
///
/// Serialized form is externally tagged with `snake_case` variant names,
/// e.g. `{"retune_op_params":{"node":"l0.fc1","op":{"Linear":
/// {"out_features":2048}}}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum GraphEdit {
    /// Declare that the stationary weight values of `node` changed.
    ///
    /// Weight *values* are not stored in the structural IR, so this edit
    /// changes no shapes; it exists so that editors route every model
    /// mutation through the delta API. The node must own stationary
    /// weights ([`OpKind::has_static_weights`]).
    ReplaceNodeWeights {
        /// Name of the edited node.
        node: String,
    },
    /// Replace the operator attributes of `node` with `op`.
    ///
    /// The new operator must be the same kind (same
    /// [`OpKind::mnemonic`]) — retuning changes parameters such as
    /// `out_features` or stride, not the operator identity.
    RetuneOpParams {
        /// Name of the edited node.
        node: String,
        /// Replacement operator attributes.
        op: OpKind,
    },
    /// Insert a new node named `name` computing `op` over `inputs`.
    ///
    /// The node is placed immediately before `before` in topological
    /// order, or appended when `before` is `None`. Every input must
    /// already exist earlier than the insertion point.
    InsertNode {
        /// Name of the new node (must be unused).
        name: String,
        /// Operator of the new node.
        op: OpKind,
        /// Names of its data inputs.
        inputs: Vec<String>,
        /// Name of the node to insert before (append when absent).
        #[serde(default)]
        before: Option<String>,
    },
    /// Remove `node`. Fails with [`DeltaError::NodeInUse`] while any
    /// other node still consumes its output.
    RemoveNode {
        /// Name of the removed node.
        node: String,
    },
    /// Rewire input number `input_index` of `node` to `new_input`.
    ///
    /// The new producer must precede `node` in topological order
    /// (acyclicity is preserved by construction).
    RetargetEdge {
        /// Name of the consuming node.
        node: String,
        /// Which of its inputs to rewire (0-based).
        input_index: usize,
        /// Name of the new producer.
        new_input: String,
    },
}

/// An ordered batch of [`GraphEdit`]s — the unit accepted by
/// `Session::recompile` in `cim-compiler`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GraphDelta {
    /// The edits, applied in order.
    pub edits: Vec<GraphEdit>,
}

/// Error applying a [`GraphDelta`]; every variant names the offending
/// node or edge.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// An edit referenced a node name absent from the (edited) graph.
    UnknownNode {
        /// The missing name.
        node: String,
    },
    /// An [`InsertNode`](GraphEdit::InsertNode) would duplicate a name,
    /// or the base graph itself carries duplicate names (name-addressed
    /// editing requires unique names).
    DuplicateName {
        /// The colliding name.
        name: String,
    },
    /// A [`RemoveNode`](GraphEdit::RemoveNode) target still has a
    /// consumer.
    NodeInUse {
        /// The node slated for removal.
        node: String,
        /// The consumer that still reads it.
        consumer: String,
        /// Which input slot of the consumer reads it (0-based).
        input_index: usize,
    },
    /// A [`RetuneOpParams`](GraphEdit::RetuneOpParams) tried to change
    /// the operator kind, not just its attributes.
    KindMismatch {
        /// The edited node.
        node: String,
        /// Mnemonic of the existing operator.
        expected: &'static str,
        /// Mnemonic of the offered replacement.
        got: &'static str,
    },
    /// A [`ReplaceNodeWeights`](GraphEdit::ReplaceNodeWeights) target
    /// has no stationary weights.
    NoStaticWeights {
        /// The edited node.
        node: String,
        /// Mnemonic of its operator.
        op: &'static str,
    },
    /// A [`RetargetEdge`](GraphEdit::RetargetEdge) input index is out of
    /// range for the node's arity.
    InvalidInputIndex {
        /// The consuming node.
        node: String,
        /// The offending index.
        index: usize,
        /// The node's actual input count.
        arity: usize,
    },
    /// An edge would point forward (or at the node itself), breaking
    /// topological order / acyclicity.
    ForwardEdge {
        /// The consuming node.
        node: String,
        /// The producer that does not precede it.
        input: String,
    },
    /// Rebuilding the edited graph failed shape inference or arity
    /// checking at `node` (wraps the underlying
    /// [`GraphError`](crate::GraphError) message).
    Rebuild {
        /// The node whose re-addition failed.
        node: String,
        /// The underlying graph error.
        message: String,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownNode { node } => write!(f, "unknown node `{node}`"),
            DeltaError::DuplicateName { name } => write!(f, "duplicate node name `{name}`"),
            DeltaError::NodeInUse {
                node,
                consumer,
                input_index,
            } => write!(
                f,
                "cannot remove `{node}`: still consumed by `{consumer}` (input {input_index})"
            ),
            DeltaError::KindMismatch {
                node,
                expected,
                got,
            } => write!(
                f,
                "cannot retune `{node}`: operator kind is `{expected}`, replacement is `{got}`"
            ),
            DeltaError::NoStaticWeights { node, op } => write!(
                f,
                "cannot replace weights of `{node}`: operator `{op}` has no stationary weights"
            ),
            DeltaError::InvalidInputIndex { node, index, arity } => write!(
                f,
                "input index {index} out of range for `{node}` ({arity} inputs)"
            ),
            DeltaError::ForwardEdge { node, input } => write!(
                f,
                "edge `{input}` -> `{node}` would not be topological (producer must precede consumer)"
            ),
            DeltaError::Rebuild { node, message } => {
                write!(f, "rebuild failed at node `{node}`: {message}")
            }
        }
    }
}

impl Error for DeltaError {}

/// One node of the editable flat representation: the resolved contents
/// of a graph node with inputs re-expressed by producer *name*.
#[derive(Debug, Clone)]
struct Spec {
    name: String,
    op: OpKind,
    inputs: Vec<String>,
}

impl GraphDelta {
    /// An empty delta.
    #[must_use]
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Builder-style append.
    #[must_use]
    pub fn with(mut self, edit: GraphEdit) -> Self {
        self.edits.push(edit);
        self
    }

    /// Appends an edit.
    pub fn push(&mut self, edit: GraphEdit) {
        self.edits.push(edit);
    }

    /// Number of edits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// Whether the delta contains no edits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Applies the delta to `base`, returning the edited graph.
    ///
    /// The base graph is not modified. The result is rebuilt through
    /// [`Graph::add`] node by node, so shape inference re-runs across
    /// the whole edited graph and all IR invariants hold. Deltas whose
    /// edits change no topology (only
    /// [`ReplaceNodeWeights`](GraphEdit::ReplaceNodeWeights) /
    /// [`RetuneOpParams`](GraphEdit::RetuneOpParams)) take an
    /// allocation-light fast path — same checks, same errors, same
    /// result — which keeps delta application off the incremental
    /// recompile profile.
    ///
    /// # Errors
    /// Returns the first [`DeltaError`] encountered, naming the
    /// offending node or edge (contract invariant 2: no partial edits).
    pub fn apply(&self, base: &Graph) -> Result<Graph, DeltaError> {
        if let Some(graph) = self.apply_params_only(base)? {
            return Ok(graph);
        }
        let mut specs = flatten(base)?;
        for edit in &self.edits {
            apply_edit(&mut specs, edit)?;
        }
        rebuild(base.name(), &specs)
    }

    /// Fast path for parameter-only deltas: no topology change means the
    /// node set, names and edge pool carry over verbatim, so instead of
    /// the flatten → edit → rebuild round-trip the retuned operators are
    /// swapped on a clone of the arena and shapes re-inferred downstream
    /// of the first edit ([`Graph::retuned_many`]). Returns `Ok(None)`
    /// when any edit is topological and the general path must run.
    ///
    /// Check order mirrors the general path exactly: the base graph's
    /// name-ambiguity guard, then per-edit validation in sequence, then
    /// one end-to-end shape-inference sweep (the general path's
    /// `rebuild`), so every error surfaces in the same order with the
    /// same payload.
    fn apply_params_only(&self, base: &Graph) -> Result<Option<Graph>, DeltaError> {
        if self.edits.iter().any(|edit| {
            !matches!(
                edit,
                GraphEdit::ReplaceNodeWeights { .. } | GraphEdit::RetuneOpParams { .. }
            )
        }) {
            return Ok(None);
        }
        // Name addressing requires unique names, exactly as `flatten`.
        let mut ids: HashMap<&str, NodeId> = HashMap::with_capacity(base.len());
        for node in base.nodes() {
            if ids.insert(node.name(), node.id()).is_some() {
                return Err(DeltaError::DuplicateName {
                    name: node.name().to_string(),
                });
            }
        }
        let lookup = |name: &str| -> Result<NodeId, DeltaError> {
            ids.get(name)
                .copied()
                .ok_or_else(|| DeltaError::UnknownNode {
                    node: name.to_string(),
                })
        };
        let mut retunes: Vec<(NodeId, OpKind)> = Vec::with_capacity(self.edits.len());
        for edit in &self.edits {
            match edit {
                GraphEdit::ReplaceNodeWeights { node } => {
                    let op = base.node(lookup(node)?).op();
                    if !op.has_static_weights() {
                        return Err(DeltaError::NoStaticWeights {
                            node: node.clone(),
                            op: op.mnemonic(),
                        });
                    }
                }
                GraphEdit::RetuneOpParams { node, op } => {
                    let id = lookup(node)?;
                    let existing = base.node(id).op();
                    if existing.mnemonic() != op.mnemonic() {
                        return Err(DeltaError::KindMismatch {
                            node: node.clone(),
                            expected: existing.mnemonic(),
                            got: op.mnemonic(),
                        });
                    }
                    retunes.push((id, op.clone()));
                }
                _ => unreachable!("topological edits screened out above"),
            }
        }
        base.retuned_many(&retunes)
            .map(Some)
            .map_err(|(at, err)| DeltaError::Rebuild {
                node: base.node(at).name().to_string(),
                message: err.to_string(),
            })
    }

    /// Validates the delta against `base` without keeping the result.
    ///
    /// Exactly [`GraphDelta::apply`] minus the returned graph — the full
    /// rebuild (including shape inference) runs, so a delta that
    /// validates cleanly is guaranteed to apply cleanly.
    ///
    /// # Errors
    /// Same as [`GraphDelta::apply`].
    pub fn validate(&self, base: &Graph) -> Result<(), DeltaError> {
        self.apply(base).map(|_| ())
    }
}

/// Resolves a graph into the name-addressed flat form, rejecting
/// duplicate names (which would make name addressing ambiguous).
fn flatten(graph: &Graph) -> Result<Vec<Spec>, DeltaError> {
    let mut seen: HashMap<&str, ()> = HashMap::with_capacity(graph.len());
    let mut specs = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        if seen.insert(node.name(), ()).is_some() {
            return Err(DeltaError::DuplicateName {
                name: node.name().to_string(),
            });
        }
        specs.push(Spec {
            name: node.name().to_string(),
            op: node.op().clone(),
            inputs: node
                .inputs()
                .iter()
                .map(|&id| graph.node(id).name().to_string())
                .collect(),
        });
    }
    Ok(specs)
}

fn find(specs: &[Spec], name: &str) -> Result<usize, DeltaError> {
    specs
        .iter()
        .position(|s| s.name == name)
        .ok_or_else(|| DeltaError::UnknownNode {
            node: name.to_string(),
        })
}

fn apply_edit(specs: &mut Vec<Spec>, edit: &GraphEdit) -> Result<(), DeltaError> {
    match edit {
        GraphEdit::ReplaceNodeWeights { node } => {
            let idx = find(specs, node)?;
            if !specs[idx].op.has_static_weights() {
                return Err(DeltaError::NoStaticWeights {
                    node: node.clone(),
                    op: specs[idx].op.mnemonic(),
                });
            }
            Ok(())
        }
        GraphEdit::RetuneOpParams { node, op } => {
            let idx = find(specs, node)?;
            if specs[idx].op.mnemonic() != op.mnemonic() {
                return Err(DeltaError::KindMismatch {
                    node: node.clone(),
                    expected: specs[idx].op.mnemonic(),
                    got: op.mnemonic(),
                });
            }
            specs[idx].op = op.clone();
            Ok(())
        }
        GraphEdit::InsertNode {
            name,
            op,
            inputs,
            before,
        } => {
            if specs.iter().any(|s| s.name == *name) {
                return Err(DeltaError::DuplicateName { name: name.clone() });
            }
            let pos = match before {
                Some(b) => find(specs, b)?,
                None => specs.len(),
            };
            for input in inputs {
                let j = find(specs, input)?;
                if j >= pos {
                    return Err(DeltaError::ForwardEdge {
                        node: name.clone(),
                        input: input.clone(),
                    });
                }
            }
            specs.insert(
                pos,
                Spec {
                    name: name.clone(),
                    op: op.clone(),
                    inputs: inputs.clone(),
                },
            );
            Ok(())
        }
        GraphEdit::RemoveNode { node } => {
            let idx = find(specs, node)?;
            for spec in specs.iter() {
                if spec.name == *node {
                    continue;
                }
                if let Some(i) = spec.inputs.iter().position(|input| input == node) {
                    return Err(DeltaError::NodeInUse {
                        node: node.clone(),
                        consumer: spec.name.clone(),
                        input_index: i,
                    });
                }
            }
            specs.remove(idx);
            Ok(())
        }
        GraphEdit::RetargetEdge {
            node,
            input_index,
            new_input,
        } => {
            let idx = find(specs, node)?;
            let arity = specs[idx].inputs.len();
            if *input_index >= arity {
                return Err(DeltaError::InvalidInputIndex {
                    node: node.clone(),
                    index: *input_index,
                    arity,
                });
            }
            let j = find(specs, new_input)?;
            if j >= idx {
                return Err(DeltaError::ForwardEdge {
                    node: node.clone(),
                    input: new_input.clone(),
                });
            }
            specs[idx].inputs[*input_index] = new_input.clone();
            Ok(())
        }
    }
}

/// Rebuilds a graph from the edited flat form via [`Graph::add`], so
/// shape inference and every arena invariant re-run from scratch.
fn rebuild(name: &str, specs: &[Spec]) -> Result<Graph, DeltaError> {
    let mut graph = Graph::new(name);
    let mut ids: HashMap<&str, NodeId> = HashMap::with_capacity(specs.len());
    for spec in specs {
        let inputs = spec
            .inputs
            .iter()
            .map(|input| {
                ids.get(input.as_str())
                    .copied()
                    .ok_or_else(|| DeltaError::UnknownNode {
                        node: input.clone(),
                    })
            })
            .collect::<Result<Vec<NodeId>, DeltaError>>()?;
        let id = graph
            .add(&spec.name, spec.op.clone(), inputs)
            .map_err(|err| DeltaError::Rebuild {
                node: spec.name.clone(),
                message: err.to_string(),
            })?;
        ids.insert(spec.name.as_str(), id);
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zoo, Shape};

    fn retune(node: &str, op: OpKind) -> GraphDelta {
        GraphDelta::new().with(GraphEdit::RetuneOpParams {
            node: node.into(),
            op,
        })
    }

    #[test]
    fn retune_matches_hand_built_graph() {
        let base = zoo::mlp();
        let edited = retune("fc1", OpKind::linear(512)).apply(&base).unwrap();
        // Same structure as building the mutated model from scratch.
        let mut expect = Graph::new(base.name());
        let mut prev = None;
        for node in base.nodes() {
            let op = if node.name() == "fc1" {
                OpKind::linear(512)
            } else {
                node.op().clone()
            };
            let inputs: Vec<NodeId> = node.inputs().iter().map(|_| prev.unwrap()).collect();
            prev = Some(expect.add(node.name(), op, inputs).unwrap());
        }
        assert_eq!(edited, expect);
        // Purity: the base is untouched.
        assert_eq!(base, zoo::mlp());
    }

    #[test]
    fn retune_rejects_kind_change() {
        let err = retune("fc1", OpKind::Relu).apply(&zoo::mlp()).unwrap_err();
        assert_eq!(
            err,
            DeltaError::KindMismatch {
                node: "fc1".into(),
                expected: "linear",
                got: "relu",
            }
        );
    }

    #[test]
    fn unknown_node_is_named() {
        let err = retune("nope", OpKind::linear(8))
            .apply(&zoo::mlp())
            .unwrap_err();
        assert_eq!(err.to_string(), "unknown node `nope`");
    }

    #[test]
    fn replace_weights_is_structurally_inert() {
        let base = zoo::mlp();
        let delta = GraphDelta::new().with(GraphEdit::ReplaceNodeWeights { node: "fc1".into() });
        assert_eq!(delta.apply(&base).unwrap(), base);
        let err = GraphDelta::new()
            .with(GraphEdit::ReplaceNodeWeights {
                node: "input".into(),
            })
            .apply(&base)
            .unwrap_err();
        assert!(matches!(err, DeltaError::NoStaticWeights { .. }));
    }

    #[test]
    fn insert_and_remove_round_trip() {
        let base = zoo::mlp();
        // Splice a relu in front of fc2, rewire fc2 through it, then undo.
        let spliced = GraphDelta::new()
            .with(GraphEdit::InsertNode {
                name: "extra".into(),
                op: OpKind::Relu,
                inputs: vec!["fc1.relu".into()],
                before: Some("fc2".into()),
            })
            .with(GraphEdit::RetargetEdge {
                node: "fc2".into(),
                input_index: 0,
                new_input: "extra".into(),
            })
            .apply(&base)
            .unwrap();
        assert_eq!(spliced.len(), base.len() + 1);
        let undone = GraphDelta::new()
            .with(GraphEdit::RetargetEdge {
                node: "fc2".into(),
                input_index: 0,
                new_input: "fc1.relu".into(),
            })
            .with(GraphEdit::RemoveNode {
                node: "extra".into(),
            })
            .apply(&spliced)
            .unwrap();
        assert_eq!(undone, base);
    }

    #[test]
    fn remove_in_use_names_consumer_and_edge() {
        let err = GraphDelta::new()
            .with(GraphEdit::RemoveNode {
                node: "fc1.relu".into(),
            })
            .apply(&zoo::mlp())
            .unwrap_err();
        assert_eq!(
            err,
            DeltaError::NodeInUse {
                node: "fc1.relu".into(),
                consumer: "fc2".into(),
                input_index: 0,
            }
        );
    }

    #[test]
    fn retarget_checks_index_and_direction() {
        let base = zoo::mlp();
        let err = GraphDelta::new()
            .with(GraphEdit::RetargetEdge {
                node: "fc1".into(),
                input_index: 3,
                new_input: "input".into(),
            })
            .apply(&base)
            .unwrap_err();
        assert!(matches!(
            err,
            DeltaError::InvalidInputIndex { arity: 1, .. }
        ));
        let err = GraphDelta::new()
            .with(GraphEdit::RetargetEdge {
                node: "fc1".into(),
                input_index: 0,
                new_input: "fc2".into(),
            })
            .apply(&base)
            .unwrap_err();
        assert!(matches!(err, DeltaError::ForwardEdge { .. }));
    }

    #[test]
    fn rebuild_errors_carry_the_node_name() {
        // Retuning the input to an incompatible shape breaks inference
        // downstream at the first conv.
        let err = GraphDelta::new()
            .with(GraphEdit::RetuneOpParams {
                node: "input".into(),
                op: OpKind::Input {
                    shape: Shape::vec(8),
                },
            })
            .apply(&zoo::vgg7())
            .unwrap_err();
        match err {
            DeltaError::Rebuild { node, .. } => assert_eq!(node, "b1.0.conv"),
            other => panic!("expected rebuild error, got {other:?}"),
        }
    }

    #[test]
    fn validate_equals_apply() {
        let base = zoo::mlp();
        let good = retune("fc1", OpKind::linear(512));
        assert!(good.validate(&base).is_ok());
        let bad = retune("fc1", OpKind::Relu);
        assert_eq!(
            bad.validate(&base).unwrap_err(),
            bad.apply(&base).unwrap_err()
        );
    }

    #[test]
    fn serde_round_trip_snake_case() {
        let delta = GraphDelta::new()
            .with(GraphEdit::RetuneOpParams {
                node: "l0.fc1".into(),
                op: OpKind::linear(2048),
            })
            .with(GraphEdit::InsertNode {
                name: "x".into(),
                op: OpKind::Relu,
                inputs: vec!["l0.fc1".into()],
                before: None,
            });
        let json = serde_json::to_string(&delta).unwrap();
        assert!(json.contains("retune_op_params"), "{json}");
        let back: GraphDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
    }

    #[test]
    fn missing_before_defaults_to_append() {
        let json = r#"{"edits":[{"insert_node":{"name":"t","op":"Relu","inputs":["fc2"]}}]}"#;
        let delta: GraphDelta = serde_json::from_str(json).unwrap();
        let edited = delta.apply(&zoo::mlp()).unwrap();
        assert_eq!(edited.len(), zoo::mlp().len() + 1);
    }
}
