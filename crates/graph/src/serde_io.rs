//! JSON exchange format — the ONNX substitute.
//!
//! The paper ingests ONNX protobufs; this reproduction uses an equivalent
//! JSON document. The document carries
//! exactly what the compiler consumes — node names, operators with
//! attributes, and the dependency edges — and deserialization rebuilds the
//! graph through [`Graph::add`] so every invariant (valid edges, inferable
//! shapes) is re-checked on load.

use crate::{Graph, GraphError, NodeId, OpKind};
use serde::Deserialize;
use std::fmt::Write as _;

/// Serialized form of one node.
#[derive(Debug, Deserialize)]
struct NodeDoc {
    name: String,
    op: OpKind,
    inputs: Vec<u32>,
}

/// Serialized form of a graph.
#[derive(Debug, Deserialize)]
struct GraphDoc {
    name: String,
    nodes: Vec<NodeDoc>,
}

/// Serializes a graph to the JSON exchange format.
///
/// The text is the pretty (two-space) `serde_json` rendering of
/// `{"name", "nodes": [{"name", "op", "inputs"}, …]}`, written straight
/// into one `String`: only each distinct interned operator goes through
/// serde. `cim_compiler`'s graph fingerprint covers exactly this content
/// but walks the arena instead of hashing these bytes; the byte layout
/// is pinned by the wire goldens.
///
/// ```
/// use cim_graph::{zoo, to_json, from_json};
///
/// let g = zoo::lenet5();
/// let round_tripped = from_json(&to_json(&g)).unwrap();
/// assert_eq!(round_tripped, g);
/// ```
#[must_use]
pub fn to_json(graph: &Graph) -> String {
    // Indexed by `OpId`: each operator rendered once, already indented
    // for its place as a node field.
    let mut ops: Vec<Option<String>> = vec![None; graph.op_count()];
    let mut out = String::with_capacity(64 + 160 * graph.len());
    out.push_str("{\n  \"name\": ");
    push_json_str(graph.name(), &mut out);
    out.push_str(",\n  \"nodes\": ");
    if graph.is_empty() {
        out.push_str("[]");
    } else {
        out.push('[');
        for (i, node) in graph.nodes().enumerate() {
            out.push_str(if i > 0 { ",\n    {\n" } else { "\n    {\n" });
            out.push_str("      \"name\": ");
            push_json_str(node.name(), &mut out);
            out.push_str(",\n      \"op\": ");
            out.push_str(ops[node.op_id().index()].get_or_insert_with(|| {
                serde_json::to_string_pretty(node.op())
                    .expect("operators always serialize")
                    .replace('\n', "\n      ")
            }));
            out.push_str(",\n      \"inputs\": ");
            if node.inputs().is_empty() {
                out.push_str("[]");
            } else {
                out.push('[');
                for (j, id) in node.inputs().iter().enumerate() {
                    out.push_str(if j > 0 { ",\n" } else { "\n" });
                    let _ = write!(out, "        {}", id.0);
                }
                out.push_str("\n      ]");
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}");
    out
}

/// Appends `s` as a JSON string literal, escaped exactly as `serde_json`
/// escapes it.
fn push_json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a graph from the JSON exchange format, re-validating every node.
///
/// # Errors
/// Returns [`GraphError::Malformed`] when the document is not valid JSON,
/// and the underlying construction error when an edge or shape is invalid
/// (e.g. a node referencing a later node, which would be a cycle).
pub fn from_json(json: &str) -> crate::Result<Graph> {
    let doc: GraphDoc = serde_json::from_str(json).map_err(|e| GraphError::Malformed {
        message: format!("JSON parse error: {e}"),
    })?;
    let mut graph = Graph::new(doc.name);
    for node in doc.nodes {
        graph.add(node.name, node.op, node.inputs.into_iter().map(NodeId))?;
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    #[test]
    fn round_trip_preserves_graph() {
        let mut g = Graph::new("rt");
        let x = g
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::chw(3, 8, 8),
                },
                [],
            )
            .unwrap();
        let c = g.add("c", OpKind::conv2d(4, 3, 1, 1), [x]).unwrap();
        let _ = g.add("r", OpKind::Relu, [c]).unwrap();
        let back = from_json(&to_json(&g)).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn parse_error_is_reported() {
        let err = from_json("{not json").unwrap_err();
        assert!(matches!(err, GraphError::Malformed { .. }));
    }

    #[test]
    fn forward_reference_is_rejected() {
        // Node 0 references node 1: impossible via the builder, so the
        // document is rejected on load.
        let json = r#"{
            "name": "evil",
            "nodes": [
                { "name": "r", "op": "Relu", "inputs": [1] },
                { "name": "x", "op": { "Input": { "shape": [4] } }, "inputs": [] }
            ]
        }"#;
        let err = from_json(json).unwrap_err();
        assert!(matches!(err, GraphError::UnknownNode { id: 1 }));
    }

    #[test]
    fn zoo_models_round_trip() {
        for g in [crate::zoo::vgg7(), crate::zoo::resnet18()] {
            let back = from_json(&to_json(&g)).unwrap();
            assert_eq!(back, g);
        }
    }

    /// The rendering `to_json` replaced: the document built as a
    /// `serde::Value` tree and pretty-printed by `serde_json`.
    fn value_tree_json(graph: &Graph) -> String {
        #[derive(serde::Serialize)]
        struct NodeOut {
            name: String,
            op: OpKind,
            inputs: Vec<u32>,
        }
        #[derive(serde::Serialize)]
        struct GraphOut {
            name: String,
            nodes: Vec<NodeOut>,
        }
        let doc = GraphOut {
            name: graph.name().to_owned(),
            nodes: graph
                .nodes()
                .map(|n| NodeOut {
                    name: n.name().to_owned(),
                    op: n.op().clone(),
                    inputs: n.inputs().iter().map(|id| id.0).collect(),
                })
                .collect(),
        };
        serde_json::to_string_pretty(&doc).unwrap()
    }

    #[test]
    fn direct_writer_matches_the_value_tree_rendering() {
        let mut odd = Graph::new("quote\" back\\slash\n\u{1}é😀");
        let x = odd
            .add(
                "in\tput\r",
                OpKind::Input {
                    shape: Shape::chw(3, 8, 8),
                },
                [],
            )
            .unwrap();
        let c = odd
            .add("conv \"é\"", OpKind::conv2d(4, 3, 1, 1), [x])
            .unwrap();
        let _ = odd.add("\u{1f}😀\\", OpKind::Relu, [c]).unwrap();
        let graphs = crate::zoo::all()
            .into_iter()
            .chain([odd, Graph::new("empty")]);
        for g in graphs {
            assert_eq!(to_json(&g), value_tree_json(&g), "{}", g.name());
            assert_eq!(from_json(&to_json(&g)).unwrap(), g, "{}", g.name());
        }
    }
}
