//! JSON exchange format — the ONNX substitute.
//!
//! The paper ingests ONNX protobufs; this reproduction uses an equivalent
//! JSON document. The document carries
//! exactly what the compiler consumes — node names, operators with
//! attributes, and the dependency edges — and deserialization rebuilds the
//! graph through [`Graph::add`] so every invariant (valid edges, inferable
//! shapes) is re-checked on load.
//!
//! [`from_json`] reads the document in one pass over `serde_json`'s pull
//! [`Parser`], the lexer every other JSON reader of the workspace uses:
//! no `serde::Value` tree, no owned copy of a node. Each node's name goes
//! borrowed into [`Graph::add`]'s name pool and its inputs through one
//! reused buffer. Its `op` value is validated and kept as raw text,
//! looked up in a per-call memo from that text to the parsed
//! [`OpKind`]: [`to_json`] renders every node of one interned operator
//! with the same text, so only each distinct operator goes through
//! `serde_json::from_str` (`resnet152`'s 515 nodes parse 24).

use crate::{Graph, GraphError, NodeId, OpKind};
use serde_json::Parser;
use std::collections::HashMap;
use std::fmt::Write as _;

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
/// The document is read in one pass, with no `serde::Value` tree and
/// each distinct operator text parsed once. Keys may come in any order,
/// an unknown key's value is validated and skipped, and of duplicate
/// keys the first wins while the later ones are only validated. The errors are those of parsing the whole document
/// first and only then adding its nodes, in this precedence:
///
/// 1. text that is not one well-formed JSON value (a syntax error,
///    nesting past 128 levels, a bad number, trailing bytes) is
///    [`GraphError::Malformed`] with the lexer's `… at byte N` message,
///    wherever in the document it sits;
/// 2. otherwise a value of the wrong shape (a missing field, a
///    non-string name, an unknown operator, an input id that is not a
///    `u32`) is [`GraphError::Malformed`];
/// 3. otherwise the first node [`Graph::add`] rejects returns its error
///    (e.g. [`GraphError::UnknownNode`] for a node referencing a later
///    node, which would be a cycle).
///
/// # Errors
/// As above.
pub fn from_json(json: &str) -> crate::Result<Graph> {
    let mut parser = Parser::new(json);
    let mut load = Load {
        graph: Graph::new(String::new()),
        invalid: None,
        rejected: None,
        ops: HashMap::new(),
        inputs: Vec::new(),
    };
    load.document(&mut parser)
        .and_then(|()| parser.finish())
        .map_err(malformed)?;
    match (load.invalid, load.rejected) {
        (Some(e), _) => Err(malformed(e)),
        (None, Some(e)) => Err(e),
        (None, None) => Ok(load.graph),
    }
}

fn malformed(e: impl std::fmt::Display) -> GraphError {
    GraphError::Malformed {
        message: format!("JSON parse error: {e}"),
    }
}

/// [`from_json`]'s state: the graph built so far and the first error of
/// each kind met, held back until the whole document has been read.
struct Load<'a> {
    graph: Graph,
    /// The first value of the wrong shape: once set, no more nodes are
    /// added, since the document is rejected whatever they hold.
    invalid: Option<String>,
    /// The first error of [`Graph::add`]; likewise stops adding.
    rejected: Option<GraphError>,
    /// Each distinct operator text met, parsed.
    ops: HashMap<&'a str, OpKind>,
    /// The current node's inputs.
    inputs: Vec<NodeId>,
}

type Step<T> = serde_json::Result<T>;

impl<'a> Load<'a> {
    /// `Some` of a value read, `None` after holding back a data error;
    /// a syntax error passes through and ends the read.
    fn held<T>(&mut self, read: Step<T>) -> Step<Option<T>> {
        match read {
            Ok(value) => Ok(Some(value)),
            Err(e) if e.is_data() => {
                self.invalid.get_or_insert_with(|| e.to_string());
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    fn hold(&mut self, message: impl FnOnce() -> String) {
        self.invalid.get_or_insert_with(message);
    }

    /// The top-level `{"name", "nodes"}` object.
    fn document(&mut self, p: &mut Parser<'a>) -> Step<()> {
        if self.held(p.begin_object())?.is_none() {
            return Ok(());
        }
        let (mut name, mut nodes) = (None, false);
        while let Some(key) = p.next_key()? {
            match &*key {
                "name" if name.is_none() => name = Some(self.held(p.str_value())?),
                "nodes" if !nodes => {
                    nodes = true;
                    self.nodes(p)?;
                }
                _ => {
                    p.skip_value()?;
                }
            }
        }
        match name {
            Some(Some(name)) => self.graph.set_name(name.into_owned()),
            Some(None) => {}
            None => self.hold(|| "missing field `name` in the graph".to_owned()),
        }
        if !nodes {
            self.hold(|| "missing field `nodes` in the graph".to_owned());
        }
        Ok(())
    }

    fn nodes(&mut self, p: &mut Parser<'a>) -> Step<()> {
        if self.held(p.begin_array())?.is_some() {
            while p.next_element()? {
                self.node(p)?;
            }
        }
        Ok(())
    }

    /// One `{"name", "op", "inputs"}` node, added unless an error is
    /// already held.
    fn node(&mut self, p: &mut Parser<'a>) -> Step<()> {
        if self.held(p.begin_object())?.is_none() {
            return Ok(());
        }
        let index = self.graph.len();
        let (mut name, mut op, mut inputs) = (None, None, false);
        while let Some(key) = p.next_key()? {
            match &*key {
                "name" if name.is_none() => name = Some(self.held(p.str_value())?),
                "op" if op.is_none() => op = Some(self.op(p)?),
                "inputs" if !inputs => {
                    inputs = true;
                    self.inputs(p)?;
                }
                _ => {
                    p.skip_value()?;
                }
            }
        }
        for (field, seen) in [
            ("name", name.is_some()),
            ("op", op.is_some()),
            ("inputs", inputs),
        ] {
            if !seen {
                self.hold(|| format!("missing field `{field}` in node {index}"));
            }
        }
        // A field read as `Some(None)` held its error already.
        if let (Some(Some(name)), Some(Some(op))) = (name, op) {
            if self.invalid.is_none() && self.rejected.is_none() {
                let added = self.graph.add(name, op, self.inputs.iter().copied());
                self.rejected = added.err();
            }
        }
        Ok(())
    }

    /// A node's operator, parsed once per distinct text.
    fn op(&mut self, p: &mut Parser<'a>) -> Step<Option<OpKind>> {
        let text = p.skip_value()?;
        if let Some(op) = self.ops.get(text) {
            return Ok(Some(op.clone()));
        }
        match serde_json::from_str::<OpKind>(text) {
            Ok(op) => Ok(Some(self.ops.entry(text).or_insert(op).clone())),
            Err(e) => {
                self.hold(|| e.to_string());
                Ok(None)
            }
        }
    }

    /// A node's input ids, into [`Load::inputs`].
    fn inputs(&mut self, p: &mut Parser<'a>) -> Step<()> {
        self.inputs.clear();
        if self.held(p.begin_array())?.is_some() {
            while p.next_element()? {
                if let Some(id) = self.held(p.u64_value())? {
                    match u32::try_from(id) {
                        Ok(id) => self.inputs.push(NodeId(id)),
                        Err(_) => self.hold(|| format!("integer {id} out of range for u32")),
                    }
                }
            }
        }
        Ok(())
    }
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
