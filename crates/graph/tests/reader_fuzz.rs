//! Differential fuzz test of the graph reader: [`from_json`]'s one pass
//! against the tree path it replaced, kept here only as the oracle —
//! parse the whole document into a `serde::Value` tree, convert it to a
//! `GraphDoc`, then add its nodes.
//!
//! Documents come from the zoo and from random networks, mutated at the
//! tree level (reordered, duplicated, unknown and dropped keys, retyped
//! values, escaped names, out-of-range and forward input ids, operators
//! nested past 128 levels) and at the text level (byte flips,
//! truncations, escapes, odd numbers, trailing bytes). Both readers must
//! agree: equal graphs, equal [`GraphError`]s for a rejected node, and a
//! [`GraphError::Malformed`] for a malformed document, with the same
//! message when the text is not well-formed JSON.

use cim_graph::{from_json, to_json, zoo, Graph, GraphError, NodeId, OpKind, Shape};
use networks::{build, layers};
use proptest::prelude::*;
use serde::{Deserialize, Value};
use std::sync::OnceLock;

mod networks;

#[derive(Deserialize)]
struct NodeDoc {
    name: String,
    op: OpKind,
    inputs: Vec<u32>,
}

#[derive(Deserialize)]
struct GraphDoc {
    name: String,
    nodes: Vec<NodeDoc>,
}

/// The tree path: the whole document parsed and converted before any
/// node is added.
fn oracle(json: &str) -> Result<Graph, GraphError> {
    let doc: GraphDoc = serde_json::from_str(json).map_err(|e| GraphError::Malformed {
        message: format!("JSON parse error: {e}"),
    })?;
    let mut graph = Graph::new(doc.name);
    for node in doc.nodes {
        let inputs = node
            .inputs
            .into_iter()
            .map(|id| NodeId::from_index(id as usize));
        graph.add(node.name, node.op, inputs)?;
    }
    Ok(graph)
}

/// Whether `from_json` and the oracle agree on `json`.
fn agree(json: &str) -> Result<(), String> {
    let (got, want) = (from_json(json), oracle(json));
    let syntax = serde_json::from_str::<Value>(json).is_err();
    let same = match (&got, &want) {
        (Ok(a), Ok(b)) => a == b,
        (Err(GraphError::Malformed { message: a }), Err(GraphError::Malformed { message: b })) => {
            !syntax || a == b
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if same {
        Ok(())
    } else {
        let head: String = json.chars().take(400).collect();
        Err(format!(
            "from_json {got:?}\n   oracle {want:?}\n(syntax error: {syntax}) on {head:?}…"
        ))
    }
}

/// A small xorshift stream for the mutations, seeded per draw.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Well-formed values of every type, to put where they do not belong.
fn junk(rng: &mut Rng) -> Value {
    let options = [
        Value::Null,
        Value::Bool(true),
        Value::U64(7),
        Value::I64(-3),
        Value::F64(2.5),
        Value::Str("x".into()),
        Value::Seq(vec![Value::U64(1), Value::Str("y".into())]),
        Value::Map(vec![("k".into(), Value::Seq(Vec::new()))]),
        Value::Str("Relu".into()),
        Value::Map(vec![("Relu".into(), Value::Null)]),
    ];
    rng.pick(&options).clone()
}

fn count_maps(v: &Value) -> usize {
    match v {
        Value::Map(entries) => 1 + entries.iter().map(|(_, c)| count_maps(c)).sum::<usize>(),
        Value::Seq(items) => items.iter().map(count_maps).sum(),
        _ => 0,
    }
}

/// An object's entries.
type Entries = Vec<(String, Value)>;

/// Applies `f` to the entries of the `k`-th object in depth-first order.
fn with_map(v: &mut Value, k: &mut usize, f: &mut dyn FnMut(&mut Entries)) -> bool {
    if let Value::Map(entries) = v {
        if *k == 0 {
            f(entries);
            return true;
        }
        *k -= 1;
    }
    match v {
        Value::Map(entries) => entries.iter_mut().any(|(_, c)| with_map(c, k, f)),
        Value::Seq(items) => items.iter_mut().any(|c| with_map(c, k, f)),
        _ => false,
    }
}

/// The entries of a random node object, if the document still has one.
fn with_node(doc: &mut Value, rng: &mut Rng, f: impl FnOnce(&mut Entries)) {
    let Value::Map(top) = doc else { return };
    let Some((_, Value::Seq(nodes))) = top.iter_mut().find(|(k, _)| k == "nodes") else {
        return;
    };
    let at = rng.below(nodes.len());
    if let Some(Value::Map(node)) = nodes.get_mut(at) {
        f(node);
    }
}

fn field<'a>(entries: &'a mut [(String, Value)], key: &str) -> Option<&'a mut Value> {
    entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// One tree-level mutation.
fn mutate_tree(doc: &mut Value, rng: &mut Rng) {
    let maps = count_maps(doc);
    let mut k = rng.below(maps);
    match rng.below(8) {
        // Reordered keys.
        0 => {
            let shift = 1 + rng.below(3);
            with_map(doc, &mut k, &mut |e| {
                let n = e.len().max(1);
                e.rotate_left(shift % n);
            });
        }
        // A duplicated key, first or second, same value or junk.
        1 => {
            let (at, before, same, value) =
                (rng.below(8), rng.below(2) == 0, rng.below(2), junk(rng));
            with_map(doc, &mut k, &mut |e| {
                if e.is_empty() {
                    return;
                }
                let (key, original) = e[at % e.len()].clone();
                let dup = (key, if same == 0 { original } else { value.clone() });
                let i = at % e.len();
                e.insert(if before { i } else { i + 1 }, dup);
            });
        }
        // An unknown key, with any well-formed value.
        2 => {
            let (at, value) = (rng.below(8), junk(rng));
            let key = rng
                .pick(&["extra", "Name", "nodes_", "op2", ""])
                .to_string();
            with_map(doc, &mut k, &mut |e| {
                let i = at % (e.len() + 1);
                e.insert(i, (key.clone(), value.clone()));
            });
        }
        // A dropped key: a missing field.
        3 => {
            let at = rng.below(8);
            with_map(doc, &mut k, &mut |e| {
                if !e.is_empty() {
                    let i = at % e.len();
                    e.remove(i);
                }
            });
        }
        // A value of the wrong type.
        4 => {
            let (at, value) = (rng.below(8), junk(rng));
            with_map(doc, &mut k, &mut |e| {
                if !e.is_empty() {
                    let i = at % e.len();
                    e[i].1 = value.clone();
                }
            });
        }
        // A node name that needs escapes.
        5 => {
            let name = rng
                .pick(&["a\"b", "back\\slash", "new\nline", "\u{1}ctl\t", "é😀", ""])
                .to_string();
            with_node(doc, rng, |node| {
                if let Some(v) = field(node, "name") {
                    *v = Value::Str(name);
                }
            });
        }
        // An input id that is negative, fractional, too large or a
        // forward reference.
        6 => {
            let id = rng
                .pick(&[
                    Value::I64(-1),
                    Value::F64(1.5),
                    Value::U64(u64::from(u32::MAX) + 1),
                    Value::U64(u64::from(u32::MAX)),
                    Value::U64(100_000),
                    Value::U64(1),
                ])
                .clone();
            let slot = rng.below(4);
            with_node(doc, rng, |node| {
                if let Some(Value::Seq(ids)) = field(node, "inputs") {
                    let n = ids.len() + 1;
                    ids.insert(slot % n, id);
                }
            });
        }
        // An operator nested around the 128-level cap (a node's `op` sits
        // at depth 3).
        _ => {
            let levels = 118 + rng.below(16);
            let mut op = Value::Str("Relu".into());
            for _ in 0..levels {
                op = Value::Seq(vec![op]);
            }
            with_node(doc, rng, |node| {
                if let Some(v) = field(node, "op") {
                    *v = op;
                }
            });
        }
    }
}

/// The byte offset of a random character boundary of `s`.
fn boundary(s: &str, rng: &mut Rng) -> usize {
    let mut at = rng.below(s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One text-level mutation.
fn mutate_text(text: &mut String, rng: &mut Rng) {
    match rng.below(6) {
        // A flipped character.
        0 => {
            let at = boundary(text, rng);
            if at < text.len() {
                let len = text[at..].chars().next().map_or(0, char::len_utf8);
                let with = *rng.pick(&[
                    "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "0", "9", "-", ".", "e", "n",
                    "t", "x", "é",
                ]);
                text.replace_range(at..at + len, with);
            }
        }
        // A truncation.
        1 => {
            let at = boundary(text, rng);
            text.truncate(at);
        }
        // Trailing bytes, some of them only whitespace.
        2 => {
            let tail: &&str = rng.pick(&[" ", "\n\t", "x", "{}", "]", ",", "0", "\"a\""]);
            text.push_str(tail);
        }
        // An escape at the start of a name or in a key.
        3 => {
            let (pattern, with) = *rng.pick(&[
                ("\"name\": \"", "\"name\": \"\\u00e9\\/\\b"),
                ("\"name\": \"", "\"name\": \"\\ud83d\\ude00\\\\\\\""),
                ("\"name\": \"", "\"name\": \"\\ud800"),
                ("\"name\": \"", "\"name\": \"\\x"),
                ("\"name\": \"", "\"name\": \"\\u12"),
                ("\"name\"", "\"n\\u0061me\""),
                ("\"inputs\"", "\"inp\\u0075ts\""),
                ("\"op\"", "\"o\\u0070\""),
            ]);
            let hits: Vec<usize> = text.match_indices(pattern).map(|(i, _)| i).collect();
            if !hits.is_empty() {
                let at = *rng.pick(&hits);
                text.replace_range(at..at + pattern.len(), with);
            }
        }
        // A number written oddly or wrongly.
        4 => {
            let digits: Vec<usize> = text
                .char_indices()
                .filter(|&(i, c)| {
                    c.is_ascii_digit()
                        && !text[..i].ends_with(|p: char| p.is_ascii_digit() || p == '\\')
                })
                .map(|(i, _)| i)
                .collect();
            if !digits.is_empty() {
                let at = *rng.pick(&digits);
                let end = text[at..]
                    .find(|c: char| !c.is_ascii_digit())
                    .map_or(text.len(), |n| at + n);
                let with = *rng.pick(&[
                    "-0",
                    "1e2",
                    "01",
                    "1.",
                    "-",
                    "1.2.3",
                    "-1",
                    "0.5",
                    "4294967296",
                    "1e400",
                    "18446744073709551616",
                ]);
                text.replace_range(at..end, with);
            }
        }
        // Whitespace the pretty layout never has.
        _ => {
            let at = boundary(text, rng);
            if text[..at].ends_with([',', '[', '{', ':']) {
                text.insert_str(at, "\r\n \t");
            }
        }
    }
}

/// A document drawn from `source`, mutated `seed`'s way.
fn mutated(source: &str, seed: u64) -> String {
    let mut rng = Rng(seed | 1);
    let (tree, text) = (rng.below(3), rng.below(3));
    let mut out = if tree == 0 {
        source.to_owned()
    } else {
        let mut doc: Value = serde_json::from_str(source).expect("a source document");
        for _ in 0..tree {
            mutate_tree(&mut doc, &mut rng);
        }
        if rng.below(2) == 0 {
            serde_json::to_string_pretty(&doc)
        } else {
            serde_json::to_string(&doc)
        }
        .expect("a document renders")
    };
    for _ in 0..text {
        mutate_text(&mut out, &mut rng);
    }
    out
}

fn zoo_docs() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| zoo::all().iter().map(to_json).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_one_pass_reader_matches_the_tree_oracle(
        source in 0usize..45,
        in_c in 1usize..4,
        hw in 4usize..12,
        spec in layers(),
        seed in any::<u64>(),
    ) {
        // A third of the draws mutate a zoo model, the rest a random
        // network.
        let doc = match zoo_docs().get(source) {
            Some(doc) => doc.clone(),
            None => to_json(&build(in_c, hw, &spec)),
        };
        let json = mutated(&doc, seed);
        if let Err(e) = agree(&json) {
            prop_assert!(false, "seed {}: {}", seed, e);
        }
    }
}

/// A chain of `blocks` conv → relu → batch-norm → residual-add blocks,
/// with escaped names, so its document runs past a megabyte.
fn long_chain(blocks: usize) -> Graph {
    let mut g = Graph::new("long \"chain\"");
    let input = OpKind::Input {
        shape: Shape::chw(4, 8, 8),
    };
    let mut h = g.add("x", input, []).unwrap();
    for i in 0..blocks {
        let c = g
            .add(format!("b{i}\\conv"), OpKind::conv2d(4, 3, 1, 1), [h])
            .unwrap();
        let r = g.add(format!("b{i}\nrelu"), OpKind::Relu, [c]).unwrap();
        let n = g.add(format!("b{i}.bn"), OpKind::BatchNorm, [r]).unwrap();
        h = g.add(format!("b{i}.add"), OpKind::Add, [n, h]).unwrap();
    }
    g
}

#[test]
fn a_megabyte_document_reads_like_the_oracle_and_errors_late() {
    let g = long_chain(2_200);
    let json = to_json(&g);
    assert!(json.len() >= 1 << 20, "{} bytes", json.len());
    assert_eq!(from_json(&json).as_ref(), Ok(&g));
    agree(&json).unwrap();

    // Node 1 reads node 5 — an `add` error — held back past a syntax,
    // a shape or a range error at the document's end.
    let forward = json.replacen(
        "\"inputs\": [\n        0\n      ]",
        "\"inputs\": [\n        5\n      ]",
        1,
    );
    assert!(matches!(
        from_json(&forward),
        Err(GraphError::UnknownNode { id: 5 })
    ));
    let last = forward.rfind("\"op\": \"Add\"").unwrap();
    for late in [
        format!("{forward} x"),
        format!(
            "{}{}",
            &forward[..last],
            &forward[last..].replacen("\"Add\"", "\"Ad\\q\"", 1)
        ),
        format!(
            "{}{}",
            &forward[..last],
            &forward[last..].replacen("\"Add\"", "\"Sum\"", 1)
        ),
        format!(
            "{}{}",
            &forward[..last],
            &forward[last..].replacen("]", ", 4294967296]", 1)
        ),
        forward[..forward.len() * 9 / 10].to_owned(),
    ] {
        agree(&late).unwrap();
        assert!(matches!(
            from_json(&late),
            Err(GraphError::Malformed { .. })
        ));
    }
}

/// The precedence rules `from_json` documents, one case each.
#[test]
fn each_precedence_rule_matches_the_oracle() {
    let x = r#"{"name": "x", "op": {"Input": {"shape": [4]}}, "inputs": []}"#;
    let relu = |inputs: &str| format!(r#"{{"name": "r", "op": "Relu", "inputs": [{inputs}]}}"#);
    let doc = |nodes: &[&str]| format!(r#"{{"name": "g", "nodes": [{}]}}"#, nodes.join(", "));
    let fine = doc(&[x, &relu("0")]);
    let deep = format!("{}\"Relu\"{}", "[".repeat(124), "]".repeat(124));
    let cases: Vec<(String, &str)> = vec![
        (fine.clone(), "ok"),
        // Keys in any order; the name after the nodes.
        (
            r#"{"nodes": [{"inputs": [], "op": {"Input": {"shape": [4]}}, "name": "x"}], "name": "g"}"#
                .to_owned(),
            "ok",
        ),
        // Unknown keys are skipped but must be well-formed.
        (
            fine.replacen(
                "{\"name\": \"g\"",
                "{\"v\": [1, {\"a\": null}], \"name\": \"g\"",
                1,
            ),
            "ok",
        ),
        (
            fine.replacen(
                "{\"name\": \"g\"",
                "{\"v\": [1, {\"a\" null}], \"name\": \"g\"",
                1,
            ),
            "syntax",
        ),
        // The first of duplicate keys wins; later ones are validated.
        (
            fine.replacen("\"name\": \"g\"", "\"name\": \"g\", \"name\": 5", 1),
            "ok",
        ),
        (
            fine.replacen("\"name\": \"g\"", "\"name\": 5, \"name\": \"g\"", 1),
            "data",
        ),
        (
            fine.replacen("\"name\": \"g\"", "\"name\": \"g\", \"name\": tru", 1),
            "syntax",
        ),
        (
            doc(&[
                x,
                &relu("0], \"name\": \"s\", \"op\": \"Sum\", \"inputs\": [5"),
            ]),
            "ok",
        ),
        // Missing fields.
        (fine.replacen("\"name\": \"g\", ", "", 1), "data"),
        (doc(&[x, r#"{"name": "r", "op": "Relu"}"#]), "data"),
        // Nesting past 128 levels, bad numbers, trailing bytes.
        (doc(&[x, &relu(&deep)]), "data"),
        (doc(&[x, &relu(&format!("[{deep}]"))]), "syntax"),
        (doc(&[x, &relu("0.5")]), "data"),
        (doc(&[x, &relu("-1")]), "data"),
        (doc(&[x, &relu("4294967296")]), "data"),
        (doc(&[x, &relu("-0")]), "ok"),
        (doc(&[x, &relu("1.2.3")]), "syntax"),
        (doc(&[x, &relu("1e999")]), "syntax"),
        (format!("{fine} {{}}"), "syntax"),
        (format!("{fine} \n"), "ok"),
        // An `add` error is held back past the rest of the document.
        (doc(&[x, &relu("1")]), "add"),
        (doc(&[x, &relu("1"), &relu("0.5")]), "data"),
        (format!("{} ]", doc(&[x, &relu("1")])), "syntax"),
    ];
    for (json, kind) in &cases {
        agree(json).unwrap_or_else(|e| panic!("{kind}: {e}"));
        let got = from_json(json);
        let syntax = serde_json::from_str::<Value>(json).is_err();
        let seen = match &got {
            Ok(_) => "ok",
            Err(GraphError::Malformed { .. }) if syntax => "syntax",
            Err(GraphError::Malformed { .. }) => "data",
            Err(_) => "add",
        };
        assert_eq!(seen, *kind, "{json}: {got:?}");
    }
}
