//! Incremental recompilation must be indistinguishable from compiling
//! the edited graph from scratch: `Session::recompile(delta)` splices
//! memoized per-region schedules, and these tests pin that the spliced
//! result is **bit-identical** to a fresh compile — across models,
//! presets and edit kinds. This is the correctness
//! contract the `incremental-smoke` CI job re-checks end-to-end on the
//! release binary.

use cim_mlc::arch::{presets, CimArchitecture};
use cim_mlc::prelude::*;
use proptest::prelude::*;

/// Compiles `graph` from scratch and renders the full artifact.
///
/// `Debug` output covers every schedule field (including exact `f64`
/// bits — Rust's float formatting round-trips), so string equality is
/// bit-level equality of the compiled artifacts.
fn fresh_compile(graph: &Graph, arch: &CimArchitecture) -> String {
    let options = CompileOptions::default();
    let mut session = Pipeline::plan(&options, arch).session(graph, arch, options);
    session.run().expect("fresh compile succeeds");
    format!("{:?}", session.compiled().expect("compiled artifact"))
}

/// Cold-compiles `graph`, recompiles through `delta`, and returns the
/// artifact plus the mutated graph for the caller's fresh cross-check.
fn incremental_compile(
    graph: &Graph,
    arch: &CimArchitecture,
    delta: &GraphDelta,
) -> (String, Graph) {
    let options = CompileOptions::default();
    let mut session = Pipeline::plan(&options, arch).session(graph, arch, options);
    session.run().expect("cold compile succeeds");
    session.recompile(delta).expect("recompile succeeds");
    let artifact = format!("{:?}", session.compiled().expect("compiled artifact"));
    let mutated = delta.apply(graph).expect("delta applies");
    (artifact, mutated)
}

fn model(idx: usize) -> Graph {
    match idx {
        0 => zoo::lenet5(),
        1 => zoo::mlp(),
        2 => zoo::vgg7(),
        _ => zoo::resnet18(),
    }
}

fn preset(idx: usize) -> CimArchitecture {
    match idx {
        0 => presets::isaac_baseline(),
        1 => presets::jia_isscc21(),
        _ => presets::jain_sram(),
    }
}

/// Names of every Linear node of `graph` — the retunable targets.
fn linear_nodes(graph: &Graph) -> Vec<String> {
    graph
        .nodes()
        .filter(|n| matches!(n.op(), OpKind::Linear { .. }))
        .map(|n| n.name().to_owned())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A retune edit recompiled incrementally equals a fresh compile of
    /// the mutated graph, for every model × preset.
    #[test]
    fn recompile_matches_fresh_compile(
        model_idx in 0usize..4,
        preset_idx in 0usize..3,
        pick in 0usize..8,
        out_features in 8usize..256,
    ) {
        let graph = model(model_idx);
        let arch = preset(preset_idx);
        let linears = linear_nodes(&graph);
        prop_assume!(!linears.is_empty());
        let node = linears[pick % linears.len()].clone();
        let delta = GraphDelta {
            edits: vec![GraphEdit::RetuneOpParams {
                node,
                op: OpKind::Linear { out_features },
            }],
        };
        let (incremental, mutated) = incremental_compile(&graph, &arch, &delta);
        prop_assert_eq!(incremental, fresh_compile(&mutated, &arch));
    }

    /// The params-only fast path of `GraphDelta::apply` (no structural
    /// edits → in-place arena clone) produces the same graph — and the
    /// same compiled schedule — as the structural flatten/rebuild path,
    /// forced here by appending a no-net-effect insert+remove pair.
    #[test]
    fn params_only_fast_path_matches_rebuild(
        model_idx in 0usize..4,
        pick in 0usize..8,
        out_features in 8usize..256,
    ) {
        let graph = model(model_idx);
        let arch = presets::isaac_baseline();
        let linears = linear_nodes(&graph);
        prop_assume!(!linears.is_empty());
        let node = linears[pick % linears.len()].clone();
        let retune = GraphEdit::RetuneOpParams {
            node: node.clone(),
            op: OpKind::Linear { out_features },
        };
        let fast = GraphDelta { edits: vec![retune.clone()] };
        let slow = GraphDelta {
            edits: vec![
                retune,
                GraphEdit::InsertNode {
                    name: "equiv.probe".to_owned(),
                    op: OpKind::Relu,
                    inputs: vec![node],
                    before: None,
                },
                GraphEdit::RemoveNode {
                    node: "equiv.probe".to_owned(),
                },
            ],
        };
        let via_fast = fast.apply(&graph).expect("fast path applies");
        let via_slow = slow.apply(&graph).expect("rebuild path applies");
        // Same nodes, operators, shapes and wiring…
        prop_assert_eq!(via_fast.len(), via_slow.len());
        for (a, b) in via_fast.nodes().zip(via_slow.nodes()) {
            prop_assert_eq!(a.name(), b.name());
            prop_assert_eq!(a.op(), b.op());
            prop_assert_eq!(a.out_shape(), b.out_shape());
            let ia: Vec<usize> = a.inputs().iter().map(|i| i.index()).collect();
            let ib: Vec<usize> = b.inputs().iter().map(|i| i.index()).collect();
            prop_assert_eq!(ia, ib);
        }
        // … and the same compiled artifact, bit for bit.
        prop_assert_eq!(
            fresh_compile(&via_fast, &arch),
            fresh_compile(&via_slow, &arch)
        );
    }
}

/// A chain of structural edits — insert, retarget, remove — recompiled
/// one after another on a single session stays equivalent to a fresh
/// compile at every step, even though each delta invalidates different
/// regions of the memo.
#[test]
fn chained_structural_edits_stay_equivalent() {
    let graph = zoo::vgg7();
    let arch = presets::jia_isscc21();
    let options = CompileOptions::default();
    let mut session = Pipeline::plan(&options, &arch).session(&graph, &arch, options);
    session.run().expect("cold compile succeeds");

    let steps = [
        // Append a probe classifier after the head.
        GraphDelta {
            edits: vec![GraphEdit::InsertNode {
                name: "probe".to_owned(),
                op: OpKind::Linear { out_features: 4 },
                inputs: vec!["fc2".to_owned()],
                before: None,
            }],
        },
        // Bypass a ReLU: fc2 reads fc1 directly (shape-preserving).
        GraphDelta {
            edits: vec![GraphEdit::RetargetEdge {
                node: "fc2".to_owned(),
                input_index: 0,
                new_input: "fc1".to_owned(),
            }],
        },
        // Retune the probe, then drop it again.
        GraphDelta {
            edits: vec![GraphEdit::RetuneOpParams {
                node: "probe".to_owned(),
                op: OpKind::Linear { out_features: 2 },
            }],
        },
        GraphDelta {
            edits: vec![GraphEdit::RemoveNode {
                node: "probe".to_owned(),
            }],
        },
    ];

    let mut current = graph.clone();
    for (i, delta) in steps.iter().enumerate() {
        session
            .recompile(delta)
            .unwrap_or_else(|e| panic!("step {i} recompiles: {e}"));
        current = delta
            .apply(&current)
            .unwrap_or_else(|e| panic!("step {i} applies: {e}"));
        let incremental = format!("{:?}", session.compiled().expect("compiled artifact"));
        assert_eq!(
            incremental,
            fresh_compile(&current, &arch),
            "step {i} diverged from a fresh compile"
        );
    }
}

/// Invalid deltas are rejected with the offending node named, and the
/// session survives: the next valid recompile still works and still
/// matches a fresh compile.
#[test]
fn invalid_deltas_name_the_node_and_leave_the_session_usable() {
    let graph = zoo::lenet5();
    let arch = presets::isaac_baseline();
    let options = CompileOptions::default();
    let mut session = Pipeline::plan(&options, &arch).session(&graph, &arch, options);
    session.run().expect("cold compile succeeds");

    // Unknown node.
    let err = session
        .recompile(&GraphDelta {
            edits: vec![GraphEdit::ReplaceNodeWeights {
                node: "ghost".to_owned(),
            }],
        })
        .expect_err("unknown node rejected");
    assert!(err.to_string().contains("ghost"), "{err}");

    // Retuning across operator kinds.
    let err = session
        .recompile(&GraphDelta {
            edits: vec![GraphEdit::RetuneOpParams {
                node: "conv1".to_owned(),
                op: OpKind::Linear { out_features: 8 },
            }],
        })
        .expect_err("kind mismatch rejected");
    assert!(err.to_string().contains("conv1"), "{err}");

    // The session still recompiles fine afterwards.
    let delta = GraphDelta {
        edits: vec![GraphEdit::RetuneOpParams {
            node: "fc2".to_owned(),
            op: OpKind::Linear { out_features: 32 },
        }],
    };
    session.recompile(&delta).expect("valid delta recompiles");
    let incremental = format!("{:?}", session.compiled().expect("compiled artifact"));
    let mutated = delta.apply(&graph).expect("delta applies");
    assert_eq!(incremental, fresh_compile(&mutated, &arch));
}
