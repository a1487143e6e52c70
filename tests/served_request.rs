//! The work a served compile request does inside the [`Handler`]: the
//! bounded flow head and the zoo memo must be invisible in the results.

use std::sync::Arc;

use cim_mlc::api::{render, CachePolicy, CompileOutcome, CompileRequest};
use cim_mlc::prelude::*;

fn compile(handler: &Handler, model: &str, arch: &str, flow: Option<usize>) -> CompileOutcome {
    let body = handler.handle(&Request::Compile(CompileRequest {
        model: model.to_owned(),
        arch: arch.to_owned(),
        mode: None,
        level: None,
        jobs: 1,
        schedule: true,
        flow,
        verify: false,
        dump_stage: None,
        cache: CachePolicy::Default,
        session: None,
    }));
    match body {
        ResponseBody::Compile(outcome) => outcome,
        other => panic!("compile of {model}@{arch} failed: {other:?}"),
    }
}

fn shared_handler() -> Handler {
    Handler::with_shared_cache(Arc::new(MemoryCache::new()))
}

/// Everything of an outcome that must not depend on how often, or on
/// which handler, the request ran.
fn comparable(outcome: &CompileOutcome) -> (String, Vec<String>) {
    (
        render::render_comparable(outcome),
        outcome.flow_head.clone(),
    )
}

#[test]
fn flow_head_is_the_first_n_lines_of_the_rendered_flow() {
    let handler = shared_handler();
    for (model, graph) in [("lenet5", zoo::lenet5()), ("mlp", zoo::mlp())] {
        for arch_name in presets::NAMES {
            let arch = presets::by_name(arch_name).expect("a preset name");
            let compiled = Compiler::new().compile(&graph, &arch).expect("compiles");
            let (flow, _) = codegen::generate_flow(&compiled, &graph, &arch).expect("generates");
            let rendered = flow.to_string();
            let total = rendered.lines().count();
            // `parallel { … }` statements span lines, so some of these
            // cuts fall inside one.
            for n in [0, 1, 7, 200, total, total + 1] {
                let expected: Vec<&str> = rendered.lines().take(n).collect();
                assert_eq!(flow.head(n), expected, "{model}@{arch_name} head({n})");
                assert_eq!(
                    compile(&handler, model, arch_name, Some(n)).flow_head,
                    expected,
                    "{model}@{arch_name} flow: {n}"
                );
            }
        }
    }
}

#[test]
fn a_repeated_zoo_request_answers_like_a_fresh_handler() {
    let fresh = comparable(&compile(&shared_handler(), "lenet5", "isaac", Some(20)));
    let handler = shared_handler();
    let cold = compile(&handler, "lenet5", "isaac", Some(20));
    let warm = compile(&handler, "lenet5", "isaac", Some(20));
    assert_eq!(cold.warm(), Some(false));
    assert_eq!(warm.warm(), Some(true), "the memoised fingerprint hits");
    assert_eq!(comparable(&cold), fresh);
    assert_eq!(comparable(&warm), fresh);
    // Without a cache the memo serves the graph alone.
    let uncached = Handler::new();
    for _ in 0..2 {
        assert_eq!(
            comparable(&compile(&uncached, "lenet5", "isaac", Some(20))),
            fresh
        );
    }
}

#[test]
fn an_edited_model_file_is_read_again() {
    let path = std::env::temp_dir().join(format!("served_request_{}.json", std::process::id()));
    let path_str = path.to_str().expect("a UTF-8 temp path");
    let handler = shared_handler();
    for graph in [zoo::mlp(), zoo::lenet5(), zoo::mlp()] {
        std::fs::write(&path, cim_mlc::graph::to_json(&graph)).expect("model file writes");
        let outcome = compile(&handler, path_str, "isaac", None);
        assert_eq!(outcome.model, graph.name());
        assert_eq!(
            comparable(&outcome),
            comparable(&compile(&shared_handler(), graph.name(), "isaac", None))
        );
    }
    std::fs::remove_file(&path).expect("model file removes");
}
