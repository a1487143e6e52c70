//! The work a served compile request does inside the [`Handler`]: the
//! bounded flow head and the zoo memo must be invisible in the results.

use std::sync::Arc;

use cim_mlc::api::{render, ApiError, CachePolicy, CompileOutcome, CompileRequest, FlowSummary};
use cim_mlc::compiler::codegen::generate_flow_bounded;
use cim_mlc::mop::Stmt;
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

/// A compile request as the server receives it.
fn request(model: &str, arch: &str, flow: Option<usize>, verify: bool) -> Request {
    Request::Compile(CompileRequest {
        model: model.to_owned(),
        arch: arch.to_owned(),
        mode: None,
        level: None,
        jobs: 1,
        schedule: true,
        flow,
        verify,
        dump_stage: None,
        cache: CachePolicy::Default,
        session: None,
    })
}

/// The lines `flow.to_string()` has, counted without rendering it.
fn rendered_lines(flow: &MopFlow) -> usize {
    let weights = if flow.mats().is_empty() {
        0
    } else {
        1 + flow.mats().len()
    };
    let stmts: usize = flow
        .stmts()
        .iter()
        .map(|stmt| match stmt {
            Stmt::Op(_) => 1,
            Stmt::Parallel(ops) => ops.len() + 2,
        })
        .sum();
    1 + weights + stmts
}

/// The codegen pass's `(summary, diagnostics)` in a timeline.
fn codegen_record(timeline: &PassTimeline) -> (String, Vec<String>) {
    let record = timeline
        .records
        .iter()
        .find(|r| r.pass == "codegen")
        .expect("the codegen pass ran");
    (record.summary.clone(), record.diagnostics.clone())
}

/// Heads of flows longer than this many lines (vgg7's run to millions)
/// are rendered and served only up to 200 lines; their statements are
/// still compared whole.
const RENDER_LIMIT: usize = 2_000;

#[test]
fn a_bounded_flow_serves_what_the_whole_flow_would() {
    let handler = shared_handler();
    let options = CompileOptions::default();
    for model in ["lenet5", "mlp", "vgg7"] {
        let graph = zoo::by_name(model).expect("a zoo model");
        for arch_name in presets::NAMES {
            let arch = presets::by_name(arch_name).expect("a preset name");
            let at = format!("{model}@{arch_name}");
            let compiled = Compiler::with_options(options)
                .compile(&graph, &arch)
                .expect("compiles");
            let mut pipeline = Pipeline::plan(&options, &arch);
            pipeline.push(Box::new(CodegenPass::default()));
            let mut session = pipeline.session(&graph, &arch, options);
            if let Err(e) = session.run() {
                // A flow over `max_flow_ops`: refused identically, whatever
                // the bound.
                for n in [0, 1, 7, 200] {
                    assert_eq!(
                        generate_flow_bounded(&compiled, &graph, &arch, n).unwrap_err(),
                        e,
                        "{at} keep {n}"
                    );
                    assert_eq!(
                        handler.handle(&request(model, arch_name, Some(n), false)),
                        ResponseBody::Error(ApiError::input(format!("compile error: {e}"))),
                        "{at} flow: {n}"
                    );
                }
                continue;
            }
            let full = session.artifact().flow().expect("codegen ran");
            let full_record = codegen_record(session.timeline());
            let stats = FlowStats::of(full);
            let summary = FlowSummary {
                total: stats.total(),
                cim_reads: stats.cim_reads(),
                cim_writes: stats.cim_writes(),
                dcom: stats.dcom,
                mov: stats.mov,
            };
            let len = rendered_lines(full);
            for n in [0, 1, 7, 200, len, len + 1] {
                let (bounded, _) =
                    generate_flow_bounded(&compiled, &graph, &arch, n).expect("generates");
                assert_eq!(FlowStats::of(&bounded), stats, "{at} keep {n}");
                assert_eq!(bounded.pushed(), full.pushed(), "{at} keep {n}");
                assert_eq!(bounded.stmts(), &full.stmts()[..n.min(full.pushed())]);
                let cut = if len <= RENDER_LIMIT { n } else { n.min(200) };
                assert_eq!(bounded.head(cut), full.head(cut), "{at} keep {n}");
                drop(bounded);
                if cut < n {
                    continue;
                }
                let ResponseBody::Compile(served) =
                    handler.handle(&request(model, arch_name, Some(n), false))
                else {
                    panic!("{at} flow: {n} failed");
                };
                assert_eq!(served.flow_head, full.head(n), "{at} flow: {n}");
                assert_eq!(served.flow_stats, Some(summary), "{at} flow: {n}");
                assert_eq!(
                    codegen_record(&served.timeline),
                    full_record,
                    "{at} flow: {n}"
                );
            }
        }
    }
}

#[test]
fn a_verified_flow_head_still_builds_the_whole_flow() {
    let handler = shared_handler();
    let ResponseBody::Compile(verified) =
        handler.handle(&request("lenet5", "isaac", Some(5), true))
    else {
        panic!("the verified compile failed");
    };
    // The functional simulator refuses a flow that dropped statements, so
    // a pass here means the handler generated all of it.
    assert_eq!(verified.verified, Some(true));
    assert!(verified.verified_outputs > 0);
    let head = compile(&handler, "lenet5", "isaac", Some(5));
    assert_eq!(verified.flow_head, head.flow_head);
    assert_eq!(verified.flow_stats, head.flow_stats);
    assert_eq!(
        codegen_record(&verified.timeline),
        codegen_record(&head.timeline)
    );
}

/// The flows whose first 200 lines `tests/golden/api/flow_heads.txt`
/// pins: the benchmark's eight big `serve-closed` keys, plus `lenet5@jia`
/// for `cim.readcore` (CM mode, conv and linear).
const GOLDEN_HEADS: [(&str, &str); 9] = [
    ("lenet5", "isaac"),
    ("lenet5", "puma"),
    ("lenet5", "isaac-wlm"),
    ("lenet5", "jain"),
    ("mlp", "isaac"),
    ("mlp", "puma"),
    ("mlp", "isaac-wlm"),
    ("mlp", "jain"),
    ("lenet5", "jia"),
];

/// Each golden flow's `== model@arch ==` header and its first 200 lines,
/// as `lines` renders them.
fn flow_heads(lines: impl Fn(&str, &str) -> Vec<String>) -> String {
    let mut out = String::new();
    for (model, arch) in GOLDEN_HEADS {
        out.push_str(&format!("== {model}@{arch} ==\n"));
        for line in lines(model, arch) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn flow_heads_match_the_golden() {
    let path = format!(
        "{}/tests/golden/api/flow_heads.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).expect("golden file exists");
    let handler = shared_handler();
    let served = flow_heads(|model, arch| compile(&handler, model, arch, Some(200)).flow_head);
    assert_eq!(served, golden, "served heads drifted from {path}");
    let displayed = flow_heads(|model, arch| {
        let graph = zoo::by_name(model).expect("a zoo model");
        let arch = presets::by_name(arch).expect("a preset name");
        let compiled = Compiler::new().compile(&graph, &arch).expect("compiles");
        let (flow, _) = codegen::generate_flow(&compiled, &graph, &arch).expect("generates");
        flow.to_string()
            .lines()
            .take(200)
            .map(str::to_owned)
            .collect()
    });
    assert_eq!(displayed, golden, "displayed flows drifted from {path}");
}

#[test]
fn a_compile_request_ignores_its_jobs_field() {
    // `jobs` stays on the wire for protocol-v1 clients, but one compile
    // runs on one thread: the answer is the same line, wall clocks aside.
    let answer = |jobs: usize| {
        let Request::Compile(mut compile) = request("resnet50", "puma", None, false) else {
            unreachable!("`request` builds compiles")
        };
        compile.jobs = jobs;
        let envelope = RequestEnvelope::new(7, Request::Compile(compile));
        let mut response = Handler::new().respond(&envelope);
        response.elapsed_ms = 0.0;
        let ResponseBody::Compile(outcome) = &mut response.body else {
            panic!("resnet50@puma compiles: {:?}", response.body)
        };
        for record in &mut outcome.timeline.records {
            record.wall_ms = 0.0;
        }
        response.to_json()
    };
    assert_eq!(answer(4), answer(0));
}
