//! Wire-format tests for the `cimc serve` protocol: serde round-trips
//! over generated requests and responses, plus a golden JSONL file that
//! pins the v1 schema — the same compatibility discipline the bench
//! report enforces with `MIN_SCHEMA_VERSION`.

use cim_mlc::api::{
    ApiError, BenchRequest, CachePolicy, CompileRequest, ExploreRequest, Handler, LevelArg,
    ListRequest, ModeArg, RecompileRequest, Request, RequestEnvelope, Response, ResponseBody,
    SimulateRequest, SleepRequest, StageArg, TraceRequest, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use cim_mlc::prelude::{GraphDelta, GraphEdit, OpKind};
use cim_mlc::traffic::{GeneratorKind, TenantSpec, TraceSpec};
use proptest::prelude::*;

fn names(vocab: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..vocab.len()).prop_map(move |i| vocab[i].to_owned())
}

fn cache_policies() -> impl Strategy<Value = CachePolicy> {
    prop_oneof![
        Just(CachePolicy::Default),
        Just(CachePolicy::Off),
        names(&["/tmp/cache", "rel/dir", "c"]).prop_map(|dir| CachePolicy::Disk { dir }),
    ]
}

fn compile_requests() -> impl Strategy<Value = Request> {
    (
        names(&["lenet5", "mlp", "models/custom.json"]),
        names(&["isaac", "jain", "arch.json"]),
        proptest::option::of(prop_oneof![
            Just(ModeArg::Cm),
            Just(ModeArg::Xbm),
            Just(ModeArg::Wlm)
        ]),
        proptest::option::of(prop_oneof![
            Just(LevelArg::Cg),
            Just(LevelArg::Mvm),
            Just(LevelArg::Vvm)
        ]),
        0usize..8,
        (any::<bool>(), any::<bool>()),
        proptest::option::of(0usize..50),
        proptest::option::of(prop_oneof![
            Just(StageArg::Cg),
            Just(StageArg::Mvm),
            Just(StageArg::Vvm)
        ]),
        cache_policies(),
        proptest::option::of(names(&["pinned", "sess-1"])),
    )
        .prop_map(
            |(
                model,
                arch,
                mode,
                level,
                jobs,
                (schedule, verify),
                flow,
                dump_stage,
                cache,
                session,
            )| {
                Request::Compile(CompileRequest {
                    model,
                    arch,
                    mode,
                    level,
                    jobs,
                    schedule,
                    flow,
                    verify,
                    dump_stage,
                    cache,
                    session,
                })
            },
        )
}

fn bench_requests() -> impl Strategy<Value = Request> {
    (
        any::<bool>(),
        proptest::option::of(proptest::collection::vec(names(&["lenet5", "mlp"]), 1..3)),
        proptest::option::of(proptest::collection::vec(names(&["isaac", "jain"]), 1..3)),
        0usize..8,
        cache_policies(),
    )
        .prop_map(|(quick, models, archs, jobs, cache)| {
            Request::Bench(BenchRequest {
                quick,
                models,
                archs,
                modes: None,
                jobs,
                cache,
            })
        })
}

fn explore_requests() -> impl Strategy<Value = Request> {
    (
        proptest::option::of(names(&["lenet5", "mlp"])),
        proptest::option::of(names(&["hill-climb", "random", "exhaustive"])),
        proptest::option::of(names(&["latency", "latency:2,energy:1"])),
        proptest::option::of(1usize..500),
        proptest::option::of(0u64..1000),
        0usize..8,
        cache_policies(),
    )
        .prop_map(|(model, strategy, objective, budget, seed, jobs, cache)| {
            Request::Explore(ExploreRequest {
                model,
                space: None,
                strategy,
                objective,
                trace: None,
                trace_spec: None,
                policy: None,
                budget,
                seed,
                jobs,
                cache,
            })
        })
}

fn requests() -> impl Strategy<Value = Request> {
    prop_oneof![
        compile_requests(),
        bench_requests(),
        explore_requests(),
        names(&["models", "archs", "modes", "strategies", "objectives"])
            .prop_map(|category| Request::List(ListRequest { category })),
        Just(Request::Ping),
        (0.0f64..100.0).prop_map(|ms| Request::Sleep(SleepRequest { ms })),
        Just(Request::Shutdown),
    ]
}

fn response_bodies() -> impl Strategy<Value = ResponseBody> {
    prop_oneof![
        Just(ResponseBody::Pong),
        (0.0f64..100.0).prop_map(|ms| ResponseBody::Slept { ms }),
        (0usize..64).prop_map(|pending| ResponseBody::ShuttingDown { pending }),
        (0usize..64, 1usize..64).prop_map(|(queue_depth, capacity)| ResponseBody::Overloaded {
            queue_depth,
            capacity
        }),
        (1.0f64..1000.0).prop_map(|deadline_ms| ResponseBody::DeadlineExceeded { deadline_ms }),
        proptest::collection::vec(names(&["lenet5", "mlp", "isaac"]), 0..4)
            .prop_map(|names| ResponseBody::List { names }),
        (
            names(&["unknown model `x`", "server is draining", "bad flag"]),
            0usize..4
        )
            .prop_map(|(message, kind)| {
                let error = match kind {
                    0 => ApiError::argument(message),
                    1 => ApiError::input(message),
                    2 => ApiError::protocol(message),
                    _ => ApiError::unavailable(message),
                };
                ResponseBody::Error(error)
            }),
    ]
}

proptest! {
    #[test]
    fn request_envelopes_round_trip(request in requests(), id in 0u64..1_000_000,
                                    deadline in proptest::option::of(1.0f64..10_000.0)) {
        let mut envelope = RequestEnvelope::new(id, request);
        envelope.deadline_ms = deadline;
        let json = envelope.to_json();
        let back = RequestEnvelope::from_json(&json).expect("round-trip parses");
        prop_assert_eq!(envelope, back);
    }

    #[test]
    fn responses_round_trip(body in response_bodies(), id in 0u64..1_000_000,
                            elapsed in 0.0f64..60_000.0) {
        let response = Response::new(id, elapsed, body);
        let json = response.to_json();
        let back = Response::from_json(&json).expect("round-trip parses");
        prop_assert_eq!(response, back);
    }
}

/// A compile outcome — the heavyweight response body — survives the
/// wire: run a real request through the handler, serialize, reparse,
/// compare structurally.
#[test]
fn compile_outcomes_round_trip_through_the_wire() {
    let handler = Handler::new();
    let request = Request::Compile(CompileRequest {
        model: "lenet5".to_owned(),
        arch: "isaac".to_owned(),
        mode: None,
        level: None,
        jobs: 0,
        schedule: true,
        flow: Some(5),
        verify: true,
        dump_stage: Some(StageArg::Mvm),
        cache: CachePolicy::Default,
        session: None,
    });
    let envelope = RequestEnvelope::new(7, request);
    let response = handler.respond(&envelope);
    assert_eq!(response.id, 7);
    assert!(
        matches!(response.body, ResponseBody::Compile(_)),
        "{:?}",
        response.body
    );
    let json = response.to_json();
    let back = Response::from_json(&json).expect("response parses");
    // elapsed_ms survives verbatim too: PartialEq covers every field.
    assert_eq!(response, back);
}

// ---------------------------------------------------------------------------
// Version gating.

#[test]
fn future_protocol_versions_are_rejected_structurally() {
    // Envelope parsing succeeds (so the server can answer with the right
    // id), but the handler refuses to execute it…
    let mut envelope = RequestEnvelope::new(3, Request::Ping);
    envelope.protocol_version = PROTOCOL_VERSION + 1;
    let parsed = RequestEnvelope::from_json(&envelope.to_json()).expect("envelope still parses");
    assert_eq!(parsed.protocol_version, PROTOCOL_VERSION + 1);
    let response = Handler::new().respond(&parsed);
    assert_eq!(response.id, 3);
    match &response.body {
        ResponseBody::Error(e) => {
            assert!(e.message.contains("unsupported protocol version"), "{e}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }

    // …and a response from a future server is rejected by the client.
    let mut response = Response::new(1, 0.0, ResponseBody::Pong);
    response.protocol_version = PROTOCOL_VERSION + 1;
    let err = Response::from_json(&response.to_json()).unwrap_err();
    assert!(err.contains("unsupported protocol version"), "{err}");

    // An ancient version (below the supported window) is refused too.
    let mut ancient = Response::new(1, 0.0, ResponseBody::Pong);
    ancient.protocol_version = MIN_PROTOCOL_VERSION.wrapping_sub(1);
    let err = Response::from_json(&ancient.to_json()).unwrap_err();
    assert!(err.contains("unsupported protocol version"), "{err}");
}

#[test]
fn minimal_envelopes_fill_in_defaults() {
    // Clients may omit everything but the request itself.
    let envelope = RequestEnvelope::from_json(
        r#"{"request": {"compile": {"model": "lenet5", "arch": "isaac"}}}"#,
    )
    .expect("defaults fill in");
    assert_eq!(envelope.protocol_version, PROTOCOL_VERSION);
    assert_eq!(envelope.id, 0);
    assert_eq!(envelope.deadline_ms, None);
    match &envelope.request {
        Request::Compile(c) => {
            assert_eq!(c.model, "lenet5");
            assert_eq!(c.jobs, 0);
            assert_eq!(c.cache, CachePolicy::Default);
            assert!(!c.verify && c.flow.is_none() && c.dump_stage.is_none());
        }
        other => panic!("expected a compile request, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Golden wire pin — the serialized form of representative v1 messages,
// byte for byte. If this test fails, the wire schema changed: that
// requires a PROTOCOL_VERSION bump and a new golden, not a silent edit.

fn wire_samples() -> Vec<String> {
    let compile = {
        let mut envelope = RequestEnvelope::new(
            1,
            Request::Compile(CompileRequest {
                model: "lenet5".to_owned(),
                arch: "isaac".to_owned(),
                mode: Some(ModeArg::Xbm),
                level: Some(LevelArg::Mvm),
                jobs: 2,
                schedule: true,
                flow: Some(10),
                verify: true,
                dump_stage: Some(StageArg::Cg),
                cache: CachePolicy::Disk {
                    dir: "/tmp/cache".to_owned(),
                },
                session: None,
            }),
        );
        envelope.deadline_ms = Some(2500.0);
        envelope
    };
    let bench = RequestEnvelope::new(
        2,
        Request::Bench(BenchRequest {
            quick: true,
            models: Some(vec!["lenet5".to_owned()]),
            archs: None,
            modes: None,
            jobs: 4,
            cache: CachePolicy::Off,
        }),
    );
    let explore = RequestEnvelope::new(
        3,
        Request::Explore(ExploreRequest {
            model: Some("mlp".to_owned()),
            space: None,
            strategy: Some("random".to_owned()),
            objective: Some("latency:2,energy:1".to_owned()),
            trace: None,
            trace_spec: None,
            policy: None,
            budget: Some(64),
            seed: Some(42),
            jobs: 0,
            cache: CachePolicy::Default,
        }),
    );
    let list = RequestEnvelope::new(
        4,
        Request::List(ListRequest {
            category: "modes".to_owned(),
        }),
    );
    let spec = TraceSpec {
        name: "wire-pin".to_owned(),
        kind: GeneratorKind::Bursty,
        seed: 7,
        horizon: 100_000,
        mean_gap: 250.0,
        burst_len: 16,
        idle_gap: 4_000.0,
        tenants: vec![TenantSpec {
            name: "interactive".to_owned(),
            model: "lenet5".to_owned(),
            weight: 1.0,
            priority: 1,
            deadline: Some(20_000),
        }],
    };
    let trace = RequestEnvelope::new(
        13,
        Request::Trace(TraceRequest {
            spec: Some(spec.clone()),
            trace: None,
        }),
    );
    let simulate = RequestEnvelope::new(
        14,
        Request::Simulate(SimulateRequest {
            trace: None,
            spec: Some(spec),
            arch: Some("isaac".to_owned()),
            placement: None,
            policies: Some(vec!["edf".to_owned(), "fifo".to_owned()]),
            max_batch: Some(4),
            max_wait: Some(0),
            jobs: 1,
            cache: CachePolicy::Default,
        }),
    );
    let recompile = RequestEnvelope::new(
        15,
        Request::Recompile(RecompileRequest {
            session: Some("pinned".to_owned()),
            compile: None,
            delta: GraphDelta {
                edits: vec![GraphEdit::RetuneOpParams {
                    node: "head.fc".to_owned(),
                    op: OpKind::Linear { out_features: 512 },
                }],
            },
        }),
    );
    let control = [
        RequestEnvelope::new(6, Request::Ping),
        RequestEnvelope::new(7, Request::Sleep(SleepRequest { ms: 25.0 })),
        RequestEnvelope::new(8, Request::Shutdown),
    ];
    let responses = [
        Response::new(6, 0.1, ResponseBody::Pong),
        Response::new(7, 25.2, ResponseBody::Slept { ms: 25.0 }),
        Response::new(8, 0.0, ResponseBody::ShuttingDown { pending: 3 }),
        Response::new(
            9,
            0.2,
            ResponseBody::Overloaded {
                queue_depth: 64,
                capacity: 64,
            },
        ),
        Response::new(
            10,
            51.0,
            ResponseBody::DeadlineExceeded { deadline_ms: 50.0 },
        ),
        Response::new(
            11,
            1.5,
            ResponseBody::List {
                names: vec!["auto".to_owned(), "cg".to_owned()],
            },
        ),
        Response::new(
            12,
            0.3,
            ResponseBody::Error(ApiError::input("unknown model `nope`".to_owned())),
        ),
    ];

    let mut lines: Vec<String> = Vec::new();
    lines.extend(
        [compile, bench, explore, list, trace, simulate, recompile]
            .iter()
            .map(RequestEnvelope::to_json),
    );
    lines.extend(control.iter().map(RequestEnvelope::to_json));
    lines.extend(responses.iter().map(Response::to_json));
    lines
}

#[test]
fn golden_wire_v1_is_pinned() {
    let path = format!(
        "{}/tests/golden/api/wire_v1.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut generated = wire_samples().join("\n");
    generated.push('\n');
    if std::env::var_os("UPDATE_WIRE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(&path).parent().unwrap()).unwrap();
        std::fs::write(&path, &generated).unwrap();
    }
    let expected = std::fs::read_to_string(&path)
        .expect("golden exists — regenerate with UPDATE_WIRE_GOLDEN=1 if intentionally changed");
    assert_eq!(
        generated, expected,
        "wire schema drifted from {path}: bump PROTOCOL_VERSION and regenerate"
    );

    // Every pinned line must also still parse under the current code.
    for (i, line) in expected.lines().enumerate() {
        let as_request = RequestEnvelope::from_json(line);
        let as_response = Response::from_json(line);
        assert!(
            as_request.is_ok() || as_response.is_ok(),
            "golden line {} no longer parses: {line}",
            i + 1
        );
    }
}
