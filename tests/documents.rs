//! The one document envelope (`cim_obs::doc`) over all five documents
//! the stack writes — bench, load-test, exploration and traffic reports,
//! and request traces: JSON round-trip, both edges of the version window
//! rejected naming the document's kind, parse errors, and a
//! `comparable()` that is idempotent and touches only the fields each
//! document declares volatile. Plus the guards that the envelope changed
//! no byte: the committed artifacts load and re-serialize exactly, and
//! older layouts still read.

use cim_mlc::bench::report::JobFailure;
use cim_mlc::bench::{LoadSample, LoadtestReport, RunTiming, SampleClass};
use cim_mlc::dse::{DseFailure, TrafficEval};
use cim_mlc::prelude::*;
use serde::Value;
use std::fmt::Debug;

fn bench() -> BenchReport {
    let spec = SweepSpec {
        models: vec!["lenet5".into()],
        archs: vec!["isaac".into()],
        modes: vec![OptLevel::Auto],
    };
    let mut report = run_sweep(&spec, 1).unwrap();
    report.timing = RunTiming {
        total_ms: 12.0,
        threads: 2,
    };
    report.jobs[0].compile_ms = 1.25;
    report.failures.push(JobFailure {
        model: "vgg16".into(),
        arch: "table2".into(),
        mode: OptLevel::Cg,
        error: "operator too large".into(),
    });
    report.cache_stats = Some(CacheStats {
        hits: 7,
        misses: 2,
        stores: 2,
    });
    report
}

fn loadtest() -> LoadtestReport {
    let sample = |key: &str, class, latency_ms, warm| LoadSample {
        key: key.into(),
        class,
        latency_ms,
        warm,
    };
    LoadtestReport::from_samples(
        &[
            sample("compile lenet5@isaac", SampleClass::Ok, 3.25, Some(true)),
            sample("compile lenet5@isaac", SampleClass::Overloaded, 0.5, None),
            sample("ping", SampleClass::Ok, 0.125, None),
        ],
        2,
        100.0,
    )
}

fn explore() -> DseReport {
    let mut strategy = StrategyKind::Random.build(7);
    let mut report = Explorer::new()
        .with_threads(2)
        .explore(
            &zoo::lenet5(),
            &DesignSpace::default_space(),
            strategy.as_mut(),
            &Objective::single(Metric::Latency),
            7,
            3,
        )
        .unwrap();
    report.timing = RunTiming {
        total_ms: 12.0,
        threads: 4,
    };
    report.candidates[0].eval_ms = 1.5;
    report.candidates[0].traffic = Some(TrafficEval {
        p99_latency: 9_000.0,
        throughput: 12.5,
        miss_rate: 0.1,
    });
    report.failures.push(DseFailure {
        point: report.candidates[0].point.clone(),
        error: "boom".into(),
    });
    report.cache_stats = Some(CacheStats {
        hits: 3,
        misses: 2,
        stores: 2,
    });
    report
}

fn trace() -> Trace {
    TraceSpec {
        name: "docs".into(),
        kind: GeneratorKind::Poisson,
        seed: 3,
        horizon: 200_000,
        mean_gap: 5_000.0,
        burst_len: 8,
        idle_gap: 50_000.0,
        tenants: vec![TenantSpec {
            name: "a".into(),
            model: "lenet5".into(),
            weight: 1.0,
            priority: 1,
            deadline: Some(50_000),
        }],
    }
    .generate()
    .unwrap()
}

fn traffic() -> TrafficReport {
    let trace = trace();
    let arch = presets::isaac_baseline();
    let placement = Placement::balanced(&arch, &trace.spec).unwrap();
    let models = vec![("lenet5".to_string(), zoo::lenet5())];
    let config = SimConfig {
        policy: PolicyKind::Edf,
        batching: Batching::default(),
    };
    run_simulation(&trace, &arch, &placement, &models, &config, None, 2).unwrap()
}

/// `doc` as another writer would have emitted it: `schema_version` forced
/// to `version`, and every field named in `absent` removed wherever it
/// occurs (older writers never emitted them).
fn downgraded<D: Document>(doc: &D, version: u32, absent: &[&str]) -> String {
    fn strip(v: Value, absent: &[&str]) -> Value {
        match v {
            Value::Map(entries) => Value::Map(
                entries
                    .into_iter()
                    .filter(|(k, _)| !absent.contains(&k.as_str()))
                    .map(|(k, v)| (k, strip(v, absent)))
                    .collect(),
            ),
            Value::Seq(items) => Value::Seq(items.into_iter().map(|v| strip(v, absent)).collect()),
            other => other,
        }
    }
    let Value::Map(entries) = strip(doc.to_value(), absent) else {
        panic!("documents serialize to objects")
    };
    let entries: Vec<(String, Value)> = entries
        .into_iter()
        .map(|(k, v)| match k.as_str() {
            "schema_version" => (k, Value::U64(version.into())),
            _ => (k, v),
        })
        .collect();
    serde_json::to_string(&Value::Map(entries)).unwrap()
}

/// Leaf paths (`jobs[].compile_ms`) where `a` and `b` differ.
fn differing_paths(a: &Value, b: &Value, path: &str, out: &mut Vec<String>) {
    match (a, b) {
        (Value::Map(x), Value::Map(y)) if x.iter().map(|e| &e.0).eq(y.iter().map(|e| &e.0)) => {
            for ((key, x), (_, y)) in x.iter().zip(y) {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                differing_paths(x, y, &sub, out);
            }
        }
        (Value::Seq(x), Value::Seq(y)) if x.len() == y.len() => {
            for (x, y) in x.iter().zip(y) {
                differing_paths(x, y, &format!("{path}[]"), out);
            }
        }
        _ if a != b => out.push(path.to_owned()),
        _ => {}
    }
}

fn under(path: &str, prefix: &str) -> bool {
    path.strip_prefix(prefix)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with(['.', '[']))
}

/// The whole envelope contract for one document. `doc` must carry
/// non-default values in every `volatile` field, so stripping shows.
fn envelope_contract<D: Document + PartialEq + Debug>(doc: &D, volatile: &[&str]) {
    let kind = D::KIND;
    assert_eq!(doc.schema_version(), D::VERSION, "{kind}");
    assert_eq!(D::from_json(&doc.to_json()).unwrap(), *doc, "{kind}");

    for version in [D::VERSION + 1, D::MIN_VERSION - 1] {
        let json = downgraded(doc, version, &[]);
        let err = D::from_json(&json).unwrap_err();
        assert!(
            matches!(err, DocError::SchemaVersion { kind: k, found, .. } if k == kind && found == version),
            "{kind} v{version}: {err:?}"
        );
        let message = err.to_string();
        assert!(message.starts_with(kind), "{message}");
        assert!(message.contains("schema_version"), "{message}");
        assert!(!message.contains("refresh-baseline"), "{message}");
        // The same gate guards a document that arrived already typed.
        let typed: D = serde_json::from_str(&json).unwrap();
        assert_eq!(typed.validate(), Err(err), "{kind}");
    }

    let err = D::from_json("{nope").unwrap_err();
    assert!(
        matches!(err, DocError::Parse { kind: k, .. } if k == kind),
        "{kind}: {err:?}"
    );
    assert!(
        err.to_string().starts_with(&format!("invalid {kind}: ")),
        "{err}"
    );

    let comparable = doc.comparable();
    assert_eq!(comparable.comparable(), comparable, "{kind}: idempotent");
    let (raw, stripped) = (doc.to_value(), comparable.to_value());
    let mut moved = Vec::new();
    differing_paths(&raw, &stripped, "", &mut moved);
    for path in &moved {
        assert!(
            volatile.iter().any(|v| under(path, v)),
            "{kind}: comparable() changed deterministic field `{path}`"
        );
    }
    for field in volatile {
        assert!(
            moved.iter().any(|p| under(p, field)),
            "{kind}: volatile `{field}` survived comparable()"
        );
    }
}

#[test]
fn every_document_honours_the_envelope() {
    envelope_contract(&bench(), &["timing", "jobs[].compile_ms", "cache_stats"]);
    envelope_contract(
        &loadtest(),
        &[
            "total_ms",
            "throughput_rps",
            "p50_ms",
            "p99_ms",
            "max_ms",
            "entries[].p50_ms",
            "entries[].p99_ms",
            "entries[].max_ms",
            "entries[].mean_ms",
        ],
    );
    envelope_contract(
        &explore(),
        &["timing", "candidates[].eval_ms", "cache_stats"],
    );
    envelope_contract(&traffic(), &["timing"]);
    envelope_contract(&trace(), &[]);
}

#[test]
fn committed_artifacts_round_trip_through_the_one_reader() {
    let read = |name: &str| {
        std::fs::read_to_string(format!("{}/{name}", env!("CARGO_MANIFEST_DIR"))).unwrap()
    };
    for name in ["bench/baseline.json", "BENCH_sweep.json"] {
        let bytes = read(name);
        let report = BenchReport::from_json(&bytes).unwrap();
        assert_eq!(report.schema_version, BenchReport::VERSION, "{name}");
        assert!(report.to_json() + "\n" == bytes, "{name} re-serializes");
    }
    let bytes = read("bench/traffic-baseline.json");
    let Value::Seq(elements) = serde_json::from_str(&bytes).unwrap() else {
        panic!("the traffic baseline is an array")
    };
    let reports: Vec<TrafficReport> = elements
        .iter()
        .map(|e| TrafficReport::from_json(&serde_json::to_string(e).unwrap()).unwrap())
        .collect();
    assert_eq!(reports.len(), 3, "one report per policy");
    assert!(reports
        .iter()
        .all(|r| r.schema_version == TrafficReport::VERSION));
    assert!(serde_json::to_string_pretty(&reports).unwrap() + "\n" == bytes);
}

#[test]
fn bench_v1_and_v2_documents_remain_readable() {
    let current = bench();
    let v1 = BenchReport::from_json(&downgraded(&current, 1, &["cache_stats"])).unwrap();
    assert_eq!(v1.schema_version, 1);
    assert_eq!(v1.cache_stats, None, "v1 has no cache stats");
    assert_eq!(v1.jobs, current.jobs);

    let v2 = BenchReport::from_json(&downgraded(&current, 2, &[])).unwrap();
    assert_eq!(v2.schema_version, 2);
    assert_eq!(v2.cache_stats, current.cache_stats, "v2 keeps cache stats");
    assert_eq!(v2.jobs, current.jobs);

    // Old baselines still gate against a current report.
    for old in [v1, v2] {
        assert!(compare(&old, &current, &Tolerances::default()).passes());
    }
}

/// Versions 3 and 4 could carry a section of cold-compile wall-clock
/// medians, which no writer emits any more: such a document still loads,
/// and the section is ignored.
#[test]
fn bench_v4_reports_with_the_retired_timing_section_still_load() {
    let json = include_str!("golden/retired/bench_v4.json");
    let report = BenchReport::from_json(json).unwrap();
    assert_eq!(report.schema_version, 4);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.timing.threads, 2);
    assert_eq!(report.cache_stats.map(|s| s.hits), Some(7));

    // Writing it back drops that one section and keeps everything else.
    let Value::Map(read) = serde_json::from_str(json).unwrap() else {
        panic!("the fixture is an object")
    };
    let Value::Map(written) = serde::Serialize::to_value(&report) else {
        panic!("documents serialize to objects")
    };
    let (kept, dropped): (Vec<_>, Vec<_>) = read
        .into_iter()
        .partition(|(key, _)| written.iter().any(|(k, _)| k == key));
    assert_eq!(kept, written);
    assert_eq!(dropped.len(), 1, "{dropped:?}");
    assert!(serde_json::to_string(&dropped[0].1)
        .unwrap()
        .contains(r#""median_ms":0.9"#));
}

#[test]
fn exploration_v1_documents_without_traffic_still_load() {
    let current = explore();
    let v1 = DseReport::from_json(&downgraded(&current, 1, &["traffic"])).unwrap();
    assert_eq!(v1.schema_version, 1);
    assert!(v1.candidates.iter().all(|c| c.traffic.is_none()));
    assert_eq!(v1.front, current.front);
}
