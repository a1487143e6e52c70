//! The observability layer's hard invariant: turning the trace
//! collector and metrics registry **on must not change a single byte**
//! of any `comparable()` report. Every surface that CI byte-compares —
//! the compile document, the bench report, the traffic reports, the
//! DSE report — is rendered here twice, once with the collector off and
//! once with it (and the metrics registry) enabled, and the two
//! renderings are asserted identical.
//!
//! The collector is process-global, so every run takes `GUARD` and
//! drains leftovers; the enabled run drains its own events afterwards
//! to prove spans were actually recorded (the invariant would be
//! trivially true if instrumentation never fired).

use cim_mlc::api::{render, BenchRequest, CompileRequest, ExploreRequest, SimulateRequest};
use cim_mlc::prelude::*;
use proptest::prelude::*;
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

/// Renders `f` with observability off, then on, returning both
/// renderings plus the number of trace events the enabled run recorded.
fn off_then_on(f: impl Fn() -> String) -> (String, String, usize) {
    let _guard = GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    cim_mlc::obs::disable();
    let _ = cim_mlc::obs::drain();
    let off = f();
    cim_mlc::obs::enable();
    let on = f();
    cim_mlc::obs::disable();
    let events = cim_mlc::obs::drain().events.len();
    (off, on, events)
}

fn model_name(idx: usize) -> &'static str {
    ["lenet5", "mlp", "vgg7", "resnet18"][idx % 4]
}

fn arch_name(idx: usize) -> &'static str {
    ["isaac", "jain", "puma"][idx % 3]
}

/// A tiny two-tenant traffic spec, fully determined by `seed`.
fn traffic_spec(seed: u64) -> TraceSpec {
    TraceSpec {
        name: "obs-invariance".to_owned(),
        kind: GeneratorKind::Poisson,
        seed,
        horizon: 200_000,
        mean_gap: 5_000.0,
        burst_len: 4,
        idle_gap: 10.0,
        tenants: vec![
            TenantSpec {
                name: "interactive".to_owned(),
                model: "lenet5".to_owned(),
                weight: 2.0,
                priority: 1,
                deadline: Some(200_000),
            },
            TenantSpec {
                name: "batch".to_owned(),
                model: "mlp".to_owned(),
                weight: 1.0,
                priority: 0,
                deadline: None,
            },
        ],
    }
}

fn compile_comparable(model: &str, arch: &str, jobs: usize) -> String {
    let body = Handler::new().handle(&Request::Compile(CompileRequest {
        model: model.to_owned(),
        arch: arch.to_owned(),
        mode: None,
        level: None,
        jobs,
        schedule: true,
        flow: None,
        verify: false,
        dump_stage: None,
        cache: CachePolicy::Off,
        session: None,
    }));
    match body {
        ResponseBody::Compile(outcome) => render::render_comparable(&outcome),
        other => panic!("compile failed: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `cimc compile`'s byte-comparable document is identical with the
    /// collector on and off, across models × presets × worker counts —
    /// and the enabled run really did record pass spans.
    #[test]
    fn compile_comparable_is_identical_on_and_off(
        model_idx in 0usize..4,
        arch_idx in 0usize..3,
        jobs in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let model = model_name(model_idx);
        let arch = arch_name(arch_idx);
        let (off, on, events) = off_then_on(|| compile_comparable(model, arch, jobs));
        prop_assert_eq!(off, on);
        prop_assert!(events > 0, "enabled compile recorded no trace events");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `cimc bench --comparable` output is identical with the collector
    /// on and off, for single-cell sweeps across the gate models.
    #[test]
    fn bench_comparable_is_identical_on_and_off(
        model_idx in 0usize..2,
        arch_idx in 0usize..2,
    ) {
        let model = model_name(model_idx);
        let arch = arch_name(arch_idx);
        let run = || {
            let body = Handler::new().handle(&Request::Bench(BenchRequest {
                quick: false,
                models: Some(vec![model.to_owned()]),
                archs: Some(vec![arch.to_owned()]),
                modes: None,
                jobs: 1,
                cache: CachePolicy::Off,
            }));
            match body {
                ResponseBody::Bench { report } => report.comparable().to_json(),
                other => panic!("bench failed: {other:?}"),
            }
        };
        let (off, on, events) = off_then_on(run);
        prop_assert_eq!(off, on);
        prop_assert!(events > 0, "enabled bench recorded no trace events");
    }

    /// `cimc simulate --comparable` reports are identical with the
    /// collector on and off, across generator seeds and policies.
    #[test]
    fn simulate_comparable_is_identical_on_and_off(seed in 0u64..1000) {
        let run = || {
            let body = Handler::new().handle(&Request::Simulate(SimulateRequest {
                trace: None,
                spec: Some(traffic_spec(seed)),
                arch: None,
                placement: None,
                policies: None,
                max_batch: None,
                max_wait: None,
                jobs: 1,
                cache: CachePolicy::Off,
            }));
            match body {
                ResponseBody::Simulate { reports } => {
                    let docs: Vec<TrafficReport> =
                        reports.iter().map(TrafficReport::comparable).collect();
                    serde_json::to_string_pretty(&docs).expect("reports serialize")
                }
                other => panic!("simulate failed: {other:?}"),
            }
        };
        let (off, on, _) = off_then_on(run);
        prop_assert_eq!(off, on);
    }

    /// `cimc explore --comparable` output is identical with the
    /// collector on and off, across strategies and seeds.
    #[test]
    fn explore_comparable_is_identical_on_and_off(
        seed in 0u64..1000,
        strategy in prop_oneof![Just("random"), Just("hill-climb")],
    ) {
        let run = || {
            let body = Handler::new().handle(&Request::Explore(ExploreRequest {
                model: Some("lenet5".to_owned()),
                space: None,
                strategy: Some(strategy.to_owned()),
                objective: None,
                trace: None,
                trace_spec: None,
                policy: None,
                budget: Some(4),
                seed: Some(seed),
                jobs: 1,
                cache: CachePolicy::Off,
            }));
            match body {
                ResponseBody::Explore { report } => report.comparable().to_json(),
                other => panic!("explore failed: {other:?}"),
            }
        };
        let (off, on, events) = off_then_on(run);
        prop_assert_eq!(off, on);
        prop_assert!(events > 0, "enabled explore recorded no trace events");
    }
}
