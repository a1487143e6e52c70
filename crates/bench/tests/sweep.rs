//! Integration tests for the parallel sweep driver: determinism across
//! worker counts, report serde round-trips (including a property test),
//! and the end-to-end regression gate.

use cim_bench::doc::{Document, RunTiming as SweepTiming};
use cim_bench::report::{BenchReport, JobFailure, JobRecord};
use cim_bench::sweep::{run_sweep, SweepSpec};
use cim_bench::{compare, Tolerances};
use cim_compiler::{JobMetrics, OptLevel};
use proptest::prelude::*;

fn small_spec() -> SweepSpec {
    SweepSpec {
        models: vec!["lenet5".into(), "mlp".into()],
        archs: vec!["isaac".into(), "jain".into()],
        modes: vec![OptLevel::Auto, OptLevel::Cg],
    }
}

#[test]
fn jobs1_and_jobs4_reports_are_byte_identical_modulo_timing() {
    let spec = small_spec();
    let serial = run_sweep(&spec, 1).unwrap();
    let parallel = run_sweep(&spec, 4).unwrap();
    assert_eq!(serial.jobs.len(), 8);
    assert_eq!(serial.failures.len(), 0);
    // Matrix order (model-major, then arch, then mode) at any worker count.
    let keys: Vec<String> = parallel.jobs.iter().map(JobRecord::key).collect();
    assert_eq!(
        keys[..3],
        ["lenet5@isaac#auto", "lenet5@isaac#cg", "lenet5@jain#auto"]
    );
    assert_eq!(keys[4], "mlp@isaac#auto");
    // The comparison sections carry no wall-clock fields and must match
    // byte for byte, independent of worker count.
    assert_eq!(
        serial.comparable().to_json(),
        parallel.comparable().to_json()
    );
    // The timing sections are real (non-zero) in the raw reports.
    assert!(serial.timing.total_ms > 0.0);
    assert_eq!(serial.timing.threads, 1);
    assert_eq!(parallel.timing.threads, 4);
}

#[test]
fn sweep_report_round_trips_through_json() {
    let report = run_sweep(&SweepSpec::quick(), 2).unwrap();
    let back = BenchReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back, report);
}

#[test]
fn doctored_latency_trips_the_regression_gate() {
    let baseline = run_sweep(&small_spec(), 2).unwrap();
    let mut current = baseline.clone();
    current.jobs[3].metrics.latency_cycles *= 1.25;
    let diff = compare(&baseline, &current, &Tolerances::default());
    assert!(!diff.passes());
    assert_eq!(diff.regressions.len(), 1);
    assert_eq!(diff.regressions[0].job, baseline.jobs[3].key());

    // An unmodified run passes against its own baseline.
    assert!(compare(&baseline, &baseline, &Tolerances::default()).passes());
}

fn arbitrary_metrics() -> impl Strategy<Value = JobMetrics> {
    (
        (0.0f64..1e12, 0.0f64..1e12, 0.0f64..1e9, 0u64..1 << 40),
        (0.0f64..1e12, 0.0f64..1e11, 0.0f64..1e10, 0.0f64..1e9),
        (1usize..9, 0.0f64..1e8, 1usize..200, 0u64..1 << 50),
        (0u64..1 << 30, 0.0f64..1.0),
    )
        .prop_map(
            |(
                (latency, energy_total, peak_power, peak_active),
                (interval, crossbar, movement, alu),
                (segments, reprogram, stages, mvm_ops),
                (allocated, utilization),
            )| {
                JobMetrics {
                    level: "cg+mvm".to_owned(),
                    latency_cycles: latency,
                    steady_state_interval: interval,
                    peak_power,
                    peak_active_crossbars: peak_active,
                    energy_total,
                    energy_crossbar: crossbar,
                    energy_adc: crossbar / 3.0,
                    energy_dac: crossbar / 7.0,
                    energy_movement: movement,
                    energy_alu: alu,
                    segments,
                    reprogram_cycles: reprogram,
                    stages,
                    mvm_ops,
                    crossbars_allocated: allocated,
                    utilization,
                }
            },
        )
}

fn arbitrary_report() -> impl Strategy<Value = BenchReport> {
    (
        proptest::collection::vec(
            (
                (0usize..15, 0usize..7, 0usize..4),
                arbitrary_metrics(),
                0.0f64..1e4,
            ),
            0..6,
        ),
        proptest::collection::vec((0usize..15, 0usize..7, 0usize..4), 0..3),
        (0.0f64..1e6, 1usize..16),
    )
        .prop_map(|(jobs, failures, (total_ms, threads))| {
            let model = |i: usize| cim_graph::zoo::NAMES[i].to_owned();
            let arch = |i: usize| cim_arch::presets::NAMES[i].to_owned();
            let mode = |i: usize| OptLevel::ALL[i];
            let jobs = jobs
                .into_iter()
                .map(|((m, a, s), metrics, compile_ms)| JobRecord {
                    model: model(m),
                    arch: arch(a),
                    mode: mode(s),
                    metrics,
                    compile_ms,
                })
                .collect();
            let failures = failures
                .into_iter()
                .map(|(m, a, s)| JobFailure {
                    model: model(m),
                    arch: arch(a),
                    mode: mode(s),
                    error: "operator too large: needs 3 folds".to_owned(),
                })
                .collect();
            BenchReport::new(
                SweepSpec::full(),
                jobs,
                failures,
                SweepTiming { total_ms, threads },
            )
        })
}

proptest! {
    /// Any structurally valid report survives a JSON round-trip exactly —
    /// including the f64 metric fields, whose shortest-representation
    /// rendering is lossless.
    #[test]
    fn bench_report_serde_round_trips(report in arbitrary_report()) {
        let json = report.to_json();
        let back = BenchReport::from_json(&json).unwrap();
        prop_assert_eq!(back, report);
    }
}
