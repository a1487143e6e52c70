//! Versioned, machine-readable bench reports and regression comparison.
//!
//! A [`BenchReport`] is the JSON artifact a sweep run emits (`cimc bench
//! --out report.json`): schema version, toolchain, the [`SweepSpec`] that
//! produced it, one [`JobRecord`] per successful compilation and one
//! [`JobFailure`] per compile error, plus a wall-clock [`RunTiming`]
//! section. It is a [`Document`](crate::doc): versioning, JSON in/out and
//! [`Document::comparable`] come from [`crate::doc`]. Everything outside
//! the timing section, the per-job `compile_ms` field and `cache_stats` is
//! deterministic, so the comparable copy is byte-identical across worker
//! counts, cache states and machines.
//!
//! [`compare`] diffs two reports job-by-job and flags metric deltas
//! beyond configurable [`Tolerances`] — the CI regression gate.
//!
//! # Version history
//!
//! * **4** — the compile-time section's records drop `jobs` (one compile
//!   runs on one thread) and are keyed `model@arch`.
//! * **3** — adds an optional compile-time section: median cold-compile
//!   wall clocks of two reference compiles, which a wall-clock gate read.
//!   That gate is retired (counts in `crates/core/tests/alloc_budget.rs`
//!   replaced it), so the section is no longer written, and a v3 or v4
//!   document that still carries it loads with the section ignored.
//! * **2** — adds the optional `cache_stats` block (compile-cache
//!   hit/miss/store counters of the sweep that produced the report).
//!   Version-1 documents remain readable: `cache_stats` defaults to
//!   absent, and nothing else changed.
//! * **1** — initial layout.

use crate::doc::{Document, RunTiming};
use crate::sweep::SweepSpec;
use cim_compiler::{CacheStats, JobMetrics, OptLevel};
use serde::{Deserialize, Serialize};

/// The stable job identifier (`model@arch#mode`) shared by job specs,
/// records and failures — the unit [`compare`] matches baseline and
/// current reports on.
#[must_use]
pub fn job_key(model: &str, arch: &str, mode: OptLevel) -> String {
    format!("{model}@{arch}#{mode}")
}

/// One successful sweep job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Zoo model key.
    pub model: String,
    /// Architecture preset key.
    pub arch: String,
    /// Scheduling mode.
    pub mode: OptLevel,
    /// Deterministic metrics.
    pub metrics: JobMetrics,
    /// Wall-clock compile time in milliseconds — the only
    /// non-deterministic per-job field; zeroed by
    /// [`Document::comparable`].
    pub compile_ms: f64,
}

impl JobRecord {
    /// This record's [`job_key`].
    #[must_use]
    pub fn key(&self) -> String {
        job_key(&self.model, &self.arch, self.mode)
    }
}

/// One failed sweep job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobFailure {
    /// Zoo model key.
    pub model: String,
    /// Architecture preset key.
    pub arch: String,
    /// Scheduling mode.
    pub mode: OptLevel,
    /// The compile error, verbatim.
    pub error: String,
}

impl JobFailure {
    /// This failure's [`job_key`].
    #[must_use]
    pub fn key(&self) -> String {
        job_key(&self.model, &self.arch, self.mode)
    }
}

/// The machine-readable artifact of one sweep run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Document layout version ([`Document::VERSION`] when written).
    pub schema_version: u32,
    /// The toolchain that produced the report.
    pub toolchain: String,
    /// The spec that was swept.
    pub spec: SweepSpec,
    /// Successful jobs, in matrix order.
    pub jobs: Vec<JobRecord>,
    /// Failed jobs, in matrix order.
    pub failures: Vec<JobFailure>,
    /// Wall-clock section (excluded from comparison).
    pub timing: RunTiming,
    /// Compile-cache counters of the sweep that produced this report
    /// (`None` when the sweep ran uncached, or for schema-v1 documents).
    /// Run-specific like `timing`, and excluded from comparison: a cold
    /// and a warm sweep of the same spec differ here and nowhere else.
    #[serde(default)]
    pub cache_stats: Option<CacheStats>,
}

impl BenchReport {
    /// Assembles a report, stamping the schema version and toolchain.
    #[must_use]
    pub fn new(
        spec: SweepSpec,
        jobs: Vec<JobRecord>,
        failures: Vec<JobFailure>,
        timing: RunTiming,
    ) -> Self {
        BenchReport {
            schema_version: Self::VERSION,
            toolchain: concat!("cim-bench ", env!("CARGO_PKG_VERSION")).to_owned(),
            spec,
            jobs,
            failures,
            timing,
            cache_stats: None,
        }
    }
}

impl Document for BenchReport {
    const KIND: &'static str = "bench report";
    const VERSION: u32 = 4;
    const MIN_VERSION: u32 = 1;

    fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// Wall clocks and cache counters.
    fn strip_volatile(&mut self) {
        self.timing = RunTiming::default();
        for job in &mut self.jobs {
            job.compile_ms = 0.0;
        }
        self.cache_stats = None;
    }
}

/// Relative tolerances for [`compare`], as fractions (0.005 = 0.5%).
/// Sweep metrics are deterministic simulated quantities, so the defaults
/// are tight: any delta beyond them reflects a real change in compiler
/// behaviour, not measurement noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Allowed relative latency increase.
    pub latency: f64,
    /// Allowed relative energy increase.
    pub energy: f64,
    /// Allowed relative peak-power increase.
    pub peak_power: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            latency: 0.005,
            energy: 0.005,
            peak_power: 0.005,
        }
    }
}

impl Tolerances {
    /// Uniform tolerances of `fraction` on every metric.
    #[must_use]
    pub fn uniform(fraction: f64) -> Self {
        Tolerances {
            latency: fraction,
            energy: fraction,
            peak_power: fraction,
        }
    }
}

/// One metric that moved beyond tolerance between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Job key (`model@arch#mode`).
    pub job: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative change, `(current - baseline) / baseline`.
    pub delta: f64,
}

impl std::fmt::Display for MetricDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {:.4} -> {:.4} ({:+.2}%)",
            self.job,
            self.metric,
            self.baseline,
            self.current,
            self.delta * 100.0
        )
    }
}

/// The outcome of diffing a current report against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegressionReport {
    /// Metrics that got worse beyond tolerance — these fail the gate.
    pub regressions: Vec<MetricDelta>,
    /// Metrics that improved beyond tolerance (informational; refresh
    /// the baseline to lock them in).
    pub improvements: Vec<MetricDelta>,
    /// Jobs that compiled in the baseline but fail now — these fail the
    /// gate.
    pub newly_failing: Vec<String>,
    /// Jobs that failed in the baseline but compile now (informational).
    pub fixed: Vec<String>,
    /// Baseline job keys absent from the current report (e.g. a quick
    /// run compared against the full baseline; informational).
    pub missing: Vec<String>,
    /// Current job keys absent from the baseline (informational).
    pub added: Vec<String>,
}

impl RegressionReport {
    /// `true` when the gate passes: no regressions and no newly failing
    /// jobs.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.regressions.is_empty() && self.newly_failing.is_empty()
    }

    /// Renders a human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.passes() {
            out.push_str("regression gate: PASS\n");
        } else {
            out.push_str("regression gate: FAIL\n");
        }
        for d in &self.regressions {
            out.push_str(&format!("  regression  {d}\n"));
        }
        for key in &self.newly_failing {
            out.push_str(&format!("  newly failing  {key}\n"));
        }
        for d in &self.improvements {
            out.push_str(&format!("  improvement {d}\n"));
        }
        for key in &self.fixed {
            out.push_str(&format!("  fixed  {key}\n"));
        }
        if !self.missing.is_empty() {
            out.push_str(&format!(
                "  ({} baseline job(s) not exercised by this run)\n",
                self.missing.len()
            ));
        }
        if !self.added.is_empty() {
            out.push_str(&format!(
                "  ({} job(s) have no baseline entry yet)\n",
                self.added.len()
            ));
        }
        out
    }
}

fn relative_delta(baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current - baseline) / baseline
    }
}

/// Diffs `current` against `baseline` job-by-job.
///
/// Jobs are matched on their `model@arch#mode` key; latency, total
/// energy and peak power deltas beyond `tol` are classified as
/// regressions (worse) or improvements (better). A failing job is
/// `newly_failing` — and fails the gate — unless the baseline already
/// records the same job as failing; that covers both jobs that compiled
/// in the baseline and jobs added to the spec in a broken state.
/// Successful jobs present on only one side are reported but do not fail
/// the gate, so a `--quick` run can be compared against the full
/// committed baseline.
#[must_use]
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    tol: &Tolerances,
) -> RegressionReport {
    let mut report = RegressionReport::default();
    let base_jobs: Vec<(String, &JobRecord)> = baseline.jobs.iter().map(|j| (j.key(), j)).collect();
    let base_failures: Vec<String> = baseline.failures.iter().map(JobFailure::key).collect();
    let find_base = |key: &str| base_jobs.iter().find(|(k, _)| k == key).map(|(_, j)| *j);

    let mut current_keys: Vec<String> = Vec::new();
    for job in &current.jobs {
        let key = job.key();
        current_keys.push(key.clone());
        let Some(base) = find_base(&key) else {
            if base_failures.contains(&key) {
                report.fixed.push(key);
            } else {
                report.added.push(key);
            }
            continue;
        };
        let checks: [(&'static str, f64, f64, f64); 3] = [
            (
                "latency_cycles",
                base.metrics.latency_cycles,
                job.metrics.latency_cycles,
                tol.latency,
            ),
            (
                "energy_total",
                base.metrics.energy_total,
                job.metrics.energy_total,
                tol.energy,
            ),
            (
                "peak_power",
                base.metrics.peak_power,
                job.metrics.peak_power,
                tol.peak_power,
            ),
        ];
        for (metric, base_value, current_value, tolerance) in checks {
            let delta = relative_delta(base_value, current_value);
            let entry = MetricDelta {
                job: key.clone(),
                metric,
                baseline: base_value,
                current: current_value,
                delta,
            };
            if delta > tolerance {
                report.regressions.push(entry);
            } else if delta < -tolerance {
                report.improvements.push(entry);
            }
        }
    }
    for failure in &current.failures {
        let key = failure.key();
        current_keys.push(key.clone());
        // Anything failing now that the baseline does not already record
        // as failing fails the gate — including jobs the baseline has
        // never seen, so a job added to the spec in a broken state cannot
        // slip through as merely "added".
        if !base_failures.contains(&key) {
            report.newly_failing.push(key);
        }
    }
    for (key, _) in &base_jobs {
        if !current_keys.contains(key) {
            report.missing.push(key.clone());
        }
    }
    for key in &base_failures {
        if !current_keys.contains(key) {
            report.missing.push(key.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(latency: f64) -> JobMetrics {
        JobMetrics {
            level: "cg".to_owned(),
            latency_cycles: latency,
            peak_power: 10.0,
            energy_total: 100.0,
            ..JobMetrics::default()
        }
    }

    fn record(model: &str, latency: f64) -> JobRecord {
        JobRecord {
            model: model.to_owned(),
            arch: "isaac".to_owned(),
            mode: OptLevel::Auto,
            metrics: metrics(latency),
            compile_ms: 1.25,
        }
    }

    fn report(records: Vec<JobRecord>, failures: Vec<JobFailure>) -> BenchReport {
        BenchReport::new(
            SweepSpec::quick(),
            records,
            failures,
            RunTiming {
                total_ms: 12.0,
                threads: 2,
            },
        )
    }

    #[test]
    fn latency_regression_beyond_tolerance_fails_the_gate() {
        let base = report(vec![record("lenet5", 1000.0)], vec![]);
        let current = report(vec![record("lenet5", 1100.0)], vec![]);
        let diff = compare(&base, &current, &Tolerances::default());
        assert!(!diff.passes());
        assert_eq!(diff.regressions.len(), 1);
        assert_eq!(diff.regressions[0].metric, "latency_cycles");
        assert!((diff.regressions[0].delta - 0.1).abs() < 1e-12);
        assert!(diff.render().contains("FAIL"));

        // The same delta passes under a generous tolerance.
        let diff = compare(&base, &current, &Tolerances::uniform(0.2));
        assert!(diff.passes());
    }

    #[test]
    fn improvements_do_not_fail_the_gate() {
        let base = report(vec![record("lenet5", 1000.0)], vec![]);
        let current = report(vec![record("lenet5", 800.0)], vec![]);
        let diff = compare(&base, &current, &Tolerances::default());
        assert!(diff.passes());
        assert_eq!(diff.improvements.len(), 1);
        assert!(diff.render().contains("PASS"));
    }

    #[test]
    fn newly_failing_job_fails_the_gate() {
        let base = report(vec![record("lenet5", 1000.0)], vec![]);
        let current = report(
            vec![],
            vec![JobFailure {
                model: "lenet5".to_owned(),
                arch: "isaac".to_owned(),
                mode: OptLevel::Auto,
                error: "boom".to_owned(),
            }],
        );
        let diff = compare(&base, &current, &Tolerances::default());
        assert!(!diff.passes());
        assert_eq!(diff.newly_failing, vec!["lenet5@isaac#auto".to_owned()]);
    }

    #[test]
    fn failure_without_baseline_entry_still_fails_the_gate() {
        // A job added to the spec in a broken state has no baseline
        // entry; it must surface as newly failing, not vanish.
        let failure = JobFailure {
            model: "vgg16".to_owned(),
            arch: "isaac".to_owned(),
            mode: OptLevel::Auto,
            error: "boom".to_owned(),
        };
        let base = report(vec![record("lenet5", 1000.0)], vec![]);
        let current = report(vec![record("lenet5", 1000.0)], vec![failure.clone()]);
        let diff = compare(&base, &current, &Tolerances::default());
        assert!(!diff.passes());
        assert_eq!(diff.newly_failing, vec!["vgg16@isaac#auto".to_owned()]);

        // Once the baseline records the same failure, it is expected.
        let base = report(vec![record("lenet5", 1000.0)], vec![failure]);
        assert!(compare(&base, &current, &Tolerances::default()).passes());
    }

    #[test]
    fn spec_subsets_compare_cleanly() {
        // Quick run against a fuller baseline: extra baseline jobs are
        // `missing`, not failures; extra current jobs are `added`.
        let base = report(
            vec![record("lenet5", 1000.0), record("vgg16", 9000.0)],
            vec![],
        );
        let current = report(vec![record("lenet5", 1000.0), record("mlp", 50.0)], vec![]);
        let diff = compare(&base, &current, &Tolerances::default());
        assert!(diff.passes());
        assert_eq!(diff.missing, vec!["vgg16@isaac#auto".to_owned()]);
        assert_eq!(diff.added, vec!["mlp@isaac#auto".to_owned()]);
    }
}
