//! Parallel full-stack sweeps: every selected zoo model compiled against
//! every selected architecture preset under every selected scheduling
//! mode (the paper's Figures 20–22 evaluation matrix, batched).
//!
//! A [`SweepSpec`] names the three axes; [`run_sweep`] expands them into
//! a job matrix and executes it on a work-queue pool of `std::thread`
//! workers. Results land in a [`BenchReport`]
//! in matrix order regardless of worker count, so reports are
//! byte-identical across `--jobs` settings once wall-clock fields are
//! stripped (see [`Document::comparable`](crate::doc::Document::comparable)).
//!
//! The worker pool shares one [`CompileCache`]: across the matrix most
//! pipeline work is common (every arch stages the same graph the same
//! way; `auto` and `cg` diverge only below the CG level), so jobs that
//! share a pass-chain prefix reuse each other's artifacts. [`run_sweep`]
//! memoizes in-process by default; [`run_sweep_cached`] accepts any
//! cache (a [`DiskCache`](cim_compiler::DiskCache) makes warm reruns
//! serve every pass from disk) or `None` to disable caching entirely.
//! Cached artifacts are bit-identical to recomputed ones (the
//! [`Pass`](cim_compiler::Pass) purity contract), so caching never
//! changes a report's comparison section.

use crate::doc::RunTiming;
use crate::report::{BenchReport, JobFailure, JobMetrics, JobRecord};
use cim_arch::presets;
use cim_compiler::pool::run_ordered;
use cim_compiler::{CompileCache, CompileOptions, Compiler, MemoryCache, OptLevel};
use cim_graph::zoo;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Scheduling-depth axis of a sweep: the [`OptLevel`]s a job matrix can
/// request, with stable serialized names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ScheduleMode {
    /// Let the target's computing mode decide (the paper's workflow).
    Auto,
    /// Stop after CG-grained optimization.
    Cg,
    /// Stop after MVM-grained optimization.
    CgMvm,
    /// Run all three levels.
    CgMvmVvm,
}

impl ScheduleMode {
    /// Every mode, in scheduling-depth order.
    pub const ALL: [ScheduleMode; 4] = [
        ScheduleMode::Auto,
        ScheduleMode::Cg,
        ScheduleMode::CgMvm,
        ScheduleMode::CgMvmVvm,
    ];

    /// The compiler option this mode maps to.
    #[must_use]
    pub fn opt_level(self) -> OptLevel {
        match self {
            ScheduleMode::Auto => OptLevel::Auto,
            ScheduleMode::Cg => OptLevel::Cg,
            ScheduleMode::CgMvm => OptLevel::CgMvm,
            ScheduleMode::CgMvmVvm => OptLevel::CgMvmVvm,
        }
    }

    /// Stable name used in job keys, reports and the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScheduleMode::Auto => "auto",
            ScheduleMode::Cg => "cg",
            ScheduleMode::CgMvm => "cg_mvm",
            ScheduleMode::CgMvmVvm => "cg_mvm_vvm",
        }
    }

    /// Parses a CLI/report name produced by [`ScheduleMode::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<ScheduleMode> {
        ScheduleMode::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl std::fmt::Display for ScheduleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` (not `write_str`) so table columns can width-format modes.
        f.pad(self.name())
    }
}

/// The three axes of a sweep. Expansion order is model-major, then
/// architecture, then mode — stable, so job indices (and therefore report
/// ordering) never depend on thread scheduling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Zoo model keys ([`zoo::NAMES`]).
    pub models: Vec<String>,
    /// Architecture preset keys ([`presets::NAMES`]).
    pub archs: Vec<String>,
    /// Scheduling modes.
    pub modes: Vec<ScheduleMode>,
}

/// One cell of the expanded job matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Zoo model key.
    pub model: String,
    /// Architecture preset key.
    pub arch: String,
    /// Scheduling mode.
    pub mode: ScheduleMode,
}

impl JobSpec {
    /// This job's [`crate::report::job_key`].
    #[must_use]
    pub fn key(&self) -> String {
        crate::report::job_key(&self.model, &self.arch, self.mode)
    }
}

/// Why a sweep could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The spec names models that are not in the zoo.
    UnknownModels(Vec<String>),
    /// The spec names architecture presets that do not exist.
    UnknownArchs(Vec<String>),
    /// One of the three axes is empty.
    EmptyAxis(&'static str),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownModels(names) => {
                write!(
                    f,
                    "unknown model(s) `{}` (known: {})",
                    names.join("`, `"),
                    zoo::NAMES.join(", ")
                )
            }
            SweepError::UnknownArchs(names) => {
                write!(
                    f,
                    "unknown arch preset(s) `{}` (known: {})",
                    names.join("`, `"),
                    presets::NAMES.join(", ")
                )
            }
            SweepError::EmptyAxis(axis) => write!(f, "sweep spec has no {axis}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl SweepSpec {
    /// The full evaluation matrix: ten zoo models across the five
    /// published accelerator presets under automatic and CG-only
    /// scheduling — the committed `bench/baseline.json` anchor.
    #[must_use]
    pub fn full() -> Self {
        SweepSpec {
            models: [
                "lenet5",
                "mlp",
                "vgg7",
                "vgg11",
                "vgg16",
                "resnet18",
                "resnet34",
                "resnet50",
                "vit_small",
                "vit_base",
            ]
            .map(str::to_owned)
            .to_vec(),
            archs: ["isaac", "isaac-wlm", "jia", "puma", "jain"]
                .map(str::to_owned)
                .to_vec(),
            modes: vec![ScheduleMode::Auto, ScheduleMode::Cg],
        }
    }

    /// A reduced matrix for CI gating: a strict subset of [`SweepSpec::full`]'s
    /// keys, so a quick run can be compared against the full baseline.
    #[must_use]
    pub fn quick() -> Self {
        SweepSpec {
            models: ["lenet5", "mlp", "vgg7"].map(str::to_owned).to_vec(),
            archs: ["isaac", "jia", "jain"].map(str::to_owned).to_vec(),
            modes: vec![ScheduleMode::Auto, ScheduleMode::Cg],
        }
    }

    /// Checks that every axis is non-empty and every name resolves.
    ///
    /// # Errors
    /// Returns the first failing [`SweepError`], listing every offending
    /// name of that axis.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.models.is_empty() {
            return Err(SweepError::EmptyAxis("models"));
        }
        if self.archs.is_empty() {
            return Err(SweepError::EmptyAxis("archs"));
        }
        if self.modes.is_empty() {
            return Err(SweepError::EmptyAxis("modes"));
        }
        let bad_models: Vec<String> = self
            .models
            .iter()
            .filter(|m| zoo::by_name(m).is_none())
            .cloned()
            .collect();
        if !bad_models.is_empty() {
            return Err(SweepError::UnknownModels(bad_models));
        }
        let bad_archs: Vec<String> = self
            .archs
            .iter()
            .filter(|a| presets::by_name(a).is_none())
            .cloned()
            .collect();
        if !bad_archs.is_empty() {
            return Err(SweepError::UnknownArchs(bad_archs));
        }
        Ok(())
    }

    /// Expands the axes into the job matrix, model-major.
    #[must_use]
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.models.len() * self.archs.len() * self.modes.len());
        for model in &self.models {
            for arch in &self.archs {
                for &mode in &self.modes {
                    jobs.push(JobSpec {
                        model: model.clone(),
                        arch: arch.clone(),
                        mode,
                    });
                }
            }
        }
        jobs
    }
}

enum JobOutcome {
    Ok(Box<JobRecord>),
    Failed(JobFailure),
}

fn run_job(job: &JobSpec, cache: Option<&Arc<dyn CompileCache>>) -> JobOutcome {
    let graph = zoo::by_name(&job.model).expect("spec validated");
    let arch = presets::by_name(&job.arch).expect("spec validated");
    let options = CompileOptions {
        level: job.mode.opt_level(),
        ..CompileOptions::default()
    };
    let started = cim_obs::stopwatch();
    // Drive the staged pipeline explicitly (equivalent to the one-shot
    // `Compiler::compile` wrapper); `compile_ms` covers every pass,
    // including cache lookups.
    let mut session = Compiler::with_options(options).session(&graph, &arch);
    if let Some(cache) = cache {
        session = session.with_cache(Arc::clone(cache));
    }
    match session.finish() {
        Ok(compiled) => {
            let compile_ms = started.elapsed_ms();
            JobOutcome::Ok(Box::new(JobRecord {
                model: job.model.clone(),
                arch: job.arch.clone(),
                mode: job.mode,
                metrics: JobMetrics::from(&compiled.metrics(&arch)),
                compile_ms,
            }))
        }
        Err(e) => JobOutcome::Failed(JobFailure {
            model: job.model.clone(),
            arch: job.arch.clone(),
            mode: job.mode,
            error: e.to_string(),
        }),
    }
}

/// Runs `spec`'s job matrix on `threads` worker threads (clamped to at
/// least 1) and collects a [`BenchReport`], memoizing shared pipeline
/// work across jobs in a fresh in-process [`MemoryCache`].
///
/// This is [`run_sweep_cached`] with a per-call cache; use that entry
/// point to share a cache across sweeps (warm reruns), point it at a
/// [`DiskCache`](cim_compiler::DiskCache), or disable caching.
///
/// # Errors
/// Returns a [`SweepError`] when the spec fails [`SweepSpec::validate`];
/// per-job compile errors do *not* abort the sweep — they are recorded in
/// the report's `failures` section.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Result<BenchReport, SweepError> {
    run_sweep_cached(spec, threads, Some(Arc::new(MemoryCache::new())))
}

/// Runs `spec`'s job matrix on `threads` worker threads sharing `cache`
/// (or compiling everything from scratch when `None`).
///
/// Workers pull jobs off a shared queue, so a slow job (a deep ResNet)
/// never blocks the rest of the matrix behind it; results are written
/// back by matrix index, keeping report order independent of worker
/// count and interleaving. When a cache is supplied, its aggregate
/// counters land in the report's
/// [`cache_stats`](crate::report::BenchReport::cache_stats) block.
///
/// # Errors
/// Returns a [`SweepError`] when the spec fails [`SweepSpec::validate`];
/// per-job compile errors do *not* abort the sweep — they are recorded in
/// the report's `failures` section.
///
/// # Panics
/// Panics if a worker thread panics (a bug in the compiler stack, not an
/// input error).
pub fn run_sweep_cached(
    spec: &SweepSpec,
    threads: usize,
    cache: Option<Arc<dyn CompileCache>>,
) -> Result<BenchReport, SweepError> {
    spec.validate()?;
    let jobs = spec.expand();
    let threads = threads.max(1).min(jobs.len().max(1));
    // Snapshot so a long-lived cache reports only *this* sweep's
    // activity in the report's cache_stats block.
    let stats_before = cache.as_ref().map(|c| c.stats());
    let started = cim_obs::stopwatch();
    let outcomes = run_ordered(&jobs, threads, |job| run_job(job, cache.as_ref()));
    let total_ms = started.elapsed_ms();
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            JobOutcome::Ok(record) => records.push(*record),
            JobOutcome::Failed(failure) => failures.push(failure),
        }
    }
    let mut report = BenchReport::new(
        spec.clone(),
        records,
        failures,
        RunTiming { total_ms, threads },
    );
    report.cache_stats = cache
        .zip(stats_before)
        .map(|(c, before)| c.stats().since(&before));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_spec_is_subset_of_full() {
        let full = SweepSpec::full();
        let quick = SweepSpec::quick();
        for m in &quick.models {
            assert!(full.models.contains(m), "{m} not in full spec");
        }
        for a in &quick.archs {
            assert!(full.archs.contains(a), "{a} not in full spec");
        }
        for mode in &quick.modes {
            assert!(full.modes.contains(mode), "{mode} not in full spec");
        }
    }

    #[test]
    fn full_spec_meets_matrix_floor() {
        let full = SweepSpec::full();
        full.validate().unwrap();
        assert!(full.models.len() >= 8);
        assert!(full.archs.len() >= 3);
        assert!(full.modes.len() >= 2);
    }

    #[test]
    fn expansion_is_model_major_and_stable() {
        let spec = SweepSpec {
            models: vec!["lenet5".into(), "mlp".into()],
            archs: vec!["isaac".into(), "jain".into()],
            modes: vec![ScheduleMode::Auto, ScheduleMode::Cg],
        };
        let keys: Vec<String> = spec.expand().iter().map(JobSpec::key).collect();
        assert_eq!(keys[0], "lenet5@isaac#auto");
        assert_eq!(keys[1], "lenet5@isaac#cg");
        assert_eq!(keys[2], "lenet5@jain#auto");
        assert_eq!(keys[4], "mlp@isaac#auto");
        assert_eq!(keys.len(), 8);
    }

    #[test]
    fn validation_names_every_offender() {
        let spec = SweepSpec {
            models: vec!["lenet5".into(), "nope".into(), "also_nope".into()],
            archs: vec!["isaac".into()],
            modes: vec![ScheduleMode::Auto],
        };
        let err = spec.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nope") && msg.contains("also_nope"), "{msg}");

        let empty = SweepSpec {
            models: vec![],
            archs: vec![],
            modes: vec![],
        };
        assert_eq!(empty.validate(), Err(SweepError::EmptyAxis("models")));
    }

    #[test]
    fn schedule_mode_names_round_trip() {
        for mode in ScheduleMode::ALL {
            assert_eq!(ScheduleMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(ScheduleMode::parse("bogus"), None);
    }
}
