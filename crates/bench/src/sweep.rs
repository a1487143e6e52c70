//! Parallel full-stack sweeps: every selected zoo model compiled against
//! every selected architecture preset under every selected scheduling
//! mode (the paper's Figures 20–22 evaluation matrix, batched).
//!
//! A [`SweepSpec`] names the three axes; [`run_sweep`] expands them into
//! a job matrix and compiles it with [`compile_batch`] on the shared
//! worker pool. Results land in a [`BenchReport`] in matrix order
//! regardless of worker count, so reports are
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
use crate::report::{BenchReport, JobFailure, JobRecord};
use cim_arch::presets;
use cim_compiler::{compile_batch, BatchJob, CompileCache, JobMetrics, MemoryCache, OptLevel};
use cim_graph::zoo;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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
    pub modes: Vec<OptLevel>,
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
    /// An axis lists the same value twice.
    DuplicateValue {
        /// Axis name.
        axis: &'static str,
        /// The repeated value.
        value: String,
    },
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
            SweepError::DuplicateValue { axis, value } => {
                write!(f, "sweep axis `{axis}` lists `{value}` twice")
            }
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
            modes: vec![OptLevel::Auto, OptLevel::Cg],
        }
    }

    /// A reduced matrix for CI gating: a strict subset of [`SweepSpec::full`]'s
    /// keys, so a quick run can be compared against the full baseline.
    #[must_use]
    pub fn quick() -> Self {
        SweepSpec {
            models: ["lenet5", "mlp", "vgg7"].map(str::to_owned).to_vec(),
            archs: ["isaac", "jia", "jain"].map(str::to_owned).to_vec(),
            modes: vec![OptLevel::Auto, OptLevel::Cg],
        }
    }

    /// Checks that every axis is non-empty, every name resolves and no
    /// axis repeats a value.
    ///
    /// # Errors
    /// Returns the first failing [`SweepError`], listing every offending
    /// name of that axis.
    pub fn validate(&self) -> Result<(), SweepError> {
        let modes: Vec<String> = self.modes.iter().map(|m| m.name().to_owned()).collect();
        let axes = [
            ("models", &self.models),
            ("archs", &self.archs),
            ("modes", &modes),
        ];
        if let Some((axis, _)) = axes.iter().find(|(_, values)| values.is_empty()) {
            return Err(SweepError::EmptyAxis(axis));
        }
        let unknown = |names: &[String], known: fn(&str) -> bool| -> Vec<String> {
            names.iter().filter(|n| !known(n)).cloned().collect()
        };
        let bad_models = unknown(&self.models, |m| zoo::by_name(m).is_some());
        if !bad_models.is_empty() {
            return Err(SweepError::UnknownModels(bad_models));
        }
        let bad_archs = unknown(&self.archs, |a| presets::by_name(a).is_some());
        if !bad_archs.is_empty() {
            return Err(SweepError::UnknownArchs(bad_archs));
        }
        for (axis, values) in axes {
            if let Some(i) = (1..values.len()).find(|&i| values[..i].contains(&values[i])) {
                let value = values[i].clone();
                return Err(SweepError::DuplicateValue { axis, value });
            }
        }
        Ok(())
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
    // Snapshot so a long-lived cache reports only *this* sweep's
    // activity in the report's cache_stats block.
    let stats_before = cache.as_ref().map(|c| c.stats());
    let started = cim_obs::stopwatch();
    // Each model and preset is built once and shared by its jobs (every
    // name resolves: the spec was validated).
    let graphs: Vec<_> = spec.models.iter().filter_map(|m| zoo::by_name(m)).collect();
    let archs: Vec<_> = spec
        .archs
        .iter()
        .filter_map(|a| presets::by_name(a))
        .collect();
    // The job matrix, in the spec's model-major order.
    let (mut names, mut batch) = (Vec::new(), Vec::new());
    for (model, graph) in spec.models.iter().zip(&graphs) {
        for (arch_key, arch) in spec.archs.iter().zip(&archs) {
            for &level in &spec.modes {
                names.push((model, arch_key));
                batch.push(BatchJob { graph, arch, level });
            }
        }
    }
    let threads = threads.max(1).min(batch.len());
    let outcomes = compile_batch(&batch, threads, cache.as_ref());
    let total_ms = started.elapsed_ms();
    let mut records = Vec::new();
    let mut failures = Vec::new();
    for ((&(model, arch), job), outcome) in names.iter().zip(&batch).zip(outcomes) {
        let (model, arch, mode) = (model.clone(), arch.clone(), job.level);
        match outcome {
            Ok((metrics, compile_ms)) => records.push(JobRecord {
                model,
                arch,
                mode,
                metrics: JobMetrics::from(&metrics),
                compile_ms,
            }),
            Err(e) => failures.push(JobFailure {
                model,
                arch,
                mode,
                error: e.to_string(),
            }),
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
    fn validation_names_every_offender() {
        let spec = SweepSpec {
            models: vec!["lenet5".into(), "nope".into(), "also_nope".into()],
            archs: vec!["isaac".into()],
            modes: vec![OptLevel::Auto],
        };
        let err = spec.validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("nope") && msg.contains("also_nope"), "{msg}");

        let repeated = SweepSpec {
            models: vec!["lenet5".into()],
            archs: vec!["isaac".into()],
            modes: vec![OptLevel::Auto, OptLevel::Cg, OptLevel::Auto],
        };
        assert_eq!(
            repeated.validate(),
            Err(SweepError::DuplicateValue {
                axis: "modes",
                value: "auto".into()
            })
        );
        assert!(repeated
            .validate()
            .unwrap_err()
            .to_string()
            .contains("`auto`"));

        let empty = SweepSpec {
            models: vec![],
            archs: vec![],
            modes: vec![],
        };
        assert_eq!(empty.validate(), Err(SweepError::EmptyAxis("models")));
    }
}
