//! Cold-compile wall-clock measurement and the compile-perf gate data.
//!
//! The arena-graph + memoized-segmentation refactor is held to a
//! *measured* compile-time bar, not just metric byte-identity: CI's
//! `compile-perf` job re-measures the [`GATE_ENTRIES`] medians on every
//! push and fails when one exceeds its [`CompileTimeBudget::budget_ms`]
//! ceiling (half the pre-refactor median — the "≥ 2x cold-compile
//! speedup" acceptance bar, frozen as an absolute budget) or drifts
//! beyond tolerance from the committed baseline's `compile_time`
//! section.
//!
//! Medians, not means: a cold compile is sub-hundred-milliseconds, so a
//! single scheduler hiccup would dominate a mean. Each entry compiles
//! `samples` times and reports the median; the CLI gate re-measures up
//! to 3 attempts before failing, mirroring the cache-consistency gate's
//! retry discipline for wall clocks.

use crate::sweep::SweepError;
use cim_compiler::Compiler;
use serde::{Deserialize, Serialize};

/// One model/arch combination the compile-perf gate measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileTimeBudget {
    /// Zoo model key.
    pub model: &'static str,
    /// Architecture preset key.
    pub arch: &'static str,
    /// Hard ceiling on the median cold-compile time, in milliseconds:
    /// half the pre-refactor median (measured at 9 release samples on
    /// the reference machine), so staying under it *is* the ≥ 2x
    /// speedup guarantee.
    pub budget_ms: f64,
}

/// The gate's reference workloads: a segmentation-DP compile on a large
/// chip (ViT-Base on ISAAC, whose repeated encoder blocks the segment memo
/// answers) and a segmentation-heavy small-chip compile (ResNet-50 on
/// PUMA).
///
/// Neither is the zoo's heaviest compile: ResNet-152 on ISAAC is, at
/// about 65× ViT-Base's time before the allocator's threshold sweep and
/// about 34× since the leftover cores go out per tie class (14.8 ms
/// against 0.44 ms). Its 156 stages split into many
/// segments whose budget windows each cover ~77 stages, so the DP prices
/// thousands of distinct candidates. The `compile-cold` benchmark workload tracks it.
///
/// Pre-refactor medians: vit_base@isaac 19.69 ms, resnet50@puma
/// 1.008 ms (release, 9 samples). The budgets below are half that.
pub const GATE_ENTRIES: &[CompileTimeBudget] = &[
    CompileTimeBudget {
        model: "vit_base",
        arch: "isaac",
        budget_ms: 9.8,
    },
    CompileTimeBudget {
        model: "resnet50",
        arch: "puma",
        budget_ms: 0.5,
    },
];

/// A measured compile-time median — the unit of the bench report's
/// `compile_time` section (schema v3; v4 dropped the `jobs` field).
///
/// Wall clocks are machine-specific, so the section is *reference
/// data*: plain sweeps carry `None` (keeping cold/warm `comparable()`
/// reports byte-identical), and `scripts/refresh-baseline.sh` attaches
/// freshly measured medians for the drift gate to compare against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileTimeRecord {
    /// Zoo model key.
    pub model: String,
    /// Architecture preset key.
    pub arch: String,
    /// Number of cold compiles the median was taken over.
    pub samples: usize,
    /// Median cold-compile wall-clock time in milliseconds.
    pub median_ms: f64,
}

impl CompileTimeRecord {
    /// The stable `model@arch` key records are matched on.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{}@{}", self.model, self.arch)
    }
}

/// Median cold-compile time of one gate entry over `samples` compiles.
///
/// Every sample is a full cold compile (fresh session, no cache); the
/// only state shared across samples is the parsed graph and
/// architecture, which a warm process would share too.
///
/// # Errors
/// Returns [`SweepError`] when the model or arch key is unknown.
pub fn measure_entry(
    entry: &CompileTimeBudget,
    samples: usize,
) -> Result<CompileTimeRecord, SweepError> {
    let graph = cim_graph::zoo::by_name(entry.model)
        .ok_or_else(|| SweepError::UnknownModels(vec![entry.model.to_owned()]))?;
    let arch = cim_arch::presets::by_name(entry.arch)
        .ok_or_else(|| SweepError::UnknownArchs(vec![entry.arch.to_owned()]))?;
    let samples = samples.max(1);
    let mut times_ms: Vec<f64> = (0..samples)
        .map(|_| {
            let start = cim_obs::stopwatch();
            let compiled = Compiler::new()
                .compile(&graph, &arch)
                .expect("gate entries compile on their presets");
            std::hint::black_box(&compiled);
            start.elapsed_ms()
        })
        .collect();
    times_ms.sort_by(f64::total_cmp);
    Ok(CompileTimeRecord {
        model: entry.model.to_owned(),
        arch: entry.arch.to_owned(),
        samples,
        median_ms: times_ms[samples / 2],
    })
}

/// Measures every [`GATE_ENTRIES`] combination — the `compile_time`
/// section `scripts/refresh-baseline.sh` attaches to the committed
/// baseline, and the vector `cimc compile-perf` gates.
///
/// # Errors
/// Returns [`SweepError`] when a gate entry names an unknown model or
/// arch (a bug in [`GATE_ENTRIES`], caught by tests).
pub fn measure_gate_entries(samples: usize) -> Result<Vec<CompileTimeRecord>, SweepError> {
    GATE_ENTRIES
        .iter()
        .map(|entry| measure_entry(entry, samples))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_entries_name_real_models_and_archs() {
        for entry in GATE_ENTRIES {
            assert!(
                cim_graph::zoo::by_name(entry.model).is_some(),
                "unknown gate model {}",
                entry.model
            );
            assert!(
                cim_arch::presets::by_name(entry.arch).is_some(),
                "unknown gate arch {}",
                entry.arch
            );
            assert!(entry.budget_ms > 0.0);
        }
    }

    #[test]
    fn measure_reports_the_median_of_the_requested_samples() {
        let record = measure_entry(&GATE_ENTRIES[1], 3).unwrap();
        assert_eq!(record.model, "resnet50");
        assert_eq!(record.arch, "puma");
        assert_eq!(record.samples, 3);
        assert!(record.median_ms > 0.0);
        assert_eq!(record.key(), "resnet50@puma");
    }

    #[test]
    fn records_round_trip_through_json() {
        let record = CompileTimeRecord {
            model: "vit_base".to_owned(),
            arch: "isaac".to_owned(),
            samples: 9,
            median_ms: 3.25,
        };
        let json = serde_json::to_string(&record).unwrap();
        let back: CompileTimeRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }
}
