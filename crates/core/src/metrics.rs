//! Cheap per-compilation summary metrics for batch evaluation.
//!
//! [`CompileMetrics`] condenses a [`Compiled`] artifact into the flat,
//! deterministic numbers a batch run wants to record per (model,
//! architecture) job — the deepest level's performance report plus
//! macro-operation and resource-usage counts — without re-running any
//! scheduling or generating a meta-operator flow. [`JobMetrics`] is the
//! same record as sweep and exploration reports serialize it.

use crate::compile::Compiled;
use crate::perf::{deserialize_level, require};
use cim_arch::{CimArchitecture, EnergyBreakdown};
use serde::{DeError, Deserialize, Serialize, Value};

/// Flat summary of one compilation, derived from the deepest scheduling
/// level that ran. Every field is a pure function of the schedule, so two
/// compilations of the same (model, architecture, options) triple yield
/// identical metrics regardless of host or thread interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileMetrics {
    /// Deepest scheduling level that ran (`"cg"`, `"cg+mvm"`,
    /// `"cg+mvm+vvm"`).
    pub level: &'static str,
    /// End-to-end single-image inference latency in cycles.
    pub latency_cycles: f64,
    /// Steady-state initiation interval for batch processing.
    pub steady_state_interval: f64,
    /// Peak instantaneous power (energy units per cycle).
    pub peak_power: f64,
    /// Maximum number of crossbars simultaneously active.
    pub peak_active_crossbars: u64,
    /// Total energy of one inference, by component.
    pub energy: EnergyBreakdown,
    /// Number of compute-graph segments.
    pub segments: usize,
    /// Cycles spent reprogramming crossbars between segments/folds.
    pub reprogram_cycles: f64,
    /// Number of pipeline stages (CIM operators) scheduled.
    pub stages: usize,
    /// MVM macro-operations the schedule issues per inference, summed
    /// over all stages.
    pub mvm_ops: u64,
    /// Crossbar allocations summed over the final plans (replica count ×
    /// VXB size per stage). Exceeds the chip's crossbar count when the
    /// model runs in multiple reprogrammed segments.
    pub crossbars_allocated: u64,
    /// Peak fraction of the chip's crossbars simultaneously active
    /// (`peak_active_crossbars / total_crossbars`).
    pub utilization: f64,
}

// Manual impls rather than derives: `level` is interned `&'static str`
// (see `crate::perf::LEVEL_NAMES`).
impl Serialize for CompileMetrics {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("level".to_owned(), Value::Str(self.level.to_owned())),
            ("latency_cycles".to_owned(), self.latency_cycles.to_value()),
            (
                "steady_state_interval".to_owned(),
                self.steady_state_interval.to_value(),
            ),
            ("peak_power".to_owned(), self.peak_power.to_value()),
            (
                "peak_active_crossbars".to_owned(),
                self.peak_active_crossbars.to_value(),
            ),
            ("energy".to_owned(), self.energy.to_value()),
            ("segments".to_owned(), self.segments.to_value()),
            (
                "reprogram_cycles".to_owned(),
                self.reprogram_cycles.to_value(),
            ),
            ("stages".to_owned(), self.stages.to_value()),
            ("mvm_ops".to_owned(), self.mvm_ops.to_value()),
            (
                "crossbars_allocated".to_owned(),
                self.crossbars_allocated.to_value(),
            ),
            ("utilization".to_owned(), self.utilization.to_value()),
        ])
    }
}

impl Deserialize for CompileMetrics {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        const OWNER: &str = "CompileMetrics";
        let m = v
            .as_map()
            .ok_or_else(|| DeError::custom("expected object for struct CompileMetrics"))?;
        Ok(CompileMetrics {
            level: deserialize_level(require(m, "level", OWNER)?)?,
            latency_cycles: f64::from_value(require(m, "latency_cycles", OWNER)?)?,
            steady_state_interval: f64::from_value(require(m, "steady_state_interval", OWNER)?)?,
            peak_power: f64::from_value(require(m, "peak_power", OWNER)?)?,
            peak_active_crossbars: u64::from_value(require(m, "peak_active_crossbars", OWNER)?)?,
            energy: EnergyBreakdown::from_value(require(m, "energy", OWNER)?)?,
            segments: usize::from_value(require(m, "segments", OWNER)?)?,
            reprogram_cycles: f64::from_value(require(m, "reprogram_cycles", OWNER)?)?,
            stages: usize::from_value(require(m, "stages", OWNER)?)?,
            mvm_ops: u64::from_value(require(m, "mvm_ops", OWNER)?)?,
            crossbars_allocated: u64::from_value(require(m, "crossbars_allocated", OWNER)?)?,
            utilization: f64::from_value(require(m, "utilization", OWNER)?)?,
        })
    }
}

/// [`CompileMetrics`] flattened for reports: the level name owned and the
/// energy split into one field per component — the per-job record of
/// sweep and exploration documents.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Deepest scheduling level that ran.
    pub level: String,
    /// End-to-end single-image inference latency in cycles.
    pub latency_cycles: f64,
    /// Steady-state initiation interval for batch processing.
    pub steady_state_interval: f64,
    /// Peak instantaneous power (energy units per cycle).
    pub peak_power: f64,
    /// Maximum number of crossbars simultaneously active.
    pub peak_active_crossbars: u64,
    /// Total energy of one inference.
    pub energy_total: f64,
    /// Crossbar-activation component of the energy.
    pub energy_crossbar: f64,
    /// ADC component of the energy.
    pub energy_adc: f64,
    /// DAC component of the energy.
    pub energy_dac: f64,
    /// Data-movement component of the energy.
    pub energy_movement: f64,
    /// Digital-ALU component of the energy.
    pub energy_alu: f64,
    /// Number of compute-graph segments.
    pub segments: usize,
    /// Cycles spent reprogramming crossbars between segments/folds.
    pub reprogram_cycles: f64,
    /// Number of pipeline stages scheduled.
    pub stages: usize,
    /// MVM macro-operations issued per inference.
    pub mvm_ops: u64,
    /// Crossbar allocations summed over the final plans.
    pub crossbars_allocated: u64,
    /// Peak fraction of the chip's crossbars simultaneously active.
    pub utilization: f64,
}

impl From<&CompileMetrics> for JobMetrics {
    fn from(m: &CompileMetrics) -> Self {
        JobMetrics {
            level: m.level.to_owned(),
            latency_cycles: m.latency_cycles,
            steady_state_interval: m.steady_state_interval,
            peak_power: m.peak_power,
            peak_active_crossbars: m.peak_active_crossbars,
            energy_total: m.energy.total(),
            energy_crossbar: m.energy.crossbar,
            energy_adc: m.energy.adc,
            energy_dac: m.energy.dac,
            energy_movement: m.energy.movement,
            energy_alu: m.energy.alu,
            segments: m.segments,
            reprogram_cycles: m.reprogram_cycles,
            stages: m.stages,
            mvm_ops: m.mvm_ops,
            crossbars_allocated: m.crossbars_allocated,
            utilization: m.utilization,
        }
    }
}

impl Compiled {
    /// Summarizes this compilation against the architecture it was
    /// compiled for. `arch` only supplies chip totals (for utilization);
    /// passing a different architecture than the one given to
    /// [`crate::Compiler::compile`] yields meaningless ratios.
    #[must_use]
    pub fn metrics(&self, arch: &CimArchitecture) -> CompileMetrics {
        let report = self.report();
        let plans = self.final_plans();
        let mvm_ops = plans
            .iter()
            .map(|p| self.cg.stages[p.stage].mapping.mvm_count)
            .sum();
        let crossbars_allocated = plans
            .iter()
            .map(|p| {
                u64::from(self.cg.stages[p.stage].mapping.vxb_size()) * u64::from(p.duplication)
            })
            .sum();
        let total_crossbars = arch.total_crossbars();
        let utilization = if total_crossbars == 0 {
            0.0
        } else {
            report.peak_active_crossbars as f64 / total_crossbars as f64
        };
        CompileMetrics {
            level: report.level,
            latency_cycles: report.latency_cycles,
            steady_state_interval: self.steady_state_interval(),
            peak_power: report.peak_power,
            peak_active_crossbars: report.peak_active_crossbars,
            energy: report.energy,
            segments: report.segments,
            reprogram_cycles: report.reprogram_cycles,
            stages: self.cg.stages.len(),
            mvm_ops,
            crossbars_allocated,
            utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Compiler;
    use cim_arch::presets;
    use cim_graph::zoo;

    #[test]
    fn metrics_match_the_deepest_report() {
        let arch = presets::isaac_baseline();
        let c = Compiler::new().compile(&zoo::vgg7(), &arch).unwrap();
        let m = c.metrics(&arch);
        let r = c.report();
        assert_eq!(m.level, r.level);
        assert_eq!(m.latency_cycles, r.latency_cycles);
        assert_eq!(m.peak_active_crossbars, r.peak_active_crossbars);
        assert_eq!(m.segments, r.segments);
        assert_eq!(m.stages, c.cg.stages.len());
        assert!(m.mvm_ops > 0);
        assert!(m.crossbars_allocated > 0);
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);
        assert_eq!(m.steady_state_interval, c.steady_state_interval());
    }

    #[test]
    fn metrics_value_round_trip() {
        use serde::{Deserialize, Serialize};
        let arch = presets::isaac_baseline();
        let m = Compiler::new()
            .compile(&zoo::vgg7(), &arch)
            .unwrap()
            .metrics(&arch);
        let back = crate::CompileMetrics::from_value(&m.to_value()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn metrics_are_deterministic() {
        let arch = presets::jain_sram();
        let g = zoo::lenet5();
        let a = Compiler::new().compile(&g, &arch).unwrap().metrics(&arch);
        let b = Compiler::new().compile(&g, &arch).unwrap().metrics(&arch);
        assert_eq!(a, b);
    }
}
