//! Performance traces: phase-level latency/power series for a compiled
//! schedule.
//!
//! The figure harnesses plot these series (e.g. the peak-power bars of
//! Figures 20b and 21d). A phase corresponds to one compute-graph segment
//! in execution order, optionally separated by reprogramming phases
//! (crossbar writes between segments).

use cim_arch::{CimArchitecture, EnergyBreakdown};
use cim_compiler::cg::Segment;
use cim_compiler::perf::phase_power;
use cim_compiler::Compiled;

/// One phase of a schedule's execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Descriptive label (`"segment 0"`, `"reprogram"`).
    pub label: String,
    /// Phase duration in cycles.
    pub cycles: f64,
    /// Crossbars simultaneously active during the phase.
    pub active_crossbars: u64,
    /// Instantaneous power during the phase (energy units / cycle).
    pub power: f64,
    /// Power breakdown.
    pub breakdown: EnergyBreakdown,
}

/// Builds the execution trace of the deepest schedule level of
/// `compiled`.
#[must_use]
pub fn power_trace(compiled: &Compiled, arch: &CimArchitecture) -> Vec<Phase> {
    let segments = compiled.segments();
    let mut out = Vec::with_capacity(segments.len() * 2);
    let reprogram = compiled.cg.reprogram_cycles;
    for (i, (cycles, active, streaming)) in segments.iter().map(Segment::phase).enumerate() {
        if i > 0 && reprogram > 0.0 {
            // Between segments the chip reprograms: every crossbar writes,
            // no MVM activity. Write power is charged as crossbar energy.
            let writes = arch.total_crossbars();
            let e = arch
                .cost()
                .write_energy(arch.crossbar().parallel_row(), arch.crossbar().shape().cols);
            let breakdown = e.scale(writes as f64);
            out.push(Phase {
                label: "reprogram".to_owned(),
                cycles: reprogram,
                active_crossbars: writes,
                power: breakdown.total() / reprogram.max(1.0),
                breakdown,
            });
        }
        let (power, breakdown) = phase_power(arch, active, streaming);
        out.push(Phase {
            label: format!("segment {i}"),
            cycles,
            active_crossbars: active,
            power,
            breakdown,
        });
    }
    out
}

/// The peak power over a trace (matches the schedule report's peak for
/// compute phases).
#[must_use]
pub fn peak_power(trace: &[Phase]) -> f64 {
    trace.iter().map(|p| p.power).fold(0.0, f64::max)
}

/// Total latency over a trace.
#[must_use]
pub fn total_cycles(trace: &[Phase]) -> f64 {
    trace.iter().map(|p| p.cycles).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::presets;
    use cim_compiler::Compiler;
    use cim_graph::zoo;

    #[test]
    fn trace_covers_all_segments() {
        let arch = presets::isaac_baseline();
        let c = Compiler::new().compile(&zoo::vgg7(), &arch).unwrap();
        let trace = power_trace(&c, &arch);
        let compute_phases = trace
            .iter()
            .filter(|p| p.label.starts_with("segment"))
            .count();
        assert_eq!(compute_phases, c.report().segments);
        assert!(total_cycles(&trace) > 0.0);
    }

    #[test]
    fn segmented_schedule_inserts_reprogram_phases() {
        let arch = presets::jia_isscc21();
        let c = Compiler::new().compile(&zoo::vgg16(), &arch).unwrap();
        let trace = power_trace(&c, &arch);
        let reprograms = trace.iter().filter(|p| p.label == "reprogram").count();
        assert_eq!(reprograms, c.report().segments - 1);
    }

    #[test]
    fn peak_matches_report_for_single_segment() {
        let arch = presets::isaac_baseline();
        let c = Compiler::new().compile(&zoo::lenet5(), &arch).unwrap();
        let trace = power_trace(&c, &arch);
        assert!((peak_power(&trace) - c.report().peak_power).abs() < 1e-9);
    }
}
