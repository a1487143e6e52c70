//! VVM-grained optimization (paper §3.3.4, Figure 14).
//!
//! On WLM targets only `parallel_row` wordlines of a crossbar can fire per
//! cycle, so a full-depth MVM needs `⌈used_rows / parallel_row⌉`
//! sequential activation groups. The *data remapping* strategy spreads
//! wordlines that accumulate into the same output across different
//! crossbars: `k` crossbars each firing `parallel_row` rows complete the
//! same reduction in `⌈groups / k⌉` steps, with the partial sums merged by
//! the core ALU (shift-accumulate).
//!
//! Remapping consumes idle crossbars — each replica spreads over
//! `spread × v × h` physical crossbars, each 1/spread full — so the spread
//! factor is bounded by the crossbars left idle after MVM-grained
//! duplication.
//!
//! This level supplies the per-plan d×k search; memo lookups, chain
//! latency, the active-crossbar fold and the report are the shared segment
//! driver's ([`crate::level`]).

use crate::cg::{duplication_cap, stage_latency, CgSchedule, Segment, StagePlan};
use crate::inline::InlineVec;
use crate::level::{refine, standalone, Level, PlanOut, SchedContext};
use crate::mvm::MvmSchedule;
use crate::perf::PerfReport;
use crate::stage::movement_cycles;
use cim_arch::CimArchitecture;

/// The VVM-grained refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct VvmSchedule {
    /// Refined segments.
    pub segments: Vec<Segment>,
    /// Spread factor chosen per (segment, plan) — 1 means no remapping.
    pub spreads: Vec<PlanSpreads>,
    /// Summary report.
    pub report: PerfReport,
}

/// The spread factors of one segment's plans: up to four in place, more
/// on the heap.
pub type PlanSpreads = InlineVec<u32, 4>;

/// The spread factor available to one stage: how many copies of its
/// crossbar footprint fit in the cores it was assigned.
#[must_use]
pub fn spread_factor(
    assigned_cores: u32,
    xb_per_core: u32,
    vxb_size: u32,
    dup: u32,
    activation_groups: u32,
) -> u32 {
    if vxb_size == 0 || dup == 0 {
        return 1;
    }
    let slots = u64::from(assigned_cores) * u64::from(xb_per_core);
    let footprint = u64::from(dup) * u64::from(vxb_size);
    let k = (slots / footprint) as u32;
    k.clamp(1, activation_groups.max(1))
}

/// Runs VVM-grained optimization on top of an MVM schedule with a fresh
/// memo.
///
/// Only meaningful on WLM targets where `parallel_row < xb_rows`; on
/// full-parallel crossbars the spread factor is always 1 and the schedule
/// is returned unchanged (modulo the report level).
#[must_use]
pub fn schedule_vvm(
    cg: &CgSchedule,
    mvm: &MvmSchedule,
    arch: &CimArchitecture,
    act_bits: u32,
) -> VvmSchedule {
    standalone(arch, act_bits, |cx| schedule_vvm_in(cx, cg, mvm))
}

/// [`schedule_vvm`] in a session's [`SchedContext`] — the form the
/// [`crate::VvmPass`] calls. The shared segment driver ([`crate::level`])
/// answers unchanged segments (and their spread factors) of a
/// [`Session::recompile`](crate::Session::recompile) from `cx.memo` without
/// re-running the d×k sweep. This level supplies the per-plan search below.
#[must_use]
pub fn schedule_vvm_in(cx: &SchedContext<'_>, cg: &CgSchedule, mvm: &MvmSchedule) -> VvmSchedule {
    let (arch, act_bits) = (cx.arch, cx.act_bits);
    let xb_per_core = arch.core().xb_count();
    let per_plan = |plan: &StagePlan| -> PlanOut {
        let stage = &cg.stages[plan.stage];
        let groups = stage.mapping.activation_groups(arch);
        let vxb = stage.mapping.vxb_size();
        // Stage latency with spread `k`: activation groups shrink by `k`.
        // VVM remapping merges partial sums on the digital ALU (shift-
        // accumulate), so vertical crossbars no longer serialize even on
        // cores without analog S&A hardware: the `v` factor of
        // `OpMapping::cycles_per_mvm` disappears here.
        let mov = movement_cycles(stage, arch, act_bits);
        let latency = |d: u32, k: u32| -> f64 {
            let cpm = u64::from(arch.crossbar().input_slices(act_bits))
                * u64::from(groups.div_ceil(k.max(1)).max(1));
            stage_latency(stage, arch, mov, d, cpm, plan.folds)
        };
        // Choose the best split of the stage's crossbar slots between
        // extra replicas (duplication `d`) and row spreading (`k`):
        // latency ∝ ⌈groups/k⌉ / d with d·k·vxb ≤ slots. Pure Eq.-1
        // duplication (k = 1) and pure spreading are both special
        // cases; ceiling effects make mixed splits win by the modest
        // margins the paper reports (Figure 21c).
        let slots = u64::from(plan.cores) * u64::from(xb_per_core);
        let (mut best_d, mut best_k) = (plan.duplication.max(1), 1u32);
        let mut best_latency = latency(best_d, best_k);
        if plan.folds == 1 && vxb > 0 {
            let cpm = stage.mapping.cycles_per_mvm(arch, act_bits);
            let cap = duplication_cap(stage, arch, act_bits, cpm);
            let max_d = ((slots / u64::from(vxb)).clamp(1, u64::from(u32::MAX)) as u32).min(cap);
            for d in 1..=max_d {
                let k = spread_factor(plan.cores, xb_per_core, vxb, d, groups);
                let lat = latency(d, k);
                // Tie-break toward fewer replicas (more spreading):
                // equal throughput with half the weight copies to
                // program — and it is the Figure 16(e) layout.
                if lat < best_latency || (lat == best_latency && d < best_d) {
                    best_latency = lat;
                    best_d = d;
                    best_k = k;
                }
            }
        }
        // Remapped stages co-activate `spread` crossbars per vertical wave.
        let h_xbs = u64::from(stage.mapping.h_xbs);
        PlanOut {
            plan: StagePlan {
                duplication: best_d,
                latency: best_latency,
                ..*plan
            },
            // Figure 14's pipeline effect: remapping completes each output
            // accumulation in one activation wave instead of `groups`
            // serial ones, so the consumer's first inputs are ready one
            // granularity step earlier — the pipeline hand-off chunk
            // halves once more relative to the MVM-grained pipeline.
            fill: stage.fill_fraction / 4.0,
            active: if plan.folds > 1 {
                // One vertical wave of the resident fold tiles at a time.
                h_xbs
            } else {
                u64::from(best_d) * h_xbs * u64::from(best_k)
            },
            spread: best_k,
        }
    };
    let (segments, spreads, report) =
        refine(cx, Level::Vvm, "cg+mvm+vvm", cg, &mvm.segments, per_plan);
    VvmSchedule {
        segments,
        spreads,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{schedule_cg, CgOptions};
    use crate::mvm::{schedule_mvm, MvmOptions};
    use cim_arch::presets;
    use cim_graph::zoo;

    #[test]
    fn spread_factor_bounds() {
        // 4 idle-slot copies available but only 2 activation groups ->
        // spread capped at 2.
        assert_eq!(spread_factor(8, 2, 2, 2, 2), 2);
        // No slack -> 1.
        assert_eq!(spread_factor(1, 2, 2, 1, 16), 1);
        // Degenerate inputs.
        assert_eq!(spread_factor(1, 2, 0, 1, 4), 1);
        assert_eq!(spread_factor(1, 2, 2, 0, 4), 1);
    }

    #[test]
    fn figure14_example_spread() {
        // Figure 14: one op with a 2-group reduction spread over 2 VXBs
        // completes in one activation.
        // xb 32 rows, parallel_row 16 -> 2 groups; slack 2x -> spread 2.
        assert_eq!(spread_factor(2, 2, 1, 2, 2), 2);
    }

    #[test]
    fn vvm_never_slower_than_mvm() {
        let arch = presets::isaac_baseline_wlm();
        for g in [zoo::vgg7(), zoo::resnet50()] {
            let cg = schedule_cg(&g, &arch, CgOptions::full(), 8, 8).unwrap();
            let mvm = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
            let vvm = schedule_vvm(&cg, &mvm, &arch, 8);
            assert!(
                vvm.report.latency_cycles <= mvm.report.latency_cycles * 1.0001,
                "{}: vvm {} > mvm {}",
                g.name(),
                vvm.report.latency_cycles,
                mvm.report.latency_cycles
            );
        }
    }

    #[test]
    fn full_parallel_crossbars_get_no_spread() {
        // Jia's crossbars activate all rows at once; spread must be 1
        // everywhere.
        let arch = presets::jia_isscc21().with_mode(cim_arch::ComputingMode::Wlm);
        let cg = schedule_cg(&zoo::vgg7(), &arch, CgOptions::full(), 8, 8).unwrap();
        let mvm = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
        let vvm = schedule_vvm(&cg, &mvm, &arch, 8);
        for seg in &vvm.spreads {
            assert!(seg.iter().all(|&s| s == 1));
        }
    }

    #[test]
    fn jain_macro_benefits_from_remapping() {
        // Figure 20c: the WLM SRAM macro (parallel_row 32 of 256 rows)
        // gains from VVM remapping.
        let arch = presets::jain_sram();
        let g = zoo::vgg7();
        let cg = schedule_cg(&g, &arch, CgOptions::full(), 8, 8).unwrap();
        let mvm = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
        let vvm = schedule_vvm(&cg, &mvm, &arch, 8);
        assert!(
            vvm.report.latency_cycles < mvm.report.latency_cycles,
            "vvm {} >= mvm {}",
            vvm.report.latency_cycles,
            mvm.report.latency_cycles
        );
    }
}
