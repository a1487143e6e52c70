//! MVM-grained optimization (paper §3.3.3, Figure 12).
//!
//! Given the CG-grained schedule and the chip+core tier abstractions, this
//! level:
//!
//! * refines duplication with the paper's Equation 1 — the crossbars left
//!   idle in an operator's assigned cores host extra replicas:
//!   `D′ = ⌊ cores·D·Core_VXB / num_VXB ⌋`;
//! * introduces the *MVM-grained computing pipeline*: a crossbar activates
//!   as soon as its input chunk arrives instead of waiting for the whole
//!   VXB, so at any instant only one vertical wave of each replica is
//!   firing. This cuts the peak number of simultaneously active crossbars
//!   (peak power) and halves the per-stage communication granularity.
//!
//! Both are per-plan equations; everything around them — memo lookups,
//! chain latency, the active-crossbar fold and the report — is the shared
//! segment driver's ([`crate::level`]).

use crate::cg::{duplication_cap, stage_latency, CgSchedule, Segment, StagePlan};
use crate::level::{refine, standalone, Level, PlanOut, SchedContext};
use crate::perf::PerfReport;
use crate::stage::movement_cycles;
use cim_arch::CimArchitecture;

/// The MVM-grained refinement of a CG schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct MvmSchedule {
    /// Refined segments (same order as the CG schedule's).
    pub segments: Vec<Segment>,
    /// Whether the staggered-activation pipeline was applied.
    pub staggered: bool,
    /// Summary report.
    pub report: PerfReport,
}

/// Equation 1: refined duplication using idle crossbars of the assigned
/// cores.
#[must_use]
pub fn equation1_duplication(
    assigned_cores: u32,
    xb_per_core: u32,
    vxb_size: u32,
    cg_dup: u32,
) -> u32 {
    if vxb_size == 0 {
        return cg_dup.max(1);
    }
    let slots = u64::from(assigned_cores) * u64::from(xb_per_core);
    let refined = (slots / u64::from(vxb_size)) as u32;
    refined.max(cg_dup).max(1)
}

/// Options for MVM-grained optimization (Figure 21b/21d ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvmOptions {
    /// Apply Equation 1 duplication refinement.
    pub duplication: bool,
    /// Apply the staggered-activation pipeline (peak-power reduction and
    /// finer communication granularity).
    pub pipeline: bool,
}

impl MvmOptions {
    /// Both refinements on.
    #[must_use]
    pub fn full() -> Self {
        MvmOptions {
            duplication: true,
            pipeline: true,
        }
    }
}

/// Runs MVM-grained optimization on top of a CG schedule with a fresh
/// memo.
///
/// The CG schedule's per-segment structure is preserved; duplication
/// numbers, stage latencies and activation profiles are refined.
#[must_use]
pub fn schedule_mvm(
    cg: &CgSchedule,
    arch: &CimArchitecture,
    options: MvmOptions,
    act_bits: u32,
) -> MvmSchedule {
    standalone(arch, act_bits, |cx| schedule_mvm_in(cx, cg, options))
}

/// [`schedule_mvm`] in a session's [`SchedContext`] — the form the
/// [`crate::MvmPass`] calls. The shared segment driver ([`crate::level`])
/// answers unchanged segments of a
/// [`Session::recompile`](crate::Session::recompile) from `cx.memo`. This
/// level supplies the per-plan equations below.
#[must_use]
pub fn schedule_mvm_in(cx: &SchedContext<'_>, cg: &CgSchedule, options: MvmOptions) -> MvmSchedule {
    let (arch, act_bits) = (cx.arch, cx.act_bits);
    let xb_per_core = arch.core().xb_count();
    let chip_slots = arch.total_crossbars();
    let per_plan = |plan: &StagePlan| -> PlanOut {
        let stage = &cg.stages[plan.stage];
        let cpm = stage.mapping.cycles_per_mvm(arch, act_bits);
        let dup = if options.duplication && plan.folds == 1 {
            let refined = equation1_duplication(
                plan.cores,
                xb_per_core,
                stage.mapping.vxb_size(),
                plan.duplication,
            );
            // The refinement exploits idle crossbars; bandwidth and MVM
            // caps still apply.
            refined
                .min(duplication_cap(stage, arch, act_bits, cpm))
                .max(plan.duplication)
        } else {
            plan.duplication
        };
        // Active crossbars: with staggering only one vertical wave of each
        // replica fires at any cycle (`D′·h` per stage); without, the full
        // VXBs co-fire.
        let m = &stage.mapping;
        let active = if plan.folds > 1 {
            if options.pipeline {
                // Staggering applies within a fold pass too: one
                // vertical wave of the resident tile grid at a time.
                u64::from(m.h_xbs)
            } else {
                // Lockstep folding keeps the whole chip busy.
                chip_slots
            }
        } else if options.pipeline {
            u64::from(dup) * u64::from(m.h_xbs)
        } else {
            u64::from(dup) * u64::from(m.vxb_size())
        };
        PlanOut {
            plan: StagePlan {
                duplication: dup,
                latency: stage_latency(
                    stage,
                    arch,
                    movement_cycles(stage, arch, act_bits),
                    dup,
                    cpm,
                    plan.folds,
                ),
                ..*plan
            },
            // The MVM pipeline halves the input chunk each stage waits for
            // (Figure 12d: OP2's inputs are half the size of the
            // traditional pipeline's).
            fill: if options.pipeline {
                stage.fill_fraction / 2.0
            } else {
                stage.fill_fraction
            },
            active,
            spread: 1,
        }
    };
    let (segments, _, report) = refine(cx, Level::Mvm, "cg+mvm", cg, &cg.segments, per_plan);
    MvmSchedule {
        segments,
        staggered: options.pipeline,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{schedule_cg, CgOptions};
    use cim_arch::presets;
    use cim_graph::zoo;

    #[test]
    fn equation1_matches_paper_walkthrough() {
        // §3.4 MVM-grained: 2 cores × 2 crossbars, one VXB = 1 crossbar,
        // CG duplication 2 -> refined duplication 4.
        assert_eq!(equation1_duplication(2, 2, 1, 2), 4);
        // No idle crossbars -> unchanged.
        assert_eq!(equation1_duplication(1, 2, 2, 1), 1);
        // Never decreases below the CG number.
        assert_eq!(equation1_duplication(1, 2, 4, 3), 3);
        // Degenerate vxb.
        assert_eq!(equation1_duplication(1, 2, 0, 2), 2);
    }

    #[test]
    fn mvm_never_slower_than_cg() {
        let arch = presets::isaac_baseline();
        for g in [zoo::vgg7(), zoo::resnet50()] {
            let cg = schedule_cg(&g, &arch, CgOptions::full(), 8, 8).unwrap();
            let mvm = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
            assert!(
                mvm.report.latency_cycles <= cg.report.latency_cycles * 1.0001,
                "{}: mvm {} > cg {}",
                g.name(),
                mvm.report.latency_cycles,
                cg.report.latency_cycles
            );
        }
    }

    #[test]
    fn stagger_reduces_peak_power() {
        // Figure 21d: MVM-grained pipeline lowers the peak activated
        // crossbar count relative to CG-grained scheduling.
        let arch = presets::isaac_baseline();
        let g = zoo::resnet50();
        let cg = schedule_cg(&g, &arch, CgOptions::full(), 8, 8).unwrap();
        let staggered = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
        let lockstep = schedule_mvm(
            &cg,
            &arch,
            MvmOptions {
                duplication: true,
                pipeline: false,
            },
            8,
        );
        assert!(
            staggered.report.peak_power < lockstep.report.peak_power,
            "staggered {} >= lockstep {}",
            staggered.report.peak_power,
            lockstep.report.peak_power
        );
    }

    #[test]
    fn duplication_refinement_helps_resnet50() {
        // Figure 21b: CG+MVM duplication gives extra speedup.
        let arch = presets::isaac_baseline();
        let g = zoo::resnet50();
        let cg = schedule_cg(&g, &arch, CgOptions::full(), 8, 8).unwrap();
        let with_dup = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
        let without = schedule_mvm(
            &cg,
            &arch,
            MvmOptions {
                duplication: false,
                pipeline: true,
            },
            8,
        );
        assert!(with_dup.report.latency_cycles <= without.report.latency_cycles);
    }

    #[test]
    fn folded_stages_keep_their_plan() {
        // VGG16 fc1 on PUMA exceeds the chip; folds must survive MVM
        // refinement.
        let arch = presets::puma();
        let cg = schedule_cg(&zoo::vgg16(), &arch, CgOptions::full(), 8, 8).unwrap();
        let mvm = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
        let has_fold = mvm
            .segments
            .iter()
            .flat_map(|s| &s.plans)
            .any(|p| p.folds > 1);
        assert!(has_fold);
    }
}
