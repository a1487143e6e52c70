//! The segment driver shared by the three scheduling levels.
//!
//! CIM-MLC refines one schedule level by level — [`crate::cg`] →
//! [`crate::mvm`] → [`crate::vvm`] — and every level does the same work
//! around its own equations. That common work lives here, once:
//!
//! * `drive` maps a per-segment function over a level's input segments,
//!   in order, answering each segment from the session's [`RegionMemo`]
//!   when its region-id run was scheduled before and storing it otherwise;
//! * `chain_latency` and `active_crossbars` turn per-plan latencies and
//!   activation counts into a segment's latency (pipelined or serial) and
//!   steady-state active crossbars (sum or max);
//! * `refine` is the whole of a refinement level (MVM, VVM) given its
//!   per-plan equation;
//! * [`fold_report`] folds per-segment totals and the peak-power phase, in
//!   execution order, into the level's [`PerfReport`].
//!
//! # What a level must supply
//!
//! A refinement level supplies one pure function from a [`StagePlan`] of
//! the level above to a `PlanOut`: the refined plan, the pipeline fill
//! fraction its consumer waits for, the crossbars it keeps active and its
//! wordline spread. The CG level, which creates segments rather than
//! refining them, supplies a function from a stage range to a [`Segment`]
//! and calls `drive` and [`fold_report`] itself.

use crate::cg::{CgSchedule, Segment, StagePlan};
use crate::perf::{phase_power, PerfReport};
use crate::region::RegionMemo;
use crate::scratch::ScratchArena;
use crate::vvm::PlanSpreads;
use cim_arch::{CimArchitecture, EnergyBreakdown};
use std::ops::Range;

/// The scheduling level a memoized segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    /// Core-grained (§3.3.2).
    Cg,
    /// Crossbar/MVM-grained (§3.3.3).
    Mvm,
    /// Wordline/VVM-grained (§3.3.4).
    Vvm,
}

/// The session-scoped inputs every scheduling level reads — what the
/// `schedule_*_in` entry points take besides the schedule above them.
/// A [`crate::Pass`] builds one with [`crate::PassContext::sched`].
#[derive(Debug, Clone, Copy)]
pub struct SchedContext<'a> {
    /// The target architecture.
    pub arch: &'a CimArchitecture,
    /// Activation precision in bits.
    pub act_bits: u32,
    /// Pooled scratch buffers (see [`crate::scratch`]).
    pub scratch: &'a ScratchArena,
    /// Per-region schedule memo (see [`crate::region`]).
    pub memo: &'a RegionMemo,
}

/// Runs `run` with a context over a fresh arena and memo — the body of
/// the plain `schedule_cg` / `schedule_mvm` / `schedule_vvm`.
pub(crate) fn standalone<T>(
    arch: &CimArchitecture,
    act_bits: u32,
    run: impl FnOnce(&SchedContext<'_>) -> T,
) -> T {
    run(&SchedContext {
        arch,
        act_bits,
        scratch: &ScratchArena::new(),
        memo: &RegionMemo::new(),
    })
}

/// A segment at some level plus its per-plan spread factors (all 1 at the
/// MVM level; empty at the CG level).
pub(crate) type Scheduled = (Segment, PlanSpreads);

/// One plan of a refinement level: what [`refine`] assembles segments from.
pub(crate) struct PlanOut {
    /// The refined plan.
    pub plan: StagePlan,
    /// Fraction of the stage its consumer waits for before starting.
    pub fill: f64,
    /// Crossbars the stage keeps active in steady state.
    pub active: u64,
    /// Wordline spread factor (1 = no remapping).
    pub spread: u32,
}

/// Stage range a segment's (contiguous) plans cover.
fn span(seg: &Segment) -> Range<usize> {
    let start = seg.plans.first().map_or(0, |p| p.stage);
    start..start + seg.plans.len()
}

/// Maps `schedule` over `inputs` in order, through the memo: an input whose
/// region-id run `ids[range_of(input)]` was scheduled at `level` before is
/// answered from [`RegionMemo`] (rebased onto its position), the rest are
/// scheduled and stored.
pub(crate) fn drive<I>(
    cx: &SchedContext<'_>,
    level: Level,
    ids: &[u32],
    inputs: &[I],
    range_of: impl Fn(&I) -> Range<usize>,
    schedule: impl Fn(&I) -> Scheduled,
) -> Vec<Scheduled> {
    inputs
        .iter()
        .map(|input| {
            let range = range_of(input);
            let (start, key) = (range.start, &ids[range]);
            cx.memo.segment(level, key, start).unwrap_or_else(|| {
                let scheduled = schedule(input);
                cx.memo.store_segment(level, key, start, &scheduled);
                scheduled
            })
        })
        .collect()
}

/// Pipelined latency of a chain of stages with fill fractions.
///
/// Stage `i` starts once every predecessor has produced the fraction its
/// consumer needs: `start_i = Σ_{j<i} fill_j · L_j`; the chain completes
/// at `max_i (start_i + L_i)`. This is never worse than the serial sum
/// (`fill ≤ 1`), degrades gracefully to it when every stage blocks
/// (`fill = 1`), and is monotone in the per-stage latencies.
pub(crate) fn pipeline_latency(lat_fill: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let mut start = 0.0_f64;
    let mut completion = 0.0_f64;
    for (latency, fill) in lat_fill {
        completion = completion.max(start + latency);
        start += latency * fill.clamp(0.0, 1.0);
    }
    completion
}

/// Latency of a segment from its stages' `(latency, fill)` pairs: the
/// pipelined chain when the inter-operator pipeline is on, the serial sum
/// otherwise.
pub(crate) fn chain_latency(
    lat_fill: impl IntoIterator<Item = (f64, f64)>,
    pipelined: bool,
) -> f64 {
    if pipelined {
        pipeline_latency(lat_fill)
    } else {
        lat_fill.into_iter().map(|(l, _)| l).sum()
    }
}

/// Steady-state active crossbars of a segment from its stages' counts: all
/// stages fire concurrently when pipelined, one (the widest) otherwise;
/// never more than the chip holds.
pub(crate) fn active_crossbars(
    per_plan: impl Iterator<Item = u64>,
    pipelined: bool,
    chip_slots: u64,
) -> u64 {
    let capped = per_plan.map(|a| a.min(chip_slots));
    if pipelined {
        capped.sum::<u64>().min(chip_slots)
    } else {
        capped.max().unwrap_or(0)
    }
}

/// A whole refinement level: refines every segment of `above` plan by plan
/// with `per_plan`, keeping the CG schedule's segment structure, streaming
/// rates, reprogramming and energy (a refinement reorders activations; the
/// work is unchanged). Returns the refined segments, their per-plan spread
/// factors and the level's report.
pub(crate) fn refine(
    cx: &SchedContext<'_>,
    level: Level,
    name: &'static str,
    cg: &CgSchedule,
    above: &[Segment],
    per_plan: impl Fn(&StagePlan) -> PlanOut,
) -> (Vec<Segment>, Vec<PlanSpreads>, PerfReport) {
    let ids = cx.memo.intern_stages(&cg.stages);
    let chip_slots = cx.arch.total_crossbars();
    let scheduled = drive(cx, level, &ids, above, span, |seg| {
        let outs: Vec<PlanOut> = seg.plans.iter().map(&per_plan).collect();
        let spreads = outs.iter().map(|o| o.spread).collect();
        let lat_fill = outs.iter().map(|o| (o.plan.latency, o.fill));
        let refined = Segment {
            latency: chain_latency(lat_fill, cg.options.pipeline),
            active_crossbars: active_crossbars(
                outs.iter().map(|o| o.active),
                cg.options.pipeline,
                chip_slots,
            ),
            streaming_bits_per_cycle: seg.streaming_bits_per_cycle,
            plans: outs.into_iter().map(|o| o.plan).collect(),
        };
        (refined, spreads)
    });
    let (segments, spreads): (Vec<Segment>, Vec<PlanSpreads>) = scheduled.into_iter().unzip();
    let report = fold_report(
        name,
        cx.arch,
        segments.iter().map(Segment::phase),
        cg.report.reprogram_cycles,
        cg.report.energy,
    );
    (segments, spreads, report)
}

/// Folds per-segment `(latency, active crossbars, streaming bits/cycle)`
/// phases, in execution order, into a level's report: latencies add up
/// (plus `reprogram_cycles`), and the first phase with the highest
/// instantaneous power sets the peak.
#[must_use]
pub fn fold_report(
    level: &'static str,
    arch: &CimArchitecture,
    phases: impl IntoIterator<Item = (f64, u64, f64)>,
    reprogram_cycles: f64,
    energy: EnergyBreakdown,
) -> PerfReport {
    let mut report = PerfReport {
        level,
        latency_cycles: 0.0,
        peak_active_crossbars: 0,
        peak_power: 0.0,
        peak_breakdown: EnergyBreakdown::default(),
        energy,
        segments: 0,
        reprogram_cycles,
    };
    for (latency, active, streaming) in phases {
        let (power, breakdown) = phase_power(arch, active, streaming);
        if power > report.peak_power {
            report.peak_power = power;
            report.peak_active_crossbars = active;
            report.peak_breakdown = breakdown;
        }
        report.latency_cycles += latency;
        report.segments += 1;
    }
    report.latency_cycles += reprogram_cycles;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_latency_formula() {
        // Single stage: just its latency.
        assert_eq!(pipeline_latency([(100.0, 0.5)]), 100.0);
        // Two stages: the second starts after the first's fill (at 10)
        // and finishes at 90, but the first itself runs until 100.
        let l = pipeline_latency([(100.0, 0.1), (80.0, 1.0)]);
        assert!((l - 100.0).abs() < 1e-9, "{l}");
        // An early bottleneck is not double-counted: [10, 1] with a large
        // fill completes at 10 (stage 2 finishes within stage 1's span
        // plus epsilon), never above the serial sum.
        let l = pipeline_latency([(10.0, 0.9), (1.0, 1.0)]);
        assert!((l - 10.0).abs() < 1e-9, "{l}");
        // Blocking fills reproduce serial execution.
        let serial = pipeline_latency([(5.0, 1.0), (7.0, 1.0), (3.0, 1.0)]);
        assert!((serial - 15.0).abs() < 1e-9, "{serial}");
        assert_eq!(pipeline_latency([]), 0.0);
    }

    #[test]
    fn pipeline_never_exceeds_serial_sum() {
        let chains = [
            vec![(100.0, 0.1), (50.0, 0.3), (200.0, 1.0), (10.0, 0.5)],
            vec![(1.0, 0.9); 20],
            vec![(1000.0, 0.05), (1.0, 1.0)],
        ];
        for chain in chains {
            let serial: f64 = chain.iter().map(|&(l, _)| l).sum();
            let pipe = pipeline_latency(chain.iter().copied());
            assert!(pipe <= serial + 1e-9, "pipe {pipe} > serial {serial}");
        }
    }

    #[test]
    fn fold_report_sums_latency_and_keeps_the_first_highest_phase() {
        let arch = cim_arch::presets::isaac_baseline();
        let phases = [
            (100.0, 4, 0.0),
            (50.0, 9, 0.0),
            (25.0, 9, 0.0),
            (10.0, 2, 0.0),
        ];
        let report = fold_report("cg", &arch, phases, 7.0, EnergyBreakdown::default());
        assert_eq!(report.latency_cycles, 192.0);
        assert_eq!((report.segments, report.reprogram_cycles), (4, 7.0));
        assert_eq!(report.peak_active_crossbars, 9);
        assert_eq!(report.peak_power, phase_power(&arch, 9, 0.0).0);
        let empty = fold_report("cg", &arch, [], 0.0, EnergyBreakdown::default());
        assert_eq!(
            (empty.latency_cycles, empty.peak_power, empty.segments),
            (0.0, 0.0, 0)
        );
    }

    #[test]
    fn chain_latency_is_pipelined_or_the_serial_sum() {
        let chain = [(100.0, 0.1), (80.0, 1.0), (5.0, 0.5)];
        assert_eq!(chain_latency(chain, true), pipeline_latency(chain));
        assert_eq!(chain_latency(chain, false), 185.0);
    }

    #[test]
    fn active_crossbars_sum_when_pipelined_and_peak_otherwise() {
        let per_plan = [4u64, 10, 6];
        assert_eq!(active_crossbars(per_plan.into_iter(), true, 64), 20);
        assert_eq!(active_crossbars(per_plan.into_iter(), false, 64), 10);
        // Never more than the chip holds, per stage or in total.
        assert_eq!(active_crossbars(per_plan.into_iter(), true, 16), 16);
        assert_eq!(active_crossbars(per_plan.into_iter(), false, 8), 8);
        assert_eq!(active_crossbars(std::iter::empty(), false, 8), 0);
    }
}
