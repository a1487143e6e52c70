//! CG-grained optimization (paper §3.3.2, Figure 9).
//!
//! Operating purely on the computation graph and the chip-tier abstraction,
//! this level decides:
//!
//! * **segmentation** — when the model's weights exceed the chip's CIM
//!   capacity, split the (topologically ordered) operator list into
//!   maximal segments that fit, executed serially with crossbar
//!   reprogramming in between;
//! * **duplication** — assign each operator a duplication number under the
//!   `core_number` budget (and bandwidth/MVM caps) via the resource
//!   allocator of [`crate::alloc`];
//! * **pipeline** — overlap adjacent operators at feature-map-row
//!   granularity; a stage starts once its producer has emitted the rows
//!   its first window needs.
//!
//! What this level supplies to the shared segment driver ([`crate::level`]):
//! the segmentation DP, and one `SegmentEvaluator::evaluate` that
//! duplicates and prices a candidate segment — the DP's cost probe and the
//! schedule of the segments it chooses are the same function, so the
//! estimate cannot drift from the real segment. Memo lookups, chain
//! latency, active crossbars and the report are the driver's.

use crate::alloc::{self, tie_kinds, AllocItem, BottleneckSweep, KindDups};
use crate::inline::InlineVec;
use crate::level::{
    active_crossbars, chain_latency, drive, fold_report, standalone, Level, SchedContext,
};
use crate::perf::PerfReport;
use crate::stage::{extract_stages, movement_cycles, Stage};
use crate::{CompileError, Result};
use cim_arch::CimArchitecture;
use std::ops::Range;
use std::sync::Arc;

/// Feature toggles for CG-grained optimization (used standalone for the
/// Figure 21a ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CgOptions {
    /// Enable the inter-operator pipeline.
    pub pipeline: bool,
    /// Enable operator duplication.
    pub duplication: bool,
}

impl CgOptions {
    /// Pipeline + duplication (the paper's CG-P&D).
    #[must_use]
    pub fn full() -> Self {
        CgOptions {
            pipeline: true,
            duplication: true,
        }
    }

    /// Neither optimization: the sequential, single-replica schedule the
    /// paper calls "w/o optimization".
    #[must_use]
    pub fn none() -> Self {
        CgOptions {
            pipeline: false,
            duplication: false,
        }
    }
}

/// Scheduling decisions for one stage within a segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePlan {
    /// Index into the global stage list.
    pub stage: usize,
    /// CG-grained duplication number (`D_i`).
    pub duplication: u32,
    /// Cores consumed (`D_i · cores_per_replica`, capped at the chip).
    pub cores: u32,
    /// Intra-operator folds: >1 when even one replica exceeds the chip and
    /// the operator must be processed in passes with reprogramming.
    pub folds: u32,
    /// Stage latency in cycles under this plan (compute ∥ movement ∥ ALU).
    pub latency: f64,
}

/// The plans of one segment: one in place (most segments hold one
/// stage), more on the heap.
pub type SegmentPlans = InlineVec<StagePlan, 1>;

/// One compute-graph segment: a run of stages that fits on the chip
/// simultaneously.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Plans for the stages of this segment, in topological order.
    pub plans: SegmentPlans,
    /// Segment latency (pipelined or serial, per the options).
    pub latency: f64,
    /// Crossbars simultaneously active in the segment's steady state.
    pub active_crossbars: u64,
    /// Bits per cycle streamed while the segment runs.
    pub streaming_bits_per_cycle: f64,
}

impl Segment {
    /// The segment as one phase of [`fold_report`]: `(latency, active
    /// crossbars, streaming bits per cycle)`.
    #[must_use]
    pub fn phase(&self) -> (f64, u64, f64) {
        (
            self.latency,
            self.active_crossbars,
            self.streaming_bits_per_cycle,
        )
    }
}

/// The CG-grained schedule of a whole model.
#[derive(Debug, Clone, PartialEq)]
pub struct CgSchedule {
    /// All pipeline stages of the model, in topological order.
    pub stages: Vec<Stage>,
    /// The segments, in execution order.
    pub segments: Vec<Segment>,
    /// Cycles to reprogram the chip's crossbars once (between segments or
    /// folds; all crossbars program in parallel, rows serially).
    pub reprogram_cycles: f64,
    /// Options used.
    pub options: CgOptions,
    /// Summary report.
    pub report: PerfReport,
}

/// Latency of one stage given its duplication, including movement overlap
/// and attached-ALU work. Movement and ALU run concurrently with compute;
/// the stage is as slow as its slowest resource (the paper's assumption
/// that transfers hide under compute when bandwidth suffices, §4.1).
/// `cycles_per_mvm` is the level's own: the mapping's at the CG and MVM
/// levels, the remapped one at the VVM level. `mov` is the stage's
/// [`movement_cycles`], which no duplication changes. The CG level's DP
/// prices from per-stage tables through the same [`PriceTerms::latency`].
pub(crate) fn stage_latency(
    stage: &Stage,
    arch: &CimArchitecture,
    mov: f64,
    dup: u32,
    cycles_per_mvm: u64,
    folds: u32,
) -> f64 {
    PriceTerms::of(stage, arch, mov).latency(
        compute_cycles(stage, cycles_per_mvm) as f64,
        stage.mapping.cores_per_replica(arch),
        dup,
        f64::from(folds.max(1)),
        alu_rate(arch),
        u64::from(arch.chip().core_count()),
    )
}

/// One replica's single-pass compute cycles: the stage's MVM count times
/// the level's cycles per MVM. The allocator's [`AllocItem::latency`].
fn compute_cycles(stage: &Stage, cycles_per_mvm: u64) -> u64 {
    stage.mapping.mvm_count.saturating_mul(cycles_per_mvm)
}

/// The chip's ALU operations per cycle per core, as a float.
fn alu_rate(arch: &CimArchitecture) -> Option<f64> {
    arch.chip().alu_ops_per_cycle().map(|rate| rate as f64)
}

/// The duplication-independent terms of one stage's latency besides its
/// compute time and cores per replica.
#[derive(Debug, Clone, Copy)]
struct PriceTerms {
    /// [`movement_cycles`] of the stage.
    mov: f64,
    /// The stage's ALU operations.
    alu_ops: f64,
    /// The stage's pipeline fill fraction.
    fill: f64,
    /// Cycles to rewrite a dynamic `MatMul`'s crossbars before each
    /// inference; 0 for static weights.
    write: f64,
}

impl PriceTerms {
    fn of(stage: &Stage, arch: &CimArchitecture, mov: f64) -> Self {
        let write = if stage.dynamic_weights {
            let rows = stage.mapping.rows.min(arch.crossbar().shape().rows);
            arch.cost().write_cycles(rows) as f64
        } else {
            0.0
        };
        PriceTerms {
            mov,
            alu_ops: stage.alu_ops as f64,
            fill: stage.fill_fraction,
            write,
        }
    }

    /// The stage's latency at `d` replicas of `cost` cores each, run in
    /// `folds` passes: the slowest of compute (`compute` is one replica's
    /// single-pass compute cycles), movement and the ALU work spread over
    /// the cores in use, then the crossbar rewrite of a dynamic `MatMul`,
    /// which must finish before compute starts.
    #[inline]
    fn latency(
        &self,
        compute: f64,
        cost: u32,
        d: u32,
        folds: f64,
        alu_rate: Option<f64>,
        core_count: u64,
    ) -> f64 {
        let d = d.max(1);
        let compute = compute / f64::from(d) * folds;
        let alu = alu_rate.map_or(0.0, |rate| {
            let cores = u64::from(d * cost).min(core_count).max(1);
            self.alu_ops / (rate * cores as f64)
        });
        compute.max(self.mov).max(alu) + self.write
    }
}

/// Bandwidth-derived duplication cap: duplicating beyond the point where
/// compute time falls under movement time wastes cores.
fn bandwidth_cap(stage: &Stage, arch: &CimArchitecture, act_bits: u32, cycles_per_mvm: u64) -> u32 {
    let mov = movement_cycles(stage, arch, act_bits);
    if mov <= 0.0 {
        return u32::MAX;
    }
    let compute1 = compute_cycles(stage, cycles_per_mvm) as f64;
    ((compute1 / mov).ceil() as u64).clamp(1, u64::from(u32::MAX)) as u32
}

/// Full duplication cap for a stage.
pub(crate) fn duplication_cap(
    stage: &Stage,
    arch: &CimArchitecture,
    act_bits: u32,
    cycles_per_mvm: u64,
) -> u32 {
    let mvm_cap = stage.mapping.mvm_count.clamp(1, u64::from(u32::MAX)) as u32;
    mvm_cap.min(bandwidth_cap(stage, arch, act_bits, cycles_per_mvm))
}

/// Runs CG-grained scheduling on a graph: stage extraction followed by
/// [`schedule_cg_in`] with a fresh arena and memo.
///
/// # Errors
/// Returns [`CompileError::NothingToMap`] for graphs without CIM operators
/// and [`CompileError::DynamicWeightsUnsupported`] when a dynamic `MatMul`
/// targets a write-expensive device.
pub fn schedule_cg(
    graph: &cim_graph::Graph,
    arch: &CimArchitecture,
    options: CgOptions,
    weight_bits: u32,
    act_bits: u32,
) -> Result<CgSchedule> {
    let stages = extract_stages(graph, arch, weight_bits);
    standalone(arch, act_bits, |cx| {
        schedule_cg_in(cx, graph.name(), stages, options)
    })
}

/// Runs CG-grained scheduling on pre-extracted stages in a session's
/// [`SchedContext`] — the form the [`crate::CgPass`] calls, which lets a
/// [`crate::Pass`] inspect or rewrite the stage list between extraction
/// and scheduling. `model` only labels errors.
///
/// Candidate-segment latencies and
/// chosen-segment schedules are keyed by the region-id runs they cover, so
/// a memo retained across [`Session::recompile`](crate::Session::recompile)
/// calls answers unchanged segments without rescheduling them.
///
/// # Errors
/// Returns [`CompileError::NothingToMap`] when `stages` is empty and
/// [`CompileError::DynamicWeightsUnsupported`] when a dynamic `MatMul`
/// targets a write-expensive device.
pub fn schedule_cg_in(
    cx: &SchedContext<'_>,
    model: &str,
    stages: Vec<Stage>,
    options: CgOptions,
) -> Result<CgSchedule> {
    let arch = cx.arch;
    if stages.is_empty() {
        return Err(CompileError::NothingToMap {
            model: model.to_owned(),
        });
    }
    for stage in &stages {
        if stage.dynamic_weights && !arch.crossbar().cell_type().writes_are_cheap() {
            // Permitted but costly — the paper's ReRAM designs "ford write
            // operations"; we allow it and charge the write latency, but
            // flag the combination when it would dominate: only reject if
            // writes are three orders slower than a read.
            if arch.crossbar().cell_type().write_read_latency_ratio() >= 512 {
                return Err(CompileError::DynamicWeightsUnsupported {
                    node: stage.name.to_string(),
                    device: arch.crossbar().cell_type().name(),
                });
            }
        }
    }
    let reprogram_cycles = arch.cost().write_cycles(arch.crossbar().shape().rows) as f64;

    let evaluator = SegmentEvaluator::new(cx, &stages, options);
    let ranges = evaluator.segmentation(reprogram_cycles);
    let scheduled = drive(
        cx,
        Level::Cg,
        &evaluator.ids,
        &ranges,
        Clone::clone,
        |range| (evaluator.schedule(range.clone()), InlineVec::new()),
    );
    let segments: Vec<Segment> = scheduled.into_iter().map(|(seg, _)| seg).collect();

    // The chip reprograms before every segment but the first (the first
    // programming of a frozen-weight device is offline: weights are
    // pre-loaded) and before every fold pass but a stage's first.
    let reprogram_events = if reprogram_cycles > 0.0 {
        let plans = segments.iter().flat_map(|seg| &seg.plans);
        segments.len() as u64 - 1 + plans.map(|p| u64::from(p.folds - 1)).sum::<u64>()
    } else {
        0
    };
    let report = fold_report(
        match (options.pipeline, options.duplication) {
            (false, false) => "no-opt",
            (true, false) => "cg-pipeline",
            (false, true) => "cg-duplication",
            (true, true) => "cg",
        },
        arch,
        segments.iter().map(Segment::phase),
        reprogram_events as f64 * reprogram_cycles,
        crate::perf::model_energy(&stages, arch, cx.act_bits, reprogram_events),
    );
    Ok(CgSchedule {
        stages,
        segments,
        reprogram_cycles,
        options,
        report,
    })
}

/// Prices and schedules candidate segments — contiguous stage ranges — of
/// one stage list. The segmentation DP's cost probe and the schedule of
/// the segments it chooses are the same [`SegmentEvaluator::evaluate`].
struct SegmentEvaluator<'a> {
    cx: &'a SchedContext<'a>,
    stages: &'a [Stage],
    options: CgOptions,
    core_count: u64,
    /// Region id of every stage. DNNs repeat blocks, so many of the DP's
    /// O(n²) contiguous ranges contain *identical* per-stage content
    /// sequences (a ViT body repeats with period 6, a ResNet with its
    /// block size) and therefore evaluate to bit-identical latencies. A
    /// candidate segment is keyed by its id slice, and equal keys imply
    /// equal inputs — a memo hit returns exactly what the evaluation would
    /// have computed. The same ids key the chosen segments, which is what
    /// lets a memo retained across recompiles splice cached schedules for
    /// unedited regions.
    ids: Vec<u32>,
    /// Per-stage cores one replica needs and allocator item: every
    /// candidate is a contiguous stage range, so its allocator input is a
    /// slice of `items`.
    needs: Vec<u64>,
    items: Vec<AllocItem>,
    /// The [`tie_kinds`] of `items`, so the leftover spend of every
    /// candidate groups its stages without comparing items.
    kinds: Vec<u32>,
    /// What [`Self::price`] reads of each stage besides its item.
    terms: Vec<PriceTerms>,
    /// The chip's ALU operations per cycle per core, as a float.
    alu_rate: Option<f64>,
}

impl<'a> SegmentEvaluator<'a> {
    fn new(cx: &'a SchedContext<'a>, stages: &'a [Stage], options: CgOptions) -> Self {
        let (arch, act_bits) = (cx.arch, cx.act_bits);
        let ids = cx.memo.intern_stages(stages);
        let n = stages.len();
        let mut needs = Vec::with_capacity(n);
        let mut terms = Vec::with_capacity(n);
        let mut items = Vec::with_capacity(n);
        for stage in stages {
            let cpm = stage.mapping.cycles_per_mvm(arch, act_bits);
            let cost = stage.mapping.cores_per_replica(arch);
            needs.push(u64::from(cost));
            items.push(AllocItem {
                cost,
                latency: compute_cycles(stage, cpm),
                max_dup: duplication_cap(stage, arch, act_bits, cpm),
            });
            let mov = movement_cycles(stage, arch, act_bits);
            terms.push(PriceTerms::of(stage, arch, mov));
        }
        SegmentEvaluator {
            cx,
            stages,
            options,
            core_count: u64::from(arch.chip().core_count()),
            ids,
            needs,
            kinds: tie_kinds(&items),
            items,
            terms,
            alu_rate: alu_rate(arch),
        }
    }

    /// Passes the stages of `range` run in: more than 1 only for a lone
    /// stage whose single replica exceeds the chip, which is processed in
    /// passes with reprogramming in between.
    fn folds(&self, range: &Range<usize>) -> u32 {
        if range.len() == 1 {
            self.needs[range.start].div_ceil(self.core_count).max(1) as u32
        } else {
            1
        }
    }

    /// Duplicates the stages of the candidate segment `range` under the
    /// core budget and returns the segment's latency, leaving the
    /// duplication numbers in `dup` and the per-stage `(latency, fill)`
    /// pairs in `lat_fill` — caller-leased scratch, so the DP's O(n²)
    /// evaluations allocate nothing.
    fn evaluate(
        &self,
        range: Range<usize>,
        dup: &mut Vec<u32>,
        lat_fill: &mut Vec<(f64, f64)>,
    ) -> f64 {
        self.allocate(range.clone(), dup);
        self.price(range, dup.iter().copied(), lat_fill)
    }

    /// The duplication numbers of the stages of `range`, into `dup`.
    fn allocate(&self, range: Range<usize>, dup: &mut Vec<u32>) {
        let items = &self.items[range.clone()];
        if !self.options.duplication {
            dup.clear();
            dup.resize(items.len(), 1);
        } else if self.options.pipeline {
            let mut spend = self.cx.scratch.u32_array(items.len());
            let kinds = &self.kinds[range];
            alloc::minimize_bottleneck_of_kinds(items, kinds, self.core_count, dup, &mut spend);
        } else {
            alloc::minimize_total(items, self.core_count, dup);
        }
    }

    /// The latency of the candidate segment `range` with the duplication
    /// numbers `dup`, one per stage, leaving the per-stage
    /// `(latency, fill)` pairs in `lat_fill`.
    ///
    /// Each stage's latency is [`PriceTerms::latency`], as in
    /// [`stage_latency`], with its inputs read from the per-stage tables:
    /// `item.latency` is the stage's MVM count times its cycles per MVM,
    /// and `item.cost` its cores per replica.
    ///
    /// [`Self::evaluate`] and [`Self::schedule`] price through here, and
    /// so does the DP's lone-stage candidate, which may fold; the DP's
    /// longer candidates reuse their stages' latencies in
    /// [`Self::price_cached`] instead.
    fn price(
        &self,
        range: Range<usize>,
        dup: impl IntoIterator<Item = u32>,
        lat_fill: &mut Vec<(f64, f64)>,
    ) -> f64 {
        let folds = f64::from(self.folds(&range));
        lat_fill.clear();
        let stages = self.items[range.clone()].iter().zip(&self.terms[range]);
        for ((item, terms), d) in stages.zip(dup) {
            let latency = terms.latency(
                item.latency as f64,
                item.cost,
                d,
                folds,
                self.alu_rate,
                self.core_count,
            );
            lat_fill.push((latency, terms.fill));
        }
        chain_latency(lat_fill.iter().copied(), self.options.pipeline)
    }

    /// Row `i` of the segmentation DP: the latencies of every
    /// budget-feasible candidate segment starting at stage `i` (`[i..=i]`,
    /// `[i..=i+1]`, … until the core budget runs out; a single over-weight
    /// stage stands alone).
    ///
    /// A row the row memo does not hold takes two more trips to the
    /// region memo: one walk that interns its candidates' region-id runs
    /// and reads their cached costs, and one store of every cost after
    /// the misses are priced. With the pipeline and duplication on,
    /// [`Self::price_swept`] prices the misses; otherwise each is
    /// [`Self::evaluate`]d on its own. Either way every candidate costs
    /// exactly what `evaluate` returns for it, bit for bit.
    fn row(&self, i: usize) -> Arc<[f64]> {
        let (cx, needs, core_count) = (self.cx, &self.needs, self.core_count);
        // The row's budget window is content-determined (`needs` come
        // from stage content), so the whole row is keyed by the
        // region-id run it covers: on recompile, one memo probe
        // answers every candidate of a row outside the edit's window.
        let mut cores: u64 = 0;
        let mut window_end = i;
        for &need in &needs[i..] {
            if cores + need > core_count {
                break;
            }
            cores += need;
            window_end += 1;
        }
        let window_end = window_end.max(i + 1);
        let window = &self.ids[i..window_end];
        if let Some(hit) = cx.memo.row(window) {
            return hit;
        }
        // Leased at the DP table's length, so every later row and the
        // table itself reuse these buffers instead of growing them.
        let cap = self.stages.len() + 1;
        // The candidates are the window's prefixes: one trie walk names
        // each one's region-id run and reads its memoized cost.
        let (mut runs, mut costs) = (cx.scratch.u32s(cap), cx.scratch.f64s(cap));
        cx.memo.prefix_runs(window, &mut runs, &mut costs);
        // The DP's work: the candidates the memo could not answer (NaN),
        // which are priced below.
        let priced = costs.iter().filter(|cost| cost.is_nan()).count();
        cim_obs::count("compile.cg.priced", priced as u64);
        let mut lat_fill = cx.scratch.pairs(cap);
        let stage_prices = if self.options.pipeline && self.options.duplication {
            self.price_swept(i..window_end, &mut costs, &mut lat_fill)
        } else {
            let mut dup = cx.scratch.u32s(cap);
            let mut stage_prices = 0;
            for (k, cost) in costs.iter_mut().enumerate() {
                if cost.is_nan() {
                    *cost = self.evaluate(i..i + k + 1, &mut dup, &mut lat_fill);
                    stage_prices += k as u64 + 1;
                }
            }
            stage_prices
        };
        cim_obs::count("compile.cg.stage_prices", stage_prices);
        cx.memo.store_run_costs(&runs, &costs);
        let row: Arc<[f64]> = costs.as_slice().into();
        cx.memo.store_row(window, row.clone());
        row
    }

    /// Prices the candidates of the row over the budget window `window`
    /// whose `costs` are NaN, the memo's misses, and returns how many
    /// stage latencies it computed.
    ///
    /// One bottleneck sweep duplicates every prefix of the window. The
    /// lone stage may fold, so it is [`Self::price`]d. Every longer
    /// candidate runs in one pass, so a stage's latency depends only on
    /// its window position and its duplication: `cache` holds, per
    /// position, the duplication its latency was last computed at (as a
    /// float; NaN before the first) and that latency, and
    /// [`Self::price_cached`] prices such a candidate from it.
    fn price_swept(
        &self,
        window: Range<usize>,
        costs: &mut [f64],
        cache: &mut Vec<(f64, f64)>,
    ) -> u64 {
        // The sweep's nine `u32` buffers (`SpendBuffers`: one per stage,
        // six per kind, its heap and a key level's kinds) come in one
        // lease.
        let mut spend = self.cx.scratch.u32_array(self.stages.len() + 1);
        let (items, terms) = (&self.items[window.clone()], &self.terms[window.clone()]);
        let kinds = &self.kinds[window.clone()];
        let mut sweep = BottleneckSweep::new(items, kinds, self.core_count, &mut spend);
        let mut stage_prices = 0;
        for (k, cost) in costs.iter_mut().enumerate() {
            sweep.push();
            if !cost.is_nan() {
                continue;
            }
            if k == 0 {
                let lone = window.start..window.start + 1;
                *cost = self.price(lone, sweep.solution().iter(), cache);
                cache.clear();
                stage_prices += 1;
                continue;
            }
            cache.resize(k + 1, (f64::NAN, 0.0));
            let dups = sweep.solution();
            let (items, terms) = (&items[..=k], &terms[..=k]);
            let (latency, computed) = self.price_cached(items, terms, &dups, &mut cache[..=k]);
            *cost = latency;
            stage_prices += computed;
        }
        stage_prices
    }

    /// The latency of a DP candidate of more than one stage, whose
    /// stages have the allocator items `items`, the price terms `terms`
    /// and the duplication numbers `dups`, and how many stage latencies
    /// it computed.
    ///
    /// One fused pass reads each stage's duplication number, recomputes
    /// its [`PriceTerms::latency`] only where that differs from the one
    /// `cache` holds for its position, and folds the latencies as
    /// [`pipeline_latency`](crate::level::pipeline_latency) does, in the
    /// same order: each stage latency is the same function of the same
    /// inputs as in [`Self::price`], so the result is `price`'s bit for
    /// bit. Kept out of line so the loop's state stays in registers.
    #[inline(never)]
    fn price_cached(
        &self,
        items: &[AllocItem],
        terms: &[PriceTerms],
        dups: &KindDups<'_>,
        cache: &mut [(f64, f64)],
    ) -> (f64, u64) {
        let (rate, cores) = (self.alu_rate, self.core_count);
        let (mut start, mut completion, mut computed) = (0.0_f64, 0.0_f64, 0);
        let stages = items.iter().zip(terms).zip(cache);
        for (idx, ((item, terms), (cached, latency))) in stages.enumerate() {
            let d = dups.of(idx);
            if *cached != f64::from(d) {
                *latency = terms.latency(item.latency as f64, item.cost, d, 1.0, rate, cores);
                *cached = f64::from(d);
                computed += 1;
            }
            // `pipeline_latency`'s `completion.max(end)` in one compare:
            // `completion` is never NaN and `end` never −0, so both pick
            // the same bits.
            let end = start + *latency;
            if end > completion {
                completion = end;
            }
            start += *latency * terms.fill.clamp(0.0, 1.0);
        }
        (completion, computed)
    }

    /// The schedule of the chosen segment `range`: [`Self::evaluate`]'s
    /// duplication numbers and latencies as plans, plus the segment's
    /// steady-state activity.
    fn schedule(&self, range: Range<usize>) -> Segment {
        let arch = self.cx.arch;
        let mut dup = self.cx.scratch.u32s(range.len());
        let mut lat_fill = self.cx.scratch.pairs(range.len());
        let latency = self.evaluate(range.clone(), &mut dup, &mut lat_fill);
        let folds = self.folds(&range);
        let plans: SegmentPlans = range
            .clone()
            .zip(dup.iter().zip(lat_fill.iter()))
            .map(|(i, (&duplication, &(latency, _)))| StagePlan {
                stage: i,
                duplication,
                // A folded stage occupies the whole chip in every pass.
                cores: if folds > 1 {
                    arch.chip().core_count()
                } else {
                    duplication * self.items[i].cost
                },
                folds,
                latency,
            })
            .collect();
        let chip_slots = arch.total_crossbars();
        let active = plans.iter().map(|p| {
            if folds > 1 {
                chip_slots
            } else {
                u64::from(p.duplication) * u64::from(self.stages[p.stage].mapping.vxb_size())
            }
        });
        let bits: u64 = self.stages[range]
            .iter()
            .map(|s| (s.in_elements + s.out_elements) * u64::from(self.cx.act_bits))
            .sum();
        Segment {
            active_crossbars: active_crossbars(active, self.options.pipeline, chip_slots),
            // Average bits per cycle moved while the segment runs.
            streaming_bits_per_cycle: bits as f64 / latency.max(1.0),
            plans,
            latency,
        }
    }

    /// Whether the whole model occupies one segment by policy rather than by
    /// the DP: frozen (write-expensive) weights that fit the chip at once.
    fn stays_resident(&self) -> bool {
        !self.cx.arch.crossbar().cell_type().writes_are_cheap()
            && self.needs.iter().sum::<u64>() <= self.core_count
    }

    /// Resource-adaptive segmentation (Figure 9b): the stage ranges of the
    /// segments, in execution order.
    ///
    /// Whole-model residency: on write-expensive devices (ReRAM/Flash/PCM)
    /// weights are frozen in the crossbars, so if the whole model fits it
    /// occupies one segment and duplication uses only the leftover cores —
    /// the paper's premise (§2.1) and the behaviour behind Figure 21a's
    /// shrinking duplication speedups. On write-cheap devices (SRAM), and
    /// whenever the model does not fit, segments are contiguous runs chosen
    /// by dynamic programming over total latency including inter-segment
    /// reprogramming: a maximal prefix is not always best (an exactly-full
    /// segment leaves no cores for duplication — the paper pops trailing
    /// nodes while the DP latency improves). Stages whose single replica
    /// exceeds the chip fold across it and stand alone.
    fn segmentation(&self, reprogram_cycles: f64) -> Vec<Range<usize>> {
        let cx = self.cx;
        let n = self.stages.len();
        if self.stays_resident() {
            return std::iter::once(0..n).collect();
        }
        // Rows are independent of the DP recurrence — the break condition
        // is the core budget, not `dp` — so every row is priced first and
        // the recurrence runs over the precomputed latencies.
        let rows: Vec<Arc<[f64]>> = (0..n).map(|i| self.row(i)).collect();
        let mut dp = cx.scratch.f64s(n + 1);
        dp.resize(n + 1, f64::INFINITY);
        let mut cut = cx.scratch.usizes(n + 1);
        cut.resize(n + 1, n + 1);
        dp[n] = 0.0;
        for i in (0..n).rev() {
            for (j, &lat) in rows[i].iter().enumerate() {
                let k = i + j;
                let boundary = if k + 1 < n { reprogram_cycles } else { 0.0 };
                let total = lat + boundary + dp[k + 1];
                if total < dp[i] {
                    dp[i] = total;
                    cut[i] = k + 1;
                }
            }
            debug_assert!(cut[i] > i, "segmentation made no progress at stage {i}");
        }
        let mut ranges = Vec::new();
        let mut i = 0;
        while i < n {
            ranges.push(i..cut[i]);
            i = cut[i];
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::presets;
    use cim_graph::zoo;

    fn latency(g: &cim_graph::Graph, arch: &CimArchitecture, opts: CgOptions) -> f64 {
        schedule_cg(g, arch, opts, 8, 8)
            .unwrap()
            .report
            .latency_cycles
    }

    #[test]
    fn optimizations_never_hurt() {
        let arch = presets::isaac_baseline();
        for g in [zoo::vgg7(), zoo::resnet18()] {
            let none = latency(&g, &arch, CgOptions::none());
            let pipe = latency(
                &g,
                &arch,
                CgOptions {
                    pipeline: true,
                    duplication: false,
                },
            );
            let dup = latency(
                &g,
                &arch,
                CgOptions {
                    pipeline: false,
                    duplication: true,
                },
            );
            let full = latency(&g, &arch, CgOptions::full());
            assert!(pipe <= none, "{}: pipe {pipe} > none {none}", g.name());
            assert!(dup <= none, "{}: dup {dup} > none {none}", g.name());
            assert!(full <= pipe.min(dup) * 1.001, "{}", g.name());
        }
    }

    #[test]
    fn duplication_speedup_shrinks_with_depth() {
        // Figure 21a: CG-Duplication speedup decreases from ResNet18 to
        // ResNet101 as spare cores vanish.
        let arch = presets::isaac_baseline();
        let speedup = |g: &cim_graph::Graph| {
            latency(g, &arch, CgOptions::none())
                / latency(
                    g,
                    &arch,
                    CgOptions {
                        pipeline: false,
                        duplication: true,
                    },
                )
        };
        let s18 = speedup(&zoo::resnet18());
        let s101 = speedup(&zoo::resnet101());
        assert!(s18 > s101, "s18 {s18} <= s101 {s101}");
        assert!(s18 > 4.0, "s18 {s18}");
    }

    #[test]
    fn pipeline_speedup_grows_with_depth() {
        // Figure 21a: CG-Pipeline speedup increases with model depth.
        let arch = presets::isaac_baseline();
        let speedup = |g: &cim_graph::Graph| {
            latency(g, &arch, CgOptions::none())
                / latency(
                    g,
                    &arch,
                    CgOptions {
                        pipeline: true,
                        duplication: false,
                    },
                )
        };
        let s18 = speedup(&zoo::resnet18());
        let s101 = speedup(&zoo::resnet101());
        assert!(s101 > s18, "s101 {s101} <= s18 {s18}");
        assert!(s18 > 1.5, "s18 {s18}");
    }

    #[test]
    fn pipelining_raises_peak_power() {
        // Figure 21d: CG-grained optimization raises peak power because
        // many more crossbars are active simultaneously.
        let arch = presets::isaac_baseline();
        let g = zoo::resnet34();
        let none = schedule_cg(&g, &arch, CgOptions::none(), 8, 8).unwrap();
        let full = schedule_cg(&g, &arch, CgOptions::full(), 8, 8).unwrap();
        assert!(full.report.peak_power > 3.0 * none.report.peak_power);
    }

    #[test]
    fn segmentation_triggers_when_model_exceeds_chip() {
        // VGG16 on Jia's 16-core SRAM chip does not fit at once.
        let arch = presets::jia_isscc21();
        let sched = schedule_cg(&zoo::vgg16(), &arch, CgOptions::full(), 8, 8).unwrap();
        assert!(sched.report.segments > 1, "{}", sched.report.segments);
        assert!(sched.report.reprogram_cycles > 0.0);
    }

    #[test]
    fn small_model_single_segment() {
        let arch = presets::isaac_baseline();
        let sched = schedule_cg(&zoo::lenet5(), &arch, CgOptions::full(), 8, 8).unwrap();
        assert_eq!(sched.report.segments, 1);
        assert_eq!(sched.report.reprogram_cycles, 0.0);
    }

    #[test]
    fn empty_graph_rejected() {
        let mut g = cim_graph::Graph::new("digital-only");
        let x = g
            .add(
                "x",
                cim_graph::OpKind::Input {
                    shape: cim_graph::Shape::vec(8),
                },
                [],
            )
            .unwrap();
        let _ = g.add("r", cim_graph::OpKind::Relu, [x]).unwrap();
        let arch = presets::isaac_baseline();
        assert!(matches!(
            schedule_cg(&g, &arch, CgOptions::full(), 8, 8),
            Err(CompileError::NothingToMap { .. })
        ));
    }

    #[test]
    fn duplication_respects_core_budget() {
        let arch = presets::isaac_baseline();
        let sched = schedule_cg(&zoo::resnet50(), &arch, CgOptions::full(), 8, 8).unwrap();
        for seg in &sched.segments {
            let used: u64 = seg.plans.iter().map(|p| u64::from(p.cores)).sum();
            assert!(
                used <= u64::from(arch.chip().core_count()),
                "segment uses {used} cores"
            );
        }
    }

    fn context<'a>(
        arch: &'a CimArchitecture,
        scratch: &'a crate::ScratchArena,
        memo: &'a crate::RegionMemo,
    ) -> SchedContext<'a> {
        SchedContext {
            arch,
            act_bits: 8,
            scratch,
            memo,
        }
    }

    const ALL_OPTIONS: [CgOptions; 4] = [
        CgOptions {
            pipeline: false,
            duplication: false,
        },
        CgOptions {
            pipeline: true,
            duplication: false,
        },
        CgOptions {
            pipeline: false,
            duplication: true,
        },
        CgOptions {
            pipeline: true,
            duplication: true,
        },
    ];

    /// Brute-force optimum of the segmentation objective: every contiguous
    /// segmentation of the stage list whose segments fit the chip (an
    /// over-weight stage stands alone), priced with the shared evaluator
    /// plus one reprogramming between consecutive segments.
    fn brute_force_segmentation(evaluator: &SegmentEvaluator<'_>, reprogram_cycles: f64) -> f64 {
        let n = evaluator.stages.len();
        let (mut dup, mut lat_fill) = (Vec::new(), Vec::new());
        let mut best = f64::INFINITY;
        // Bit `b` of `cuts` set: a segment ends after stage `b`.
        for cuts in 0u32..1 << (n - 1) {
            let mut total = 0.0;
            let mut start = 0;
            for end in 1..=n {
                if end < n && cuts >> (end - 1) & 1 == 0 {
                    continue;
                }
                let cores: u64 = evaluator.needs[start..end].iter().sum();
                if end - start > 1 && cores > evaluator.core_count {
                    total = f64::INFINITY;
                }
                total += evaluator.evaluate(start..end, &mut dup, &mut lat_fill);
                if end < n {
                    total += reprogram_cycles;
                }
                start = end;
            }
            best = best.min(total);
        }
        best
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// ROADMAP 7a: on stage lists small enough to enumerate, the DP's
        /// total equals the brute-force minimum for every `CgOptions`.
        #[test]
        fn segmentation_dp_matches_the_brute_force_optimum(
            preset in 0usize..3,
            picks in proptest::collection::vec(0usize..1000, 1..9),
        ) {
            let arch = [presets::jia_isscc21(), presets::puma(), presets::jain_sram()][preset].clone();
            // Any list of static-weight stages is a valid scheduler input;
            // draw from three differently-shaped zoo models.
            let pool: Vec<Stage> = [zoo::vgg16(), zoo::resnet18(), zoo::vit_small()]
                .iter()
                .flat_map(|g| extract_stages(g, &arch, 8))
                .filter(|s| !s.dynamic_weights)
                .collect();
            let stages: Vec<Stage> = picks.iter().map(|&p| pool[p % pool.len()].clone()).collect();
            for options in ALL_OPTIONS {
                let (scratch, memo) = (crate::ScratchArena::new(), crate::RegionMemo::new());
                let cx = context(&arch, &scratch, &memo);
                let sched = schedule_cg_in(&cx, "oracle", stages.clone(), options).unwrap();
                let boundaries = (sched.segments.len() - 1) as f64;
                let dp_total: f64 = sched.segments.iter().map(|s| s.latency).sum::<f64>()
                    + boundaries * sched.reprogram_cycles;
                let evaluator = SegmentEvaluator::new(&cx, &stages, options);
                let expected = if evaluator.stays_resident() {
                    // Frozen weights that fit stay resident: one segment
                    // by policy, not by the DP.
                    evaluator.evaluate(0..stages.len(), &mut Vec::new(), &mut Vec::new())
                } else {
                    brute_force_segmentation(&evaluator, sched.reprogram_cycles)
                };
                proptest::prop_assert!(
                    (dp_total - expected).abs() <= 1e-9 * expected,
                    "{options:?} on {}: DP {dp_total} vs optimum {expected} ({} segments)",
                    arch.name(),
                    sched.segments.len()
                );
            }
        }
    }

    #[test]
    fn chosen_segments_cost_exactly_what_the_dp_estimated() {
        let mut estimated = 0;
        for arch in presets::all() {
            for graph in zoo::all() {
                let (scratch, memo) = (crate::ScratchArena::new(), crate::RegionMemo::new());
                let cx = context(&arch, &scratch, &memo);
                let stages = extract_stages(&graph, &arch, 8);
                let Ok(sched) = schedule_cg_in(&cx, graph.name(), stages, CgOptions::full()) else {
                    continue; // dynamic weights on a write-expensive device
                };
                let evaluator = SegmentEvaluator::new(&cx, &sched.stages, CgOptions::full());
                let (ids, dp_ran) = (&evaluator.ids, !evaluator.stays_resident());
                assert!(dp_ran || sched.segments.len() == 1);
                let mut start = 0;
                for seg in &sched.segments {
                    let estimate = memo.cost(&ids[start..start + seg.plans.len()]);
                    assert_eq!(
                        estimate,
                        dp_ran.then_some(seg.latency),
                        "{} on {}: segment at stage {start}",
                        graph.name(),
                        arch.name()
                    );
                    estimated += usize::from(dp_ran);
                    start += seg.plans.len();
                }
            }
        }
        assert!(
            estimated > 100,
            "only {estimated} segments went through the DP"
        );
    }

    /// Every DP row of the zoo (and of a graph with a dynamic `MatMul`,
    /// whose crossbar rewrite the reused stage latencies carry) on every
    /// preset, priced by one bottleneck sweep, equals pricing each
    /// candidate on its own. A candidate whose region-id run was already
    /// checked answers from the memo with the value checked then, so each
    /// run is evaluated once.
    #[test]
    fn every_dp_row_prices_its_candidates_like_evaluate() {
        let mut evaluated = 0;
        let (mut dup, mut lat_fill) = (Vec::new(), Vec::new());
        let graphs = zoo_and_a_dynamic_matmul();
        for arch in presets::all() {
            for graph in &graphs {
                let (scratch, memo) = (crate::ScratchArena::new(), crate::RegionMemo::new());
                let cx = context(&arch, &scratch, &memo);
                let stages = extract_stages(graph, &arch, 8);
                let evaluator = SegmentEvaluator::new(&cx, &stages, CgOptions::full());
                if evaluator.stays_resident() {
                    continue;
                }
                let mut checked = std::collections::HashSet::new();
                for i in 0..stages.len() {
                    for (j, &latency) in evaluator.row(i).iter().enumerate() {
                        let range = i..i + j + 1;
                        if !checked.insert(&evaluator.ids[range.clone()]) {
                            continue;
                        }
                        let alone = evaluator.evaluate(range, &mut dup, &mut lat_fill);
                        assert_eq!(
                            latency.to_bits(),
                            alone.to_bits(),
                            "{} on {}: candidate [{i}..={}]",
                            graph.name(),
                            arch.name(),
                            i + j
                        );
                    }
                }
                evaluated += checked.len();
            }
        }
        assert!(evaluated > 10_000, "only {evaluated} candidates evaluated");
    }

    /// Attention scores between two activations — a `MatMul` whose
    /// crossbars are rewritten every inference, which no zoo model has —
    /// between two static layers.
    fn with_a_dynamic_matmul() -> cim_graph::Graph {
        use cim_graph::{OpKind, Shape};
        let mut g = cim_graph::Graph::new("dynamic-matmul");
        let input = |shape| OpKind::Input { shape };
        let x = g.add("x", input(Shape::tokens(197, 64)), []).unwrap();
        let q = g
            .add("q", OpKind::Linear { out_features: 64 }, [x])
            .unwrap();
        let k = g.add("k", input(Shape::tokens(64, 197)), []).unwrap();
        let s = g.add("scores", OpKind::MatMul, [q, k]).unwrap();
        g.add("proj", OpKind::Linear { out_features: 64 }, [s])
            .unwrap();
        g
    }

    /// Every zoo model, then [`with_a_dynamic_matmul`].
    fn zoo_and_a_dynamic_matmul() -> Vec<cim_graph::Graph> {
        let mut graphs = zoo::all();
        graphs.push(with_a_dynamic_matmul());
        graphs
    }

    /// Per preset, the preset and the stages of every zoo model and of
    /// [`with_a_dynamic_matmul`] on it: the pool random stage lists are
    /// drawn from, built once per test binary.
    fn stage_pools() -> &'static [(CimArchitecture, Vec<Stage>)] {
        static POOLS: std::sync::OnceLock<Vec<(CimArchitecture, Vec<Stage>)>> =
            std::sync::OnceLock::new();
        POOLS.get_or_init(|| {
            let graphs = zoo_and_a_dynamic_matmul();
            presets::all()
                .into_iter()
                .map(|arch| {
                    let stages = graphs.iter().flat_map(|g| extract_stages(g, &arch, 8));
                    let stages = stages.collect();
                    (arch, stages)
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Every candidate of every DP row of a random stage list costs
        /// what `evaluate` prices it at, bit for bit: the row's reused
        /// stage latencies never go stale. A narrow `width` repeats a few
        /// stages, so rows share tie kinds and the memo answers some
        /// candidates between the ones priced.
        #[test]
        fn every_dp_row_of_a_random_stage_list_prices_like_evaluate(
            preset in 0usize..7,
            offset in 0usize..100_000,
            width in 1usize..400,
            picks in proptest::collection::vec(0usize..400, 1..41),
        ) {
            let (arch, pool) = &stage_pools()[preset % stage_pools().len()];
            let stages: Vec<Stage> = picks
                .iter()
                .map(|&p| pool[(offset + p % width) % pool.len()].clone())
                .collect();
            let (scratch, memo) = (crate::ScratchArena::new(), crate::RegionMemo::new());
            let cx = context(arch, &scratch, &memo);
            let evaluator = SegmentEvaluator::new(&cx, &stages, CgOptions::full());
            let (mut dup, mut lat_fill) = (Vec::new(), Vec::new());
            for i in 0..stages.len() {
                for (j, &latency) in evaluator.row(i).iter().enumerate() {
                    let alone = evaluator.evaluate(i..i + j + 1, &mut dup, &mut lat_fill);
                    proptest::prop_assert_eq!(
                        latency.to_bits(),
                        alone.to_bits(),
                        "row {} vs evaluate {} on {}: candidate [{}..={}] of {:?}",
                        latency,
                        alone,
                        arch.name(),
                        i,
                        i + j,
                        stages.iter().map(|s| &*s.name).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    /// `price` reads per-stage tables; on every DP candidate of the zoo
    /// (and of a graph with a dynamic `MatMul`) on every preset, the
    /// tables give the `stage_latency` chain the candidate stands for, bit
    /// for bit, per stage and in total — folded lone stages included. Candidates with equal
    /// region-id runs have equal inputs, so each run is checked once.
    #[test]
    fn table_driven_price_is_the_stage_latency_chain() {
        let (mut dup, mut lat_fill) = (Vec::new(), Vec::new());
        let (mut priced, mut folded, mut dynamic) = (0, 0, 0);
        let bits = |pairs: &[(f64, f64)]| -> Vec<(u64, u64)> {
            pairs
                .iter()
                .map(|&(l, f)| (l.to_bits(), f.to_bits()))
                .collect()
        };
        let graphs = zoo_and_a_dynamic_matmul();
        for arch in presets::all() {
            for graph in &graphs {
                let (scratch, memo) = (crate::ScratchArena::new(), crate::RegionMemo::new());
                let cx = context(&arch, &scratch, &memo);
                let stages = extract_stages(graph, &arch, 8);
                let evaluator = SegmentEvaluator::new(&cx, &stages, CgOptions::full());
                let mut checked = std::collections::HashSet::new();
                for i in 0..stages.len() {
                    for j in 0..evaluator.row(i).len() {
                        let range = i..i + j + 1;
                        if !checked.insert(&evaluator.ids[range.clone()]) {
                            continue;
                        }
                        let latency = evaluator.evaluate(range.clone(), &mut dup, &mut lat_fill);
                        let folds = evaluator.folds(&range);
                        let chain: Vec<(f64, f64)> = stages[range.clone()]
                            .iter()
                            .zip(&dup)
                            .map(|(stage, &d)| {
                                let cpm = stage.mapping.cycles_per_mvm(&arch, 8);
                                let mov = movement_cycles(stage, &arch, 8);
                                let latency = stage_latency(stage, &arch, mov, d, cpm, folds);
                                (latency, stage.fill_fraction)
                            })
                            .collect();
                        let case =
                            format!("{} on {}: [{i}..={}]", graph.name(), arch.name(), i + j);
                        assert_eq!(bits(&lat_fill), bits(&chain), "{case}");
                        assert_eq!(
                            latency.to_bits(),
                            chain_latency(chain.iter().copied(), true).to_bits(),
                            "{case}"
                        );
                        priced += 1;
                        folded += usize::from(folds > 1);
                        dynamic += stages[range].iter().filter(|s| s.dynamic_weights).count();
                    }
                }
            }
        }
        assert!(priced > 10_000, "only {priced} candidates priced");
        assert!(
            folded > 0 && dynamic > 0,
            "{folded} folded, {dynamic} dynamic"
        );
    }

    /// The DP's split point is not monotone in the segment start:
    /// somewhere `cut[i] > cut[i + 1]`, so Knuth- or SMAWK-style pruning
    /// of the inner loop, which assumes `cut[i] <= cut[i + 1]`, would
    /// change these schedules. `cut` is recomputed from the evaluator's
    /// rows with the recurrence of `segmentation`, and checked against
    /// the segments the scheduler chose.
    #[test]
    fn the_dp_split_point_is_not_monotone() {
        for (model, preset) in [
            ("vgg16", "isaac"),
            ("resnet18", "jia"),
            ("vit_base", "isaac"),
            ("resnet152", "isaac"),
        ] {
            let graph = zoo::by_name(model).unwrap();
            let arch = presets::by_name(preset).unwrap();
            let (scratch, memo) = (crate::ScratchArena::new(), crate::RegionMemo::new());
            let cx = context(&arch, &scratch, &memo);
            let stages = extract_stages(&graph, &arch, 8);
            let sched = schedule_cg_in(&cx, model, stages.clone(), CgOptions::full()).unwrap();
            let evaluator = SegmentEvaluator::new(&cx, &stages, CgOptions::full());
            assert!(!evaluator.stays_resident(), "{model}@{preset} ran no DP");
            let n = stages.len();
            let (mut dp, mut cut) = (vec![f64::INFINITY; n + 1], vec![n + 1; n + 1]);
            dp[n] = 0.0;
            for i in (0..n).rev() {
                for (j, &lat) in evaluator.row(i).iter().enumerate() {
                    let k = i + j;
                    let boundary = if k + 1 < n {
                        sched.reprogram_cycles
                    } else {
                        0.0
                    };
                    if lat + boundary + dp[k + 1] < dp[i] {
                        dp[i] = lat + boundary + dp[k + 1];
                        cut[i] = k + 1;
                    }
                }
            }
            let (mut chosen, mut i) = (Vec::new(), 0);
            while i < n {
                chosen.push(cut[i] - i);
                i = cut[i];
            }
            let lengths: Vec<usize> = sched.segments.iter().map(|s| s.plans.len()).collect();
            assert_eq!(chosen, lengths, "{model}@{preset}: recurrence drifted");
            assert!(
                (0..n - 1).any(|i| cut[i] > cut[i + 1]),
                "{model}@{preset}: split point is monotone: {cut:?}"
            );
        }
    }
}
