//! The staged compilation pipeline (paper Figure 3, made explicit).
//!
//! The multi-level flow — stage extraction, CG-grained scheduling,
//! MVM-grained refinement, VVM-grained refinement, code generation — is
//! expressed as a list of [`Pass`]es over typed [`Artifact`]s:
//!
//! ```text
//! Source ── stages ──▶ Staged ── cg ──▶ CgScheduled ── mvm ──▶ MvmScheduled
//!                                           │                      │
//!                                        codegen                  vvm
//!                                           ▼                      ▼
//!                                      Codegenned ◀── codegen ── VvmScheduled
//! ```
//!
//! [`Pipeline::plan`] assembles the pass list the target's computing mode
//! and [`CompileOptions::level`] admit — exactly the levels
//! [`Compiler::compile`](crate::Compiler::compile) used to run as one
//! opaque call. A [`Session`] executes passes one at a time, so callers
//! can pause between levels, inspect the intermediate artifact (stage
//! plans, per-level [`PerfReport`]s, the generated MOP flow), skip or
//! replace passes, mutate the artifact, and resume. Per-pass wall time
//! and diagnostics land in a [`PassTimeline`].
//!
//! ```
//! use cim_arch::presets;
//! use cim_compiler::{Pipeline, Compiler, CompileOptions};
//! use cim_graph::zoo;
//!
//! # fn main() -> Result<(), cim_compiler::CompileError> {
//! let graph = zoo::lenet5();
//! let arch = presets::isaac_baseline();
//! let options = CompileOptions::default();
//! let mut session = Pipeline::plan(&options, &arch).session(&graph, &arch, options);
//! while session.step()? {
//!     if let Some(report) = session.artifact().report() {
//!         println!("after {}: {} cycles", report.level, report.latency_cycles);
//!     }
//! }
//! let compiled = session.finish()?;
//! assert_eq!(compiled.report(), Compiler::new().compile(&graph, &arch)?.report());
//! # Ok(())
//! # }
//! ```

use crate::cache::{
    fingerprint_graph, source_fingerprint, source_fingerprint_of, CompileCache, Fingerprint,
    FingerprintBuilder,
};
use crate::cg::{schedule_cg_in, CgSchedule, Segment};
use crate::codegen::{self, FlowLayout};
use crate::compile::{CompileOptions, Compiled, OptLevel};
use crate::mvm::{schedule_mvm_in, MvmSchedule};
use crate::pass::{Diagnostics, Pass, PassContext, PassTimeline};
use crate::perf::PerfReport;
use crate::region::RegionMemo;
use crate::stage::{extract_stages, Stage};
use crate::vvm::{schedule_vvm_in, VvmSchedule};
use crate::{CompileError, Result};
use cim_arch::{CimArchitecture, ComputingMode};
use cim_graph::{Graph, GraphDelta};
use cim_mop::MopFlow;
use cim_obs::{keys, Stopwatch, TraceClock};
use std::borrow::Cow;
use std::sync::Arc;

/// Which stage of the flow an [`Artifact`] represents, ordered from
/// `Source` to `Codegen`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageKind {
    /// Nothing computed yet: the session's starting point.
    Source,
    /// Stages extracted, not yet scheduled.
    Staged,
    /// CG-grained schedule available.
    Cg,
    /// MVM-grained refinement available.
    Mvm,
    /// VVM-grained refinement available.
    Vvm,
    /// Executable meta-operator flow generated.
    Codegen,
}

impl StageKind {
    /// Stable stage name, used by the CLI (`--dump-stage`) and timelines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Source => "source",
            StageKind::Staged => "staged",
            StageKind::Cg => "cg",
            StageKind::Mvm => "mvm",
            StageKind::Vvm => "vvm",
            StageKind::Codegen => "codegen",
        }
    }

    /// Parses a name produced by [`StageKind::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<StageKind> {
        [
            StageKind::Source,
            StageKind::Staged,
            StageKind::Cg,
            StageKind::Mvm,
            StageKind::Vvm,
            StageKind::Codegen,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// Artifact of the `stages` pass: the model's pipeline stages, extracted
/// but not yet scheduled.
#[derive(Debug, Clone, PartialEq)]
pub struct Staged {
    /// Stages in topological order.
    pub stages: Vec<Stage>,
}

/// Artifact of the `cg` pass: the CG-grained schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CgScheduled {
    /// The CG-grained schedule (owns the stage list).
    pub cg: CgSchedule,
}

/// Artifact of the `mvm` pass: CG schedule plus its MVM-grained
/// refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct MvmScheduled {
    /// The CG-grained schedule.
    pub cg: CgSchedule,
    /// The MVM-grained refinement.
    pub mvm: MvmSchedule,
}

/// Artifact of the `vvm` pass: all three scheduling levels.
#[derive(Debug, Clone, PartialEq)]
pub struct VvmScheduled {
    /// The CG-grained schedule.
    pub cg: CgSchedule,
    /// The MVM-grained refinement.
    pub mvm: MvmSchedule,
    /// The VVM-grained refinement.
    pub vvm: VvmSchedule,
}

/// Artifact of the `codegen` pass: the compiled schedules plus the
/// executable meta-operator flow and its buffer layout.
#[derive(Debug, Clone)]
pub struct Codegenned {
    /// The compiled artifact the flow was generated from.
    pub compiled: Compiled,
    /// The meta-operator flow: executable unless a
    /// [`CodegenPass::keeping`] bound dropped statements
    /// ([`MopFlow::is_complete`]).
    pub flow: MopFlow,
    /// Where each node's output tensor lives in the L0 buffer.
    pub layout: FlowLayout,
}

/// A typed intermediate artifact of the staged pipeline.
///
/// Artifacts are cumulative: each stage carries everything the previous
/// stages produced, so pausing after any pass leaves the session fully
/// inspectable.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// Nothing computed yet (the session's starting point).
    Source,
    /// Stages extracted ([`Staged`]).
    Staged(Staged),
    /// CG-grained schedule ([`CgScheduled`]).
    CgScheduled(Box<CgScheduled>),
    /// MVM-grained refinement ([`MvmScheduled`]).
    MvmScheduled(Box<MvmScheduled>),
    /// VVM-grained refinement ([`VvmScheduled`]).
    VvmScheduled(Box<VvmScheduled>),
    /// Executable flow generated ([`Codegenned`]).
    Codegenned(Box<Codegenned>),
}

impl Artifact {
    /// This artifact's stage.
    #[must_use]
    pub fn kind(&self) -> StageKind {
        match self {
            Artifact::Source => StageKind::Source,
            Artifact::Staged(_) => StageKind::Staged,
            Artifact::CgScheduled(_) => StageKind::Cg,
            Artifact::MvmScheduled(_) => StageKind::Mvm,
            Artifact::VvmScheduled(_) => StageKind::Vvm,
            Artifact::Codegenned(_) => StageKind::Codegen,
        }
    }

    /// The extracted stage list, once available.
    #[must_use]
    pub fn stages(&self) -> Option<&[Stage]> {
        match self {
            Artifact::Source => None,
            Artifact::Staged(s) => Some(&s.stages),
            Artifact::CgScheduled(a) => Some(&a.cg.stages),
            Artifact::MvmScheduled(a) => Some(&a.cg.stages),
            Artifact::VvmScheduled(a) => Some(&a.cg.stages),
            Artifact::Codegenned(c) => Some(&c.compiled.cg.stages),
        }
    }

    /// The CG-grained schedule, once available.
    #[must_use]
    pub fn cg(&self) -> Option<&CgSchedule> {
        match self {
            Artifact::Source | Artifact::Staged(_) => None,
            Artifact::CgScheduled(a) => Some(&a.cg),
            Artifact::MvmScheduled(a) => Some(&a.cg),
            Artifact::VvmScheduled(a) => Some(&a.cg),
            Artifact::Codegenned(c) => Some(&c.compiled.cg),
        }
    }

    /// The MVM-grained refinement, once available.
    #[must_use]
    pub fn mvm(&self) -> Option<&MvmSchedule> {
        match self {
            Artifact::MvmScheduled(a) => Some(&a.mvm),
            Artifact::VvmScheduled(a) => Some(&a.mvm),
            Artifact::Codegenned(c) => c.compiled.mvm.as_ref(),
            _ => None,
        }
    }

    /// The VVM-grained refinement, once available.
    #[must_use]
    pub fn vvm(&self) -> Option<&VvmSchedule> {
        match self {
            Artifact::VvmScheduled(a) => Some(&a.vvm),
            Artifact::Codegenned(c) => c.compiled.vvm.as_ref(),
            _ => None,
        }
    }

    /// The generated meta-operator flow, once available.
    #[must_use]
    pub fn flow(&self) -> Option<&MopFlow> {
        match self {
            Artifact::Codegenned(c) => Some(&c.flow),
            _ => None,
        }
    }

    /// The generated flow's buffer layout, once available.
    #[must_use]
    pub fn layout(&self) -> Option<&FlowLayout> {
        match self {
            Artifact::Codegenned(c) => Some(&c.layout),
            _ => None,
        }
    }

    /// The report of the deepest scheduling level run so far, if any
    /// level has run.
    #[must_use]
    pub fn report(&self) -> Option<&PerfReport> {
        match self {
            Artifact::Source | Artifact::Staged(_) => None,
            Artifact::CgScheduled(a) => Some(&a.cg.report),
            Artifact::MvmScheduled(a) => Some(&a.mvm.report),
            Artifact::VvmScheduled(a) => Some(&a.vvm.report),
            Artifact::Codegenned(c) => Some(c.compiled.report()),
        }
    }

    /// Reports of every level run so far, coarse to fine.
    #[must_use]
    pub fn reports(&self) -> Vec<&PerfReport> {
        let mut out = Vec::new();
        if let Some(cg) = self.cg() {
            out.push(&cg.report);
        }
        if let Some(mvm) = self.mvm() {
            out.push(&mvm.report);
        }
        if let Some(vvm) = self.vvm() {
            out.push(&vvm.report);
        }
        out
    }

    /// One-line description, used in timelines.
    #[must_use]
    pub fn summary(&self) -> String {
        self.summary_at(self.kind())
            .expect("every artifact has a view at its own stage")
    }

    /// The one-line description of the artifact at `stage` that this
    /// cumulative artifact carries: a `vvm` artifact describes the `cg`
    /// artifact it was refined from. `None` when it carries no view at
    /// `stage` (a stage it has not reached).
    pub(crate) fn summary_at(&self, stage: StageKind) -> Option<String> {
        let report = match stage {
            StageKind::Source => return (self.kind() == stage).then(|| "source graph".to_owned()),
            StageKind::Staged => return self.stages().map(|s| format!("{} stage(s)", s.len())),
            StageKind::Cg => &self.cg()?.report,
            StageKind::Mvm => &self.mvm()?.report,
            StageKind::Vvm => &self.vvm()?.report,
            StageKind::Codegen => {
                return self
                    .flow()
                    .map(|f| format!("{} meta-operator(s)", f.pushed()))
            }
        };
        Some(format!(
            "level {}: {} segment(s), latency {:.0} cycles, peak power {:.1}",
            report.level, report.segments, report.latency_cycles, report.peak_power
        ))
    }

    /// Renders the artifact for human inspection: the stage list before
    /// scheduling, the per-stage plan table for scheduled levels, the
    /// flow statistics after codegen. This is what
    /// `cimc compile --dump-stage` prints.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Artifact::Source => "source graph (no passes run)\n".to_owned(),
            Artifact::Staged(s) => {
                // No folds/duplication columns: those are scheduling
                // decisions the cg pass has not made yet.
                let mut out = format!("{:<4} {:<24} {:>7} {:>12}\n", "#", "stage", "VXB", "MVMs");
                for (i, stage) in s.stages.iter().enumerate() {
                    out.push_str(&format!(
                        "{:<4} {:<24} {:>7} {:>12}\n",
                        i,
                        stage.name,
                        stage.mapping.vxb_size(),
                        stage.mapping.mvm_count
                    ));
                }
                out
            }
            Artifact::CgScheduled(_) | Artifact::MvmScheduled(_) | Artifact::VvmScheduled(_) => {
                let stages = self.stages().expect("scheduled artifacts have stages");
                let segments = match self {
                    Artifact::CgScheduled(a) => &a.cg.segments,
                    Artifact::MvmScheduled(a) => &a.mvm.segments,
                    Artifact::VvmScheduled(a) => &a.vvm.segments,
                    _ => unreachable!(),
                };
                let report = self.report().expect("scheduled artifacts have a report");
                render_plan_table(stages, segments, report)
            }
            Artifact::Codegenned(c) => {
                format!(
                    "{}\n{} meta-operator(s)\n",
                    c.compiled.render_schedule(),
                    c.flow.pushed()
                )
            }
        }
    }

    /// Converts the artifact into the one-shot [`Compiled`] result.
    /// `model`, `arch_name` and `options` label the result exactly as
    /// [`Compiler::compile`](crate::Compiler::compile) would.
    ///
    /// # Errors
    /// Returns [`CompileError::Internal`] when no scheduling level has run
    /// yet (the pipeline is missing a `cg` pass).
    pub fn into_compiled(
        self,
        model: &str,
        arch_name: &str,
        options: CompileOptions,
    ) -> Result<Compiled> {
        let (cg, mvm, vvm) = match self {
            Artifact::Source | Artifact::Staged(_) => {
                return Err(CompileError::Internal {
                    message: format!(
                        "pipeline stopped at stage `{}` without producing a schedule \
                         (missing `cg` pass?)",
                        self.kind().name()
                    ),
                })
            }
            Artifact::CgScheduled(a) => (a.cg, None, None),
            Artifact::MvmScheduled(a) => {
                let a = *a;
                (a.cg, Some(a.mvm), None)
            }
            Artifact::VvmScheduled(a) => {
                let a = *a;
                (a.cg, Some(a.mvm), Some(a.vvm))
            }
            Artifact::Codegenned(c) => return Ok(c.compiled),
        };
        Ok(Compiled::from_parts(
            model.to_owned(),
            arch_name.to_owned(),
            options,
            cg,
            mvm,
            vvm,
        ))
    }
}

/// Renders a per-stage plan table for one scheduling level — the shared
/// body of [`Compiled::render_schedule`] and [`Artifact::render`].
pub(crate) fn render_plan_table(
    stages: &[Stage],
    segments: &[Segment],
    report: &PerfReport,
) -> String {
    let mut out = format!(
        "level {}\n{:<4} {:<24} {:>5} {:>6} {:>6} {:>6} {:>14}\n",
        report.level, "seg", "stage", "dup", "cores", "folds", "VXB", "latency(cyc)"
    );
    for (si, seg) in segments.iter().enumerate() {
        for plan in &seg.plans {
            let stage = &stages[plan.stage];
            out.push_str(&format!(
                "{:<4} {:<24} {:>5} {:>6} {:>6} {:>6} {:>14.0}\n",
                si,
                stage.name,
                plan.duplication,
                plan.cores,
                plan.folds,
                stage.mapping.vxb_size(),
                plan.latency
            ));
        }
    }
    out.push_str(&format!(
        "total: {:.0} cycles ({} segments, {:.0} reprogram), peak power {:.1}, energy {:.1}\n",
        report.latency_cycles,
        report.segments,
        report.reprogram_cycles,
        report.peak_power,
        report.energy.total()
    ));
    out
}

// ---------------------------------------------------------------------------
// Built-in passes.

/// The `stages` pass: extracts pipeline stages from the graph
/// (`Source → Staged`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtractStagesPass;

impl Pass for ExtractStagesPass {
    fn name(&self) -> &'static str {
        "stages"
    }

    fn output_stage(&self) -> Option<StageKind> {
        Some(StageKind::Staged)
    }

    fn run(
        &self,
        cx: &PassContext<'_>,
        diag: &mut Diagnostics,
        input: Artifact,
    ) -> Result<Artifact> {
        let Artifact::Source = input else {
            return Err(stage_mismatch(self.name(), "source", &input));
        };
        let stages = extract_stages(cx.graph, cx.arch, cx.options.weight_bits);
        diag.note(format!(
            "{} CIM stage(s) from {} graph node(s)",
            stages.len(),
            cx.graph.len()
        ));
        Ok(Artifact::Staged(Staged { stages }))
    }

    fn fingerprint(&self, cx: &PassContext<'_>) -> Option<Fingerprint> {
        // Stage extraction reads only the weight precision.
        Some(
            FingerprintBuilder::new("cim-mlc/pass/stages/v2")
                .u64(u64::from(cx.options.weight_bits))
                .finish(),
        )
    }
}

/// The `cg` pass: CG-grained scheduling (`Staged → CgScheduled`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CgPass;

impl Pass for CgPass {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn output_stage(&self) -> Option<StageKind> {
        Some(StageKind::Cg)
    }

    fn run(
        &self,
        cx: &PassContext<'_>,
        diag: &mut Diagnostics,
        input: Artifact,
    ) -> Result<Artifact> {
        let Artifact::Staged(staged) = input else {
            return Err(stage_mismatch(self.name(), "staged", &input));
        };
        let cg = schedule_cg_in(&cx.sched(), cx.graph.name(), staged.stages, cx.options.cg)?;
        diag.note(format!(
            "{} segment(s), {:.0} reprogram cycle(s)",
            cg.segments.len(),
            cg.report.reprogram_cycles
        ));
        Ok(Artifact::CgScheduled(Box::new(CgScheduled { cg })))
    }

    fn fingerprint(&self, cx: &PassContext<'_>) -> Option<Fingerprint> {
        // CG scheduling reads its feature toggles and the activation
        // precision; `level` stays out of the key, so `auto` and `cg`
        // jobs share this link.
        Some(
            FingerprintBuilder::new("cim-mlc/pass/cg/v2")
                .bool(cx.options.cg.pipeline)
                .bool(cx.options.cg.duplication)
                .u64(u64::from(cx.options.act_bits))
                .finish(),
        )
    }
}

/// The `mvm` pass: MVM-grained refinement (`CgScheduled → MvmScheduled`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MvmPass;

impl Pass for MvmPass {
    fn name(&self) -> &'static str {
        "mvm"
    }

    fn output_stage(&self) -> Option<StageKind> {
        Some(StageKind::Mvm)
    }

    fn run(
        &self,
        cx: &PassContext<'_>,
        diag: &mut Diagnostics,
        input: Artifact,
    ) -> Result<Artifact> {
        let Artifact::CgScheduled(a) = input else {
            return Err(stage_mismatch(self.name(), "cg", &input));
        };
        let cg = a.cg;
        let mvm = schedule_mvm_in(&cx.sched(), &cg, cx.options.mvm);
        let refined = mvm
            .segments
            .iter()
            .flat_map(|s| s.plans.iter())
            .zip(cg.segments.iter().flat_map(|s| s.plans.iter()))
            .filter(|(m, c)| m.duplication > c.duplication)
            .count();
        diag.note(format!(
            "duplication refined on {refined} stage(s), staggered={}",
            mvm.staggered
        ));
        Ok(Artifact::MvmScheduled(Box::new(MvmScheduled { cg, mvm })))
    }

    fn fingerprint(&self, cx: &PassContext<'_>) -> Option<Fingerprint> {
        Some(
            FingerprintBuilder::new("cim-mlc/pass/mvm/v2")
                .bool(cx.options.mvm.duplication)
                .bool(cx.options.mvm.pipeline)
                .u64(u64::from(cx.options.act_bits))
                .finish(),
        )
    }
}

/// The `vvm` pass: VVM-grained refinement (`MvmScheduled → VvmScheduled`).
#[derive(Debug, Clone, Copy, Default)]
pub struct VvmPass;

impl Pass for VvmPass {
    fn name(&self) -> &'static str {
        "vvm"
    }

    fn output_stage(&self) -> Option<StageKind> {
        Some(StageKind::Vvm)
    }

    fn run(
        &self,
        cx: &PassContext<'_>,
        diag: &mut Diagnostics,
        input: Artifact,
    ) -> Result<Artifact> {
        let Artifact::MvmScheduled(a) = input else {
            return Err(stage_mismatch(self.name(), "mvm", &input));
        };
        let MvmScheduled { cg, mvm } = *a;
        let vvm = schedule_vvm_in(&cx.sched(), &cg, &mvm);
        let remapped = vvm
            .spreads
            .iter()
            .flat_map(|s| s.iter())
            .filter(|&&k| k > 1)
            .count();
        diag.note(format!(
            "wordline remapping (spread > 1) on {remapped} stage(s)"
        ));
        Ok(Artifact::VvmScheduled(Box::new(VvmScheduled {
            cg,
            mvm,
            vvm,
        })))
    }

    fn fingerprint(&self, cx: &PassContext<'_>) -> Option<Fingerprint> {
        Some(
            FingerprintBuilder::new("cim-mlc/pass/vvm/v2")
                .u64(u64::from(cx.options.act_bits))
                .finish(),
        )
    }
}

/// The `codegen` pass: lowers any scheduled artifact into an executable
/// meta-operator flow (`CgScheduled | MvmScheduled | VvmScheduled →
/// Codegenned`).
///
/// [`CodegenPass::default`] keeps every statement of the flow.
/// [`CodegenPass::keeping`]`(keep)` stores only the first `keep`
/// ([`generate_flow_bounded`](codegen::generate_flow_bounded)): the
/// flow's counts, and its [`head(n)`](MopFlow::head) for every
/// `n <= keep`, are those of the whole flow, but it cannot be validated
/// or executed. The summary,
/// rendering and diagnostic report the pushed statement count, so they
/// read the same for both.
///
/// A served head runs the pass twice:
/// * `keeping(0)` is the *counting step*, named `codegen-count`. It walks
///   the whole flow and stores none of it, so its artifact holds the
///   schedules, the layout, the weight declarations and the whole flow's
///   counts, and stays small. It is the one codegen artifact a
///   [compile cache](crate::cache) banks: its [`Pass::fingerprint`] keys
///   every option the artifact carries, so a warm request skips the walk.
/// * Given that `Codegenned` artifact as input, `keeping(keep)` with
///   `keep > 0` (the *head step*, named `codegen`) adopts its counts and
///   generates only until the flow stores `keep` statements. The result
///   equals
///   [`generate_flow_bounded`](codegen::generate_flow_bounded)`(.., keep)`
///   exactly.
///
/// Any other `keep` has no fingerprint: a flow can reach
/// [`CompileOptions::max_flow_ops`] meta-operators, far too large to
/// bank, so the pass re-runs (its scheduled input, the expensive part,
/// still caches).
#[derive(Debug, Clone, Copy)]
pub struct CodegenPass {
    keep: usize,
}

impl Default for CodegenPass {
    fn default() -> Self {
        CodegenPass::keeping(usize::MAX)
    }
}

impl CodegenPass {
    /// A pass whose flow stores only its first `keep` statements; with
    /// `keep` 0, the counting step.
    #[must_use]
    pub fn keeping(keep: usize) -> Self {
        CodegenPass { keep }
    }
}

impl Pass for CodegenPass {
    fn name(&self) -> &'static str {
        if self.keep == 0 {
            "codegen-count"
        } else {
            "codegen"
        }
    }

    fn output_stage(&self) -> Option<StageKind> {
        Some(StageKind::Codegen)
    }

    fn run(
        &self,
        cx: &PassContext<'_>,
        diag: &mut Diagnostics,
        input: Artifact,
    ) -> Result<Artifact> {
        let (compiled, counted) = match input {
            Artifact::Codegenned(c) => {
                let Codegenned { compiled, flow, .. } = *c;
                (compiled, Some(flow))
            }
            Artifact::CgScheduled(_) | Artifact::MvmScheduled(_) | Artifact::VvmScheduled(_) => {
                let compiled = input.into_compiled(cx.graph.name(), cx.arch.name(), *cx.options)?;
                (compiled, None)
            }
            other => {
                return Err(stage_mismatch(
                    self.name(),
                    "cg, mvm, vvm or codegen",
                    &other,
                ))
            }
        };
        let (flow, layout) =
            codegen::generate(&compiled, cx.graph, cx.arch, self.keep, counted.as_ref())?;
        diag.note(format!("{} meta-operator(s)", flow.pushed()));
        Ok(Artifact::Codegenned(Box::new(Codegenned {
            compiled,
            flow,
            layout,
        })))
    }

    fn fingerprint(&self, cx: &PassContext<'_>) -> Option<Fingerprint> {
        // The counting step's artifact carries a `Compiled`, which holds
        // every option field, so every field is in the key; the graph
        // and architecture names (the flow's name) are in the chain's
        // source link.
        let o = cx.options;
        (self.keep == 0).then(|| {
            FingerprintBuilder::new("cim-mlc/pass/codegen-count/v1")
                .u64(u64::from(o.weight_bits))
                .u64(u64::from(o.act_bits))
                .bool(o.cg.pipeline)
                .bool(o.cg.duplication)
                .bool(o.mvm.duplication)
                .bool(o.mvm.pipeline)
                .str(o.level.name())
                .u64(o.max_flow_ops)
                .finish()
        })
    }
}

fn stage_mismatch(pass: &str, wants: &str, got: &Artifact) -> CompileError {
    CompileError::Internal {
        message: format!(
            "pass `{pass}` consumes a `{wants}` artifact but received `{}`",
            got.kind().name()
        ),
    }
}

// ---------------------------------------------------------------------------
// Pipeline and session.

/// An ordered list of passes, assembled by [`Pipeline::plan`] or by hand.
///
/// The pipeline is inert data; [`Pipeline::session`] binds it to a model
/// and target for execution.
#[derive(Default)]
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("passes", &self.names())
            .finish()
    }
}

impl Pipeline {
    /// An empty pipeline; push passes by hand.
    #[must_use]
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// The standard pass list for `options` against `arch` — the exact
    /// levels [`Compiler::compile`](crate::Compiler::compile) runs:
    /// `stages` and `cg` always; `mvm` when the target's computing mode
    /// and [`CompileOptions::level`] admit it; `vvm` likewise. Code
    /// generation is not included — append [`CodegenPass`] when the flow
    /// is wanted.
    #[must_use]
    pub fn plan(options: &CompileOptions, arch: &CimArchitecture) -> Self {
        let mut p = Pipeline::new();
        p.push(Box::new(ExtractStagesPass));
        p.push(Box::new(CgPass));
        let want_mvm = match options.level {
            OptLevel::Auto => arch.mode().supports(ComputingMode::Xbm),
            OptLevel::Cg => false,
            OptLevel::CgMvm | OptLevel::CgMvmVvm => true,
        } && arch.mode().supports(ComputingMode::Xbm);
        let want_vvm = match options.level {
            OptLevel::Auto => arch.mode().supports(ComputingMode::Wlm),
            OptLevel::CgMvmVvm => true,
            _ => false,
        } && arch.mode().supports(ComputingMode::Wlm)
            && want_mvm;
        if want_mvm {
            p.push(Box::new(MvmPass));
        }
        if want_vvm {
            p.push(Box::new(VvmPass));
        }
        p
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// The pass names, in execution order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Number of passes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline has no passes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Replaces the first pass named `name` with `pass`. Returns whether
    /// a pass was replaced.
    pub fn replace(&mut self, name: &str, pass: Box<dyn Pass>) -> bool {
        match self.passes.iter().position(|p| p.name() == name) {
            Some(i) => {
                self.passes[i] = pass;
                true
            }
            None => false,
        }
    }

    /// Removes the first pass named `name`. Returns whether a pass was
    /// removed.
    pub fn remove(&mut self, name: &str) -> bool {
        match self.passes.iter().position(|p| p.name() == name) {
            Some(i) => {
                self.passes.remove(i);
                true
            }
            None => false,
        }
    }

    /// Inserts `pass` immediately after the first pass named `name`.
    /// Returns whether the anchor was found.
    pub fn insert_after(&mut self, name: &str, pass: Box<dyn Pass>) -> bool {
        match self.passes.iter().position(|p| p.name() == name) {
            Some(i) => {
                self.passes.insert(i + 1, pass);
                true
            }
            None => false,
        }
    }

    /// Binds the pipeline to a model and target, ready to run.
    #[must_use]
    pub fn session<'a>(
        self,
        graph: &'a Graph,
        arch: &'a CimArchitecture,
        options: CompileOptions,
    ) -> Session<'a> {
        Session {
            graph: Cow::Borrowed(graph),
            arch: Cow::Borrowed(arch),
            options,
            passes: self.passes,
            cursor: 0,
            artifact: Artifact::Source,
            timeline: PassTimeline::default(),
            cache: None,
            chain: None,
            scratch: crate::scratch::ScratchArena::new(),
            memo: RegionMemo::new(),
            record_regions: false,
        }
    }
}

/// One compilation in flight: a pass list, a cursor, and the current
/// [`Artifact`].
///
/// Drive it with [`Session::step`] (pause between passes, inspect via
/// [`Session::artifact`], intervene via [`Session::artifact_mut`] or
/// [`Session::skip_next`], then resume), or all at once with
/// [`Session::run`] / [`Session::finish`].
///
/// If a pass fails, the session is poisoned: the artifact resets to
/// [`Artifact::Source`] (the failed pass consumed its input) and further
/// stepping re-runs from the failed pass, which will reject the stale
/// stage — start a fresh session instead.
pub struct Session<'a> {
    /// Borrowed from the caller on a fresh session; owned after
    /// [`Session::recompile`] (the delta produces a new graph) or
    /// [`Session::into_owned`].
    graph: Cow<'a, Graph>,
    arch: Cow<'a, CimArchitecture>,
    options: CompileOptions,
    passes: Vec<Box<dyn Pass>>,
    cursor: usize,
    artifact: Artifact,
    timeline: PassTimeline,
    /// Compile cache consulted before running passes, when attached.
    cache: Option<Arc<dyn CompileCache>>,
    /// Fingerprint of the pass chain that produced `artifact`; `None`
    /// when no cache is attached, an uncacheable pass ran, or the caller
    /// touched the artifact (see [`crate::cache`]'s invalidation rules).
    chain: Option<Fingerprint>,
    /// Pooled scratch buffers shared by every pass of this session.
    /// Reset-peak bracketing around each pass feeds
    /// [`PassRecord::scratch_peak_bytes`](crate::PassRecord::scratch_peak_bytes).
    scratch: crate::scratch::ScratchArena,
    /// Per-region schedule memo shared by every pass of this session (see
    /// [`crate::region`]). Populated on the first (cold) run; consulted
    /// by [`Session::recompile`] to reuse schedules for unedited regions.
    memo: RegionMemo,
    /// Whether [`Session::step`] records per-pass region hit/miss deltas
    /// into the timeline. Off on cold compiles (region counts would
    /// double-count intra-model repetition); on during
    /// [`Session::recompile`].
    record_regions: bool,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("model", &self.graph.name())
            .field("arch", &self.arch.name())
            .field("cursor", &self.cursor)
            .field(
                "passes",
                &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .field("stage", &self.artifact.kind().name())
            .finish()
    }
}

impl<'a> Session<'a> {
    /// The model being compiled.
    ///
    /// Since incremental recompilation landed, the session may own its
    /// graph (after [`Session::recompile`] or [`Session::into_owned`]),
    /// so the returned borrow is tied to `&self` rather than the
    /// session's lifetime parameter.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The target architecture. Borrow tied to `&self`, as with
    /// [`Session::graph`].
    #[must_use]
    pub fn arch(&self) -> &CimArchitecture {
        &self.arch
    }

    /// The options in force.
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Attaches a [`CompileCache`]: every subsequent cacheable pass is
    /// looked up by its [content-addressed fingerprint](crate::cache)
    /// before running ([`Session::run`] looks up the keys of every pass
    /// ahead at once), and stored after a miss. Outcomes land in the
    /// [`PassTimeline`]'s `cache` column, one per pass.
    ///
    /// Attach before the first [`Session::step`]; on a session that has
    /// already advanced, the artifact's provenance is unknown, so the
    /// cache is held but never consulted.
    #[must_use]
    pub fn with_cache(self, cache: Arc<dyn CompileCache>) -> Self {
        self.with_cache_keyed(cache, None)
    }

    /// [`Session::with_cache`] for a caller that may already hold the
    /// graph's [`fingerprint_graph`] — a server that memoises it per
    /// immutable model skips re-hashing the graph on every request.
    /// Debug builds check a given fingerprint against the graph.
    #[must_use]
    pub fn with_cache_keyed(
        mut self,
        cache: Arc<dyn CompileCache>,
        graph_fingerprint: Option<Fingerprint>,
    ) -> Self {
        debug_assert!(
            graph_fingerprint.is_none_or(|held| held == fingerprint_graph(&self.graph)),
            "stale graph fingerprint for `{}`",
            self.graph.name()
        );
        self.chain = (self.cursor == 0 && matches!(self.artifact, Artifact::Source)).then(|| {
            let graph = graph_fingerprint.unwrap_or_else(|| fingerprint_graph(&self.graph));
            source_fingerprint_of(graph, &self.arch)
        });
        self.cache = Some(cache);
        self
    }

    /// Name of the next pass to run, or `None` when the pipeline is done.
    #[must_use]
    pub fn next_pass(&self) -> Option<&'static str> {
        self.passes.get(self.cursor).map(|p| p.name())
    }

    /// Number of passes already executed or skipped.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.cursor
    }

    /// Whether every pass has run.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.cursor >= self.passes.len()
    }

    /// The current artifact.
    #[must_use]
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    /// Mutable access to the current artifact, for intervening between
    /// passes (edit stage plans, drop stages, …). The caller owns the
    /// consequences: later passes see the modified artifact.
    #[must_use]
    pub fn artifact_mut(&mut self) -> &mut Artifact {
        // The caller may change the artifact arbitrarily: its provenance
        // no longer matches the pass chain, so stop caching.
        self.chain = None;
        &mut self.artifact
    }

    /// Replaces the current artifact wholesale, returning the previous
    /// one — resume-from-elsewhere for checkpointed artifacts. Like
    /// [`Session::artifact_mut`], this stops compile-cache participation
    /// for the rest of the session.
    pub fn replace_artifact(&mut self, artifact: Artifact) -> Artifact {
        self.chain = None;
        std::mem::replace(&mut self.artifact, artifact)
    }

    /// The per-pass instrumentation collected so far.
    #[must_use]
    pub fn timeline(&self) -> &PassTimeline {
        &self.timeline
    }

    /// Runs the next pass. Returns `Ok(true)` if a pass ran, `Ok(false)`
    /// if the pipeline was already finished.
    ///
    /// With a cache attached, a fingerprinted pass is first looked up
    /// under its own key (a one-key [`CompileCache::load`]): a hit adopts
    /// the cached artifact, a miss runs the pass and stores its output.
    /// Stepping keeps every intermediate artifact in view, so it loads
    /// every pass's entry; [`Session::run`] loads only the deepest.
    ///
    /// # Errors
    /// Propagates the pass's [`crate::CompileError`]; see the type docs
    /// for the poisoning behaviour on failure.
    pub fn step(&mut self) -> Result<bool> {
        if self.is_finished() {
            return Ok(false);
        }
        self.advance(false)?;
        Ok(true)
    }

    /// Runs the next pass, or with `look_ahead` every pass one cache
    /// lookup can answer: the deepest artifact the cache holds for the
    /// run of passes [`Session::probe_keys`] keys is adopted, the passes
    /// up to it are recorded as served, and the passes after it run and
    /// store without a second lookup.
    fn advance(&mut self, look_ahead: bool) -> Result<()> {
        let keys = self.probe_keys(look_ahead);
        let started = TraceClock::global().stopwatch();
        let served = match (self.cache.as_ref(), keys.is_empty()) {
            (Some(cache), false) => cache.load(&keys),
            // No cache, a broken chain, or an unfingerprinted pass: the
            // chain stops here for the rest of the session.
            _ => {
                self.chain = None;
                return self.run_next(None, started);
            }
        };
        // The lookup's time is charged to the deepest pass it served, or
        // else to the first pass it did not.
        let (missed, mut clock) = match served {
            Some((depth, artifact)) => {
                self.serve(&keys[..=depth], artifact, started);
                (&keys[depth + 1..], None)
            }
            None => (&keys[..], Some(started)),
        };
        for &key in missed {
            let started = clock
                .take()
                .unwrap_or_else(|| TraceClock::global().stopwatch());
            self.run_next(Some(key), started)?;
        }
        Ok(())
    }

    /// The cache keys of the passes from the cursor on that one lookup
    /// may serve, shallowest first: none unless a cache is attached and
    /// the chain is unbroken; else the next pass's key, when it has a
    /// fingerprint, and with `look_ahead` the keys of the fingerprinted
    /// lowering passes after it. A served pass before the deepest is shown through the
    /// deepest artifact's view at its declared
    /// [`output_stage`](Pass::output_stage), so the run ends before a
    /// pass that declares none or does not lower (a rewrite), and after
    /// `codegen`, the one stage no deeper artifact has a view of.
    fn probe_keys(&self, look_ahead: bool) -> Vec<Fingerprint> {
        let mut keys = Vec::new();
        let (Some(_), Some(mut chain)) = (self.cache.as_ref(), self.chain) else {
            return keys;
        };
        let cx = self.context();
        let mut reached = self.artifact.kind();
        for pass in &self.passes[self.cursor..] {
            let lowers_to = pass.output_stage().filter(|&stage| stage > reached);
            if !keys.is_empty() && lowers_to.is_none() {
                break;
            }
            let Some(link) = pass.fingerprint(&cx) else {
                break;
            };
            chain = chain.chain(link);
            keys.push(chain);
            match lowers_to {
                Some(stage) if look_ahead && stage < StageKind::Codegen => reached = stage,
                _ => break,
            }
        }
        keys
    }

    /// Adopts `artifact`, the cache entry under the last of `keys`, as the
    /// output of the next `keys.len()` passes, one timeline record each.
    fn serve(&mut self, keys: &[Fingerprint], artifact: Artifact, started: Stopwatch<'_>) {
        let (wall_ms, loaded_us) = (started.elapsed_ms(), TraceClock::global().now_us());
        let deepest = keys.len() - 1;
        cim_obs::count("compile.passes", keys.len() as u64);
        cim_obs::count("compile.cache.hits", keys.len() as u64);
        for (depth, &key) in keys.iter().enumerate() {
            let pass = &self.passes[self.cursor];
            let stage = match pass.output_stage() {
                Some(stage) if depth < deepest => stage,
                _ => artifact.kind(),
            };
            let summary = artifact.summary_at(stage);
            debug_assert!(
                summary.is_some(),
                "pass `{}` declares output stage `{}`, of which the served `{}` artifact has no view",
                pass.name(),
                stage.name(),
                artifact.kind().name(),
            );
            let summary = summary.unwrap_or_default();
            let (wall_ms, end_us) = if depth == deepest {
                (wall_ms, loaded_us)
            } else {
                (0.0, started.start_us())
            };
            if cim_obs::enabled() {
                cim_obs::complete_span(
                    "pass",
                    pass.name(),
                    started.start_us(),
                    end_us,
                    vec![(keys::CACHE.name(), String::from("hit").into())],
                );
            }
            self.timeline
                .record_hit(pass.name(), stage, summary, wall_ms, key);
            self.cursor += 1;
        }
        self.artifact = artifact;
        self.chain = keys.last().copied();
    }

    /// Runs the next pass. With a `key` (the lookup under it missed) its
    /// output is stored there.
    fn run_next(&mut self, key: Option<Fingerprint>, started: Stopwatch<'_>) -> Result<()> {
        let input = std::mem::replace(&mut self.artifact, Artifact::Source);
        let pass = &self.passes[self.cursor];
        let cx = self.context();
        let mut span = cim_obs::span("pass", pass.name());
        cim_obs::count("compile.passes", 1);
        let mut diag = Diagnostics::default();
        self.scratch.reset_peak();
        let (region_hits_0, region_misses_0) = self.memo.counters();
        let output = match pass.run(&cx, &mut diag, input) {
            Ok(output) => output,
            Err(e) => {
                self.chain = None;
                return Err(e);
            }
        };
        let (region_hits_1, region_misses_1) = self.memo.counters();
        let (region_hits, region_misses) = if self.record_regions {
            (
                region_hits_1 - region_hits_0,
                region_misses_1 - region_misses_0,
            )
        } else {
            (0, 0)
        };
        if region_hits + region_misses > 0 {
            diag.note(format!(
                "regions: {region_hits} hit(s), {region_misses} miss(es)"
            ));
        }
        let scratch_peak = self.scratch.peak_bytes();
        let cache_outcome = match (self.cache.as_ref(), key) {
            (Some(cache), Some(key)) => {
                cim_obs::count("compile.cache.misses", 1);
                self.chain = Some(key);
                if cache.store(&key, &output) {
                    "miss+store"
                } else {
                    "miss"
                }
            }
            _ => "",
        };
        span.set(keys::CACHE, cache_outcome);
        span.set(keys::REGION_HITS, region_hits);
        span.set(keys::REGION_MISSES, region_misses);
        let wall_ms = started.elapsed_ms();
        self.timeline.record(
            pass.name(),
            &output,
            wall_ms,
            cache_outcome,
            scratch_peak,
            diag,
            region_hits,
            region_misses,
        );
        self.artifact = output;
        self.cursor += 1;
        Ok(())
    }

    /// What the passes read besides their input.
    fn context(&self) -> PassContext<'_> {
        PassContext {
            graph: &self.graph,
            arch: &self.arch,
            options: &self.options,
            scratch: &self.scratch,
            memo: &self.memo,
        }
    }

    /// Skips the next pass without running it, recording the skip in the
    /// timeline. Returns the skipped pass's name, or `None` when the
    /// pipeline is finished. Skipping stops compile-cache participation
    /// for the rest of the session (the artifact no longer corresponds
    /// to the executed pass chain).
    pub fn skip_next(&mut self) -> Option<&'static str> {
        let name = self.passes.get(self.cursor).map(|p| p.name())?;
        self.chain = None;
        self.timeline.record_skip(name);
        self.cursor += 1;
        Some(name)
    }

    /// Runs every remaining pass.
    ///
    /// With a cache attached, the keys of the fingerprinted passes ahead
    /// are computed up front and the cache is asked once for the deepest
    /// artifact it holds ([`CompileCache::load`] with the key chain).
    /// Artifacts are cumulative, so that one artifact serves every pass up
    /// to it: each still gets its timeline record, with `cache: "hit"` and
    /// the stage and summary a [`Session::step`] loop would show. Only the
    /// passes after it run, each storing its output. A pass that declares
    /// no [`output_stage`](Pass::output_stage), such as a custom rewrite
    /// pass, ends the look-ahead and is looked up on its own.
    ///
    /// # Errors
    /// Propagates the first failing pass's error.
    pub fn run(&mut self) -> Result<()> {
        while !self.is_finished() {
            self.advance(true)?;
        }
        Ok(())
    }

    /// Runs every remaining pass and converts the final artifact into the
    /// one-shot [`Compiled`] result.
    ///
    /// # Errors
    /// Propagates pass errors, or [`CompileError::Internal`] when the
    /// pipeline never produced a schedule.
    pub fn finish(mut self) -> Result<Compiled> {
        self.run()?;
        self.artifact
            .into_compiled(self.graph.name(), self.arch.name(), self.options)
    }

    /// Tears the session down into its final artifact and timeline
    /// without converting to [`Compiled`].
    #[must_use]
    pub fn into_parts(self) -> (Artifact, PassTimeline) {
        (self.artifact, self.timeline)
    }

    /// Converts the current artifact into a [`Compiled`] result without
    /// consuming the session — the inspection point after
    /// [`Session::recompile`], which keeps the session alive for further
    /// deltas.
    ///
    /// # Errors
    /// [`CompileError::Internal`] when no scheduling level has run yet.
    pub fn compiled(&self) -> Result<Compiled> {
        self.artifact
            .clone()
            .into_compiled(self.graph.name(), self.arch.name(), self.options)
    }

    /// Applies a typed [`GraphDelta`] to the session's graph and re-runs
    /// the pipeline, reusing per-region schedules for every segment whose
    /// region content the delta did not touch (see [`crate::region`]).
    ///
    /// This is the sole graph-mutation entry point that preserves
    /// incremental state: [`Session::artifact_mut`] /
    /// [`Session::replace_artifact`] hand the artifact to the caller and
    /// stop cache participation, whereas `recompile` re-derives
    /// everything from the mutated graph. The timeline is reset so its
    /// records (including the per-pass
    /// [`region_hits`](crate::PassRecord::region_hits) /
    /// [`region_misses`](crate::PassRecord::region_misses) columns)
    /// describe this recompilation alone; the scheduling memo persists,
    /// which is what makes the recompile incremental. Works from any
    /// session state, including a partially-stepped or failed one — the
    /// cursor rewinds to the first pass.
    ///
    /// The result is bit-identical to a fresh compile of the mutated
    /// graph: region keys hash everything the schedulers read, so a memo
    /// hit returns exactly what rescheduling would have computed.
    ///
    /// # Errors
    /// [`CompileError::InvalidDelta`] when the delta does not validate
    /// against the current graph (the message names the offending node or
    /// edge); pass errors as [`Session::run`].
    pub fn recompile(&mut self, delta: &GraphDelta) -> Result<()> {
        let mutated = delta
            .apply(&self.graph)
            .map_err(|e| CompileError::InvalidDelta {
                message: e.to_string(),
            })?;
        self.graph = Cow::Owned(mutated);
        self.cursor = 0;
        self.artifact = Artifact::Source;
        self.timeline = PassTimeline::default();
        if self.cache.is_some() {
            self.chain = Some(source_fingerprint(&self.graph, &self.arch));
        }
        self.record_regions = true;
        self.run()
    }

    /// Detaches the session from its borrowed inputs by cloning the graph
    /// and architecture into the session, yielding a `Session<'static>`
    /// that can outlive the caller's data — what `cimc serve` uses to pin
    /// sessions across requests for [`Session::recompile`].
    #[must_use]
    pub fn into_owned(self) -> Session<'static> {
        Session {
            graph: Cow::Owned(self.graph.into_owned()),
            arch: Cow::Owned(self.arch.into_owned()),
            options: self.options,
            passes: self.passes,
            cursor: self.cursor,
            artifact: self.artifact,
            timeline: self.timeline,
            cache: self.cache,
            chain: self.chain,
            scratch: self.scratch,
            memo: self.memo,
            record_regions: self.record_regions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use cim_arch::presets;
    use cim_graph::zoo;

    #[test]
    fn plan_matches_computing_mode() {
        let opts = CompileOptions::default();
        assert_eq!(
            Pipeline::plan(&opts, &presets::jia_isscc21()).names(),
            ["stages", "cg"]
        );
        assert_eq!(
            Pipeline::plan(&opts, &presets::isaac_baseline()).names(),
            ["stages", "cg", "mvm"]
        );
        assert_eq!(
            Pipeline::plan(&opts, &presets::jain_sram()).names(),
            ["stages", "cg", "mvm", "vvm"]
        );
    }

    #[test]
    fn plan_honours_explicit_level() {
        let opts = CompileOptions {
            level: OptLevel::Cg,
            ..CompileOptions::default()
        };
        assert_eq!(
            Pipeline::plan(&opts, &presets::jain_sram()).names(),
            ["stages", "cg"]
        );
        // Requesting deeper levels than the mode supports degrades.
        let opts = CompileOptions {
            level: OptLevel::CgMvmVvm,
            ..CompileOptions::default()
        };
        assert_eq!(
            Pipeline::plan(&opts, &presets::jia_isscc21()).names(),
            ["stages", "cg"]
        );
    }

    #[test]
    fn stepped_session_produces_cumulative_artifacts() {
        let graph = zoo::lenet5();
        let arch = presets::jain_sram();
        let opts = CompileOptions::default();
        let mut session = Pipeline::plan(&opts, &arch).session(&graph, &arch, opts);
        let mut kinds = vec![session.artifact().kind()];
        while session.step().unwrap() {
            kinds.push(session.artifact().kind());
        }
        assert_eq!(
            kinds,
            [
                StageKind::Source,
                StageKind::Staged,
                StageKind::Cg,
                StageKind::Mvm,
                StageKind::Vvm
            ]
        );
        assert_eq!(session.timeline().records.len(), 4);
        let compiled = session.finish().unwrap();
        assert_eq!(compiled.report().level, "cg+mvm+vvm");
    }

    #[test]
    fn codegen_pass_produces_a_flow() {
        let graph = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let opts = CompileOptions::default();
        let mut pipeline = Pipeline::plan(&opts, &arch);
        pipeline.push(Box::new(CodegenPass::default()));
        let mut session = pipeline.session(&graph, &arch, opts);
        session.run().unwrap();
        assert_eq!(session.artifact().kind(), StageKind::Codegen);
        assert!(!session.artifact().flow().unwrap().stmts().is_empty());
        let (flow, layout) = crate::codegen::generate_flow(
            &Compiler::new().compile(&graph, &arch).unwrap(),
            &graph,
            &arch,
        )
        .unwrap();
        assert_eq!(session.artifact().flow().unwrap(), &flow);
        assert_eq!(
            session.artifact().layout().unwrap().total_elements(),
            layout.total_elements()
        );
    }

    #[test]
    fn pass_on_wrong_stage_is_an_internal_error() {
        let graph = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let opts = CompileOptions::default();
        let mut pipeline = Pipeline::new();
        pipeline.push(Box::new(MvmPass)); // needs a cg artifact, gets source
        let mut session = pipeline.session(&graph, &arch, opts);
        let err = session.step().unwrap_err();
        assert!(matches!(err, CompileError::Internal { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("mvm") && msg.contains("source"), "{msg}");
    }

    #[test]
    fn stage_kind_names_round_trip() {
        for kind in [
            StageKind::Source,
            StageKind::Staged,
            StageKind::Cg,
            StageKind::Mvm,
            StageKind::Vvm,
            StageKind::Codegen,
        ] {
            assert_eq!(StageKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(StageKind::parse("bogus"), None);
    }

    #[test]
    fn recompile_matches_fresh_compile_and_reuses_regions() {
        let graph = zoo::vit_base();
        let arch = presets::isaac_baseline();
        let opts = CompileOptions::default();
        let mut session = Pipeline::plan(&opts, &arch).session(&graph, &arch, opts);
        session.run().unwrap();

        // Retune one layer's fc1 width; every other layer keeps its
        // region content.
        let delta = cim_graph::GraphDelta::new().with(cim_graph::GraphEdit::RetuneOpParams {
            node: "l4.fc1".into(),
            op: cim_graph::OpKind::Linear { out_features: 1024 },
        });
        session.recompile(&delta).unwrap();
        let incremental = session.compiled().unwrap();

        let fresh_graph = delta.apply(&graph).unwrap();
        let fresh = Compiler::new().compile(&fresh_graph, &arch).unwrap();
        assert_eq!(incremental.cg, fresh.cg);
        assert_eq!(incremental.mvm, fresh.mvm);
        assert_eq!(incremental.vvm, fresh.vvm);

        // The unedited regions were answered from the memo.
        let (hits, misses) = session.timeline().region_stats();
        assert!(hits > 0, "no region hits ({hits} hit / {misses} miss)");
        assert!(
            session.timeline().records.iter().any(|r| r.region_hits > 0),
            "no pass recorded region hits"
        );
    }

    #[test]
    fn recompile_rejects_invalid_deltas() {
        let graph = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let opts = CompileOptions::default();
        let mut session = Pipeline::plan(&opts, &arch).session(&graph, &arch, opts);
        session.run().unwrap();
        let delta = cim_graph::GraphDelta::new().with(cim_graph::GraphEdit::RemoveNode {
            node: "no-such-node".into(),
        });
        let err = session.recompile(&delta).unwrap_err();
        assert!(matches!(err, CompileError::InvalidDelta { .. }), "{err}");
        assert!(err.to_string().contains("no-such-node"), "{err}");
    }

    #[test]
    fn pipeline_edits_find_their_anchor() {
        let opts = CompileOptions::default();
        let arch = presets::isaac_baseline();
        let mut p = Pipeline::plan(&opts, &arch);
        assert!(p.remove("mvm"));
        assert!(!p.remove("mvm"));
        assert!(p.insert_after("cg", Box::new(MvmPass)));
        assert!(p.replace("mvm", Box::new(MvmPass)));
        assert!(!p.replace("vvm", Box::new(VvmPass)));
        assert_eq!(p.names(), ["stages", "cg", "mvm"]);
    }
}
