//! The top-level compiler driver (paper Figure 3).

use crate::cache::CompileCache;
use crate::cg::{CgOptions, CgSchedule, Segment};
use crate::metrics::CompileMetrics;
use crate::mvm::{MvmOptions, MvmSchedule};
use crate::perf::PerfReport;
use crate::pipeline::{Pipeline, Session};
use crate::pool::run_ordered;
use crate::vvm::VvmSchedule;
use crate::Result;
use cim_arch::CimArchitecture;
use cim_graph::Graph;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How far down the multi-level scheduler should go.
///
/// The default, [`OptLevel::Auto`], follows the paper's workflow
/// (Figure 3): the computing mode of the target decides which levels run —
/// CG for CM, CG+MVM for XBM, CG+MVM+VVM for WLM. The explicit levels
/// exist for the ablation studies of Figures 21 and 22, and form the
/// scheduling-depth axis of sweeps and design-space exploration; their
/// stable names ([`OptLevel::name`]) are what reports and the CLI carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum OptLevel {
    /// Decide from the target's computing mode.
    #[default]
    Auto,
    /// Stop after CG-grained optimization.
    Cg,
    /// Stop after MVM-grained optimization (requires XBM or WLM).
    CgMvm,
    /// Run all three levels (requires WLM).
    CgMvmVvm,
}

impl OptLevel {
    /// Every level, in scheduling-depth order.
    pub const ALL: [Self; 4] = [Self::Auto, Self::Cg, Self::CgMvm, Self::CgMvmVvm];

    /// Stable name used in job keys, reports and the CLI (also the
    /// serialized form).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Auto => "auto",
            OptLevel::Cg => "cg",
            OptLevel::CgMvm => "cg_mvm",
            OptLevel::CgMvmVvm => "cg_mvm_vvm",
        }
    }

    /// Parses a name produced by [`OptLevel::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<OptLevel> {
        OptLevel::ALL.into_iter().find(|l| l.name() == name)
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` (not `write_str`) so table columns can width-format levels.
        f.pad(self.name())
    }
}

/// Compiler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Weight precision in bits (the paper's evaluation uses 8).
    pub weight_bits: u32,
    /// Activation precision in bits (8 in the paper).
    pub act_bits: u32,
    /// CG-grained feature toggles.
    pub cg: CgOptions,
    /// MVM-grained feature toggles.
    pub mvm: MvmOptions,
    /// Scheduling depth.
    pub level: OptLevel,
    /// Upper bound on generated meta-operators when code generation is
    /// requested (guards against emitting multi-gigabyte flows for
    /// ImageNet-scale models).
    pub max_flow_ops: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            weight_bits: 8,
            act_bits: 8,
            cg: CgOptions::full(),
            mvm: MvmOptions::full(),
            level: OptLevel::Auto,
            max_flow_ops: 20_000_000,
        }
    }
}

/// The CIM-MLC compiler.
///
/// Stateless apart from its options; reuse one instance across models and
/// architectures.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    options: CompileOptions,
}

impl Compiler {
    /// A compiler with default options (full optimization, 8-bit data).
    #[must_use]
    pub fn new() -> Self {
        Compiler::default()
    }

    /// A compiler with explicit options.
    #[must_use]
    pub fn with_options(options: CompileOptions) -> Self {
        Compiler { options }
    }

    /// The active options.
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Compiles `graph` for `arch`, running the scheduling levels the
    /// target's computing mode admits (or fewer, per
    /// [`CompileOptions::level`]).
    ///
    /// This is a thin wrapper over the staged pipeline: it runs
    /// [`Pipeline::plan`]'s pass list to completion in one call. Use
    /// [`Compiler::session`] to pause, inspect intermediate artifacts,
    /// or swap passes.
    ///
    /// # Errors
    /// Propagates scheduling errors (nothing to map, operator too large,
    /// unsupported dynamic weights).
    pub fn compile(&self, graph: &Graph, arch: &CimArchitecture) -> Result<Compiled> {
        self.session(graph, arch).finish()
    }

    /// Starts a staged compilation [`Session`] over [`Pipeline::plan`]'s
    /// pass list — the resumable, inspectable form of
    /// [`Compiler::compile`].
    #[must_use]
    pub fn session<'a>(&self, graph: &'a Graph, arch: &'a CimArchitecture) -> Session<'a> {
        Pipeline::plan(&self.options, arch).session(graph, arch, self.options)
    }
}

/// One job of [`compile_batch`]: a model, a target, and the scheduling
/// depth — the only option batch callers vary.
#[derive(Debug, Clone, Copy)]
pub struct BatchJob<'a> {
    /// The model to compile.
    pub graph: &'a Graph,
    /// The target architecture.
    pub arch: &'a CimArchitecture,
    /// Scheduling depth.
    pub level: OptLevel,
}

/// Compiles every job on `threads` workers (through `cache` when given)
/// and returns each job's metrics with its wall-clock compile time in
/// milliseconds, in input order — the one evaluation step that sweeps,
/// design-space exploration and traffic pricing share.
///
/// A failing job yields `Err` at its own index without disturbing the
/// others. Results other than the timings are identical for every
/// `threads` value and cache state (the [`crate::Pass`] purity contract).
///
/// # Panics
/// Panics if a worker thread panics (a bug in the compiler stack, not an
/// input error).
#[must_use]
pub fn compile_batch(
    jobs: &[BatchJob<'_>],
    threads: usize,
    cache: Option<&Arc<dyn CompileCache>>,
) -> Vec<Result<(CompileMetrics, f64)>> {
    run_ordered(jobs, threads, |job| {
        let options = CompileOptions {
            level: job.level,
            ..CompileOptions::default()
        };
        let started = cim_obs::stopwatch();
        let mut session = Compiler::with_options(options).session(job.graph, job.arch);
        if let Some(cache) = cache {
            session = session.with_cache(Arc::clone(cache));
        }
        let compiled = session.finish()?;
        let compile_ms = started.elapsed_ms();
        Ok((compiled.metrics(job.arch), compile_ms))
    })
}

/// The result of compiling one model for one architecture: the per-level
/// schedules and their reports.
#[derive(Debug, Clone)]
pub struct Compiled {
    model: String,
    arch_name: String,
    options: CompileOptions,
    /// CG-grained schedule (always present).
    pub cg: CgSchedule,
    /// MVM-grained refinement (XBM/WLM targets).
    pub mvm: Option<MvmSchedule>,
    /// VVM-grained refinement (WLM targets).
    pub vvm: Option<VvmSchedule>,
}

impl Compiled {
    /// Assembles a compiled artifact from pipeline outputs (the pipeline
    /// is the only producer of `Compiled` values).
    pub(crate) fn from_parts(
        model: String,
        arch_name: String,
        options: CompileOptions,
        cg: CgSchedule,
        mvm: Option<MvmSchedule>,
        vvm: Option<VvmSchedule>,
    ) -> Self {
        Compiled {
            model,
            arch_name,
            options,
            cg,
            mvm,
            vvm,
        }
    }

    /// The compiled model's name.
    #[must_use]
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The target architecture's name.
    #[must_use]
    pub fn arch_name(&self) -> &str {
        &self.arch_name
    }

    /// The options used.
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The segments and report of the deepest scheduling level that ran.
    fn deepest(&self) -> (&[Segment], &PerfReport) {
        if let Some(v) = &self.vvm {
            (&v.segments, &v.report)
        } else if let Some(m) = &self.mvm {
            (&m.segments, &m.report)
        } else {
            (&self.cg.segments, &self.cg.report)
        }
    }

    /// The report of the deepest scheduling level that ran.
    #[must_use]
    pub fn report(&self) -> &PerfReport {
        self.deepest().1
    }

    /// The final segments (deepest level), in execution order.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        self.deepest().0
    }

    /// Reports of every level that ran, coarse to fine.
    #[must_use]
    pub fn reports(&self) -> Vec<&PerfReport> {
        let mut out = vec![&self.cg.report];
        if let Some(m) = &self.mvm {
            out.push(&m.report);
        }
        if let Some(v) = &self.vvm {
            out.push(&v.report);
        }
        out
    }

    /// The steady-state initiation interval for batch processing: with the
    /// inter-operator pipeline running, a new image can enter the chip
    /// every bottleneck-stage interval; without it (or across segments),
    /// images serialize. This is the quantity a batch pipeline
    /// (Poly-Schedule's strength) optimizes — single-image latency, which
    /// the paper reports, is [`PerfReport::latency_cycles`].
    #[must_use]
    pub fn steady_state_interval(&self) -> f64 {
        let segments = self.segments();
        if !self.cg.options.pipeline || segments.len() > 1 {
            // Reprogramming between segments blocks overlap entirely.
            return self.report().latency_cycles;
        }
        segments
            .iter()
            .flat_map(|s| s.plans.iter())
            .map(|p| p.latency)
            .fold(0.0, f64::max)
    }

    /// Renders the final schedule as a text table: one row per stage with
    /// its segment, duplication, cores, folds and latency — the compiler's
    /// explain-plan.
    #[must_use]
    pub fn render_schedule(&self) -> String {
        format!(
            "schedule: {} on {}\n{}",
            self.model,
            self.arch_name,
            crate::pipeline::render_plan_table(&self.cg.stages, self.segments(), self.report())
        )
    }

    /// The final per-stage plans (deepest level), flattened across
    /// segments in execution order.
    #[must_use]
    pub fn final_plans(&self) -> Vec<&crate::cg::StagePlan> {
        self.segments().iter().flat_map(|s| &s.plans).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::presets;
    use cim_graph::zoo;

    #[test]
    fn auto_level_follows_computing_mode() {
        let g = zoo::lenet5();
        let cm = Compiler::new()
            .compile(&g, &presets::jia_isscc21())
            .unwrap();
        assert!(cm.mvm.is_none() && cm.vvm.is_none());
        assert_eq!(cm.report().level, "cg");

        let xbm = Compiler::new()
            .compile(&g, &presets::isaac_baseline())
            .unwrap();
        assert!(xbm.mvm.is_some() && xbm.vvm.is_none());
        assert_eq!(xbm.report().level, "cg+mvm");

        let wlm = Compiler::new().compile(&g, &presets::jain_sram()).unwrap();
        assert!(wlm.mvm.is_some() && wlm.vvm.is_some());
        assert_eq!(wlm.report().level, "cg+mvm+vvm");
    }

    #[test]
    fn explicit_level_caps_depth() {
        let g = zoo::lenet5();
        let opts = CompileOptions {
            level: OptLevel::Cg,
            ..CompileOptions::default()
        };
        let c = Compiler::with_options(opts)
            .compile(&g, &presets::jain_sram())
            .unwrap();
        assert!(c.mvm.is_none());
    }

    #[test]
    fn explicit_level_never_exceeds_mode() {
        // Requesting VVM on a CM machine silently degrades to CG: the
        // hardware interface simply does not exist.
        let g = zoo::lenet5();
        let opts = CompileOptions {
            level: OptLevel::CgMvmVvm,
            ..CompileOptions::default()
        };
        let c = Compiler::with_options(opts)
            .compile(&g, &presets::jia_isscc21())
            .unwrap();
        assert!(c.mvm.is_none() && c.vvm.is_none());
    }

    #[test]
    fn deeper_levels_never_slower() {
        let g = zoo::vgg7();
        let c = Compiler::new()
            .compile(&g, &presets::isaac_baseline_wlm())
            .unwrap();
        let reports = c.reports();
        for w in reports.windows(2) {
            assert!(
                w[1].latency_cycles <= w[0].latency_cycles * 1.0001,
                "{} ({}) slower than {} ({})",
                w[1].level,
                w[1].latency_cycles,
                w[0].level,
                w[0].latency_cycles
            );
        }
    }

    #[test]
    fn steady_state_interval_bounded_by_latency() {
        for arch in [presets::isaac_baseline(), presets::jia_isscc21()] {
            for g in [zoo::lenet5(), zoo::vgg7()] {
                let c = Compiler::new().compile(&g, &arch).unwrap();
                let interval = c.steady_state_interval();
                assert!(interval > 0.0);
                assert!(
                    interval <= c.report().latency_cycles * 1.0001,
                    "{} on {}: interval {} > latency {}",
                    g.name(),
                    arch.name(),
                    interval,
                    c.report().latency_cycles
                );
            }
        }
    }

    #[test]
    fn energy_is_invariant_across_levels() {
        // Scheduling rearranges when activations happen, not how many —
        // every level reports the same inference energy.
        let g = zoo::vgg7();
        let c = Compiler::new()
            .compile(&g, &presets::isaac_baseline_wlm())
            .unwrap();
        let energies: Vec<f64> = c.reports().iter().map(|r| r.energy.total()).collect();
        for e in &energies {
            assert!(*e > 0.0);
            assert!((e - energies[0]).abs() < 1e-6 * energies[0]);
        }
        // Crossbar activation dominates inference energy on CIM designs.
        let b = &c.report().energy;
        assert!(b.crossbar > b.movement + b.alu, "{b:?}");
    }

    #[test]
    fn render_schedule_lists_every_stage() {
        let g = zoo::lenet5();
        let c = Compiler::new()
            .compile(&g, &presets::isaac_baseline())
            .unwrap();
        let text = c.render_schedule();
        for stage in &c.cg.stages {
            assert!(text.contains(stage.name.as_str()), "missing {}", stage.name);
        }
        assert!(text.contains("total:"));
        assert!(text.contains("cg+mvm"));
    }

    #[test]
    fn opt_level_names_round_trip() {
        let names = ["auto", "cg", "cg_mvm", "cg_mvm_vvm"];
        for (level, name) in OptLevel::ALL.into_iter().zip(names) {
            assert_eq!((level.name(), OptLevel::parse(name)), (name, Some(level)));
            // The serialized names are the report/wire vocabulary.
            let json = format!("\"{name}\"");
            assert_eq!(serde_json::to_string(&level).unwrap(), json);
            assert_eq!(serde_json::from_str::<OptLevel>(&json).unwrap(), level);
        }
        assert_eq!(OptLevel::parse("bogus"), None);
        // Table columns width-format levels (`cimc bench`'s job table).
        let padded = format!("[{:<8}|{:>8}]", OptLevel::Cg, OptLevel::CgMvm);
        assert_eq!(padded, "[cg      |  cg_mvm]");
    }

    /// Runs a four-job batch — two zoo models on two presets at several
    /// levels, plus (index 2) a model with no CIM operator, which fails —
    /// keeping each job's metrics or rendered error.
    fn run_batch(
        threads: usize,
        cache: Option<&Arc<dyn CompileCache>>,
    ) -> Vec<std::result::Result<CompileMetrics, String>> {
        let mut digital = Graph::new("digital-only");
        let input = cim_graph::OpKind::Input {
            shape: cim_graph::Shape::vec(8),
        };
        let x = digital.add("x", input, []).unwrap();
        digital.add("r", cim_graph::OpKind::Relu, [x]).unwrap();
        let graphs = [zoo::lenet5(), zoo::mlp(), digital];
        let archs = [presets::isaac_baseline(), presets::jain_sram()];
        let jobs = [
            (0, 0, OptLevel::Auto),
            (1, 1, OptLevel::Cg),
            (2, 0, OptLevel::Auto),
            (0, 1, OptLevel::CgMvmVvm),
        ]
        .map(|(g, a, level)| BatchJob {
            graph: &graphs[g],
            arch: &archs[a],
            level,
        });
        compile_batch(&jobs, threads, cache)
            .into_iter()
            .map(|r| r.map(|(m, _)| m).map_err(|e| e.to_string()))
            .collect()
    }

    #[test]
    fn compile_batch_is_ordered_and_independent_of_threads_and_cache() {
        let reference = run_batch(1, None);
        // Input order: each slot holds its own job's compile.
        let isaac = presets::isaac_baseline();
        let lenet5 = Compiler::new().compile(&zoo::lenet5(), &isaac).unwrap();
        assert_eq!(reference[0], Ok(lenet5.metrics(&isaac)));
        let levels: Vec<_> = reference
            .iter()
            .map(|r| Some(r.as_ref().ok()?.level))
            .collect();
        assert_eq!(
            levels,
            [Some("cg+mvm"), Some("cg"), None, Some("cg+mvm+vvm")]
        );
        let cache: Arc<dyn CompileCache> = Arc::new(crate::MemoryCache::new());
        for threads in [2, 4] {
            assert_eq!(run_batch(threads, None), reference);
            assert_eq!(run_batch(threads, Some(&cache)), reference);
        }
    }

    #[test]
    fn a_failing_batch_job_errs_at_its_own_index() {
        let outcomes = run_batch(2, None);
        let ok: Vec<bool> = outcomes.iter().map(std::result::Result::is_ok).collect();
        assert_eq!(ok, [true, true, false, true]);
        let err = outcomes[2].as_ref().unwrap_err();
        assert!(err.contains("no CIM-supported operators"), "{err}");
    }

    #[test]
    fn final_plans_cover_all_stages() {
        let g = zoo::vgg7();
        let c = Compiler::new()
            .compile(&g, &presets::isaac_baseline())
            .unwrap();
        assert_eq!(c.final_plans().len(), c.cg.stages.len());
        assert_eq!(c.model(), "vgg7");
        assert!(c.arch_name().contains("ISAAC"));
    }
}
