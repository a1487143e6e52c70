//! Equivalence and intervention tests for the staged pass pipeline.
//!
//! The load-bearing guarantee of the API redesign: driving the pipeline
//! pass by pass — with arbitrary pauses and inspections in between — is
//! *provably equivalent* to the legacy one-shot `Compiler::compile`
//! wrapper, across the full zoo × preset × level matrix, including the
//! generated meta-operator flows. On top of that, the intervention
//! surface (skip, replace, artifact mutation) and the serde round-trips
//! of the report types get targeted unit tests.

use std::sync::Arc;

use cim_arch::{presets, CimArchitecture};
use cim_compiler::{
    codegen, Artifact, CodegenPass, CompileCache, CompileError, CompileMetrics, CompileOptions,
    Compiler, Diagnostics, DiskCache, OptLevel, Pass, PassContext, PerfReport, Pipeline, StageKind,
};
use cim_graph::{zoo, Graph};
use proptest::prelude::*;

fn options_for(level: OptLevel) -> CompileOptions {
    CompileOptions {
        level,
        ..CompileOptions::default()
    }
}

/// Runs the staged pipeline step by step and returns the finished
/// artifact as `Compiled`, mirroring what `Compiler::compile` does in
/// one call.
fn staged_compile(
    graph: &cim_graph::Graph,
    arch: &cim_arch::CimArchitecture,
    options: CompileOptions,
) -> Result<cim_compiler::Compiled, CompileError> {
    let mut session = Pipeline::plan(&options, arch).session(graph, arch, options);
    while session.step()? {}
    session.finish()
}

#[test]
fn staged_pipeline_equals_one_shot_across_the_full_matrix() {
    for model in zoo::NAMES {
        let graph = zoo::by_name(model).unwrap();
        for preset in presets::NAMES {
            let arch = presets::by_name(preset).unwrap();
            for level in OptLevel::ALL {
                let options = options_for(level);
                let one_shot = Compiler::with_options(options).compile(&graph, &arch);
                let staged = staged_compile(&graph, &arch, options);
                match (one_shot, staged) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.reports(),
                            b.reports(),
                            "{model}@{preset} level {level:?}: reports diverge"
                        );
                        assert_eq!(
                            a.metrics(&arch),
                            b.metrics(&arch),
                            "{model}@{preset} level {level:?}: metrics diverge"
                        );
                        assert_eq!(a.model(), b.model());
                        assert_eq!(a.arch_name(), b.arch_name());
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{model}@{preset} level {level:?}: errors diverge");
                    }
                    (a, b) => panic!(
                        "{model}@{preset} level {level:?}: one path failed, the other did not \
                         (one-shot ok: {}, staged ok: {})",
                        a.is_ok(),
                        b.is_ok()
                    ),
                }
            }
        }
    }
}

#[test]
fn staged_pipeline_generates_identical_flows() {
    // MOP-flow equivalence on the models small enough to lower quickly.
    for model in ["lenet5", "mlp", "vgg7"] {
        let graph = zoo::by_name(model).unwrap();
        for preset in ["isaac", "jia", "jain", "table2"] {
            let arch = presets::by_name(preset).unwrap();
            let options = CompileOptions::default();
            let compiled = Compiler::with_options(options)
                .compile(&graph, &arch)
                .unwrap();
            let one_shot = cim_compiler::codegen::generate_flow(&compiled, &graph, &arch);

            let mut pipeline = Pipeline::plan(&options, &arch);
            pipeline.push(Box::new(CodegenPass::default()));
            let mut session = pipeline.session(&graph, &arch, options);
            let staged = session.run();
            match (one_shot, staged) {
                (Ok((flow, layout)), Ok(())) => {
                    assert_eq!(
                        session.artifact().flow().unwrap(),
                        &flow,
                        "{model}@{preset}: flows diverge"
                    );
                    assert_eq!(
                        session.artifact().layout().unwrap().total_elements(),
                        layout.total_elements(),
                        "{model}@{preset}: layouts diverge"
                    );
                }
                // Schedules codegen cannot lower (e.g. folded operators)
                // must fail identically on both paths.
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{model}@{preset}: codegen errors diverge");
                }
                (a, b) => panic!(
                    "{model}@{preset}: one codegen path failed, the other did not \
                     (one-shot ok: {}, staged ok: {})",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

/// The served flow head: `keeping(0)` counts the whole flow, then the
/// head step over those known counts generates only what it keeps. Cold
/// (the count is computed and stored) and warm (it comes back through
/// the disk codec), it equals `generate_flow_bounded` on every zoo model
/// × preset at every cut, and refuses exactly as it does.
#[test]
fn the_head_step_over_known_counts_is_the_bounded_flow() {
    let options = CompileOptions::default();
    let dir = std::env::temp_dir().join(format!("cim-head-step-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
    let served = |graph: &Graph, arch: &CimArchitecture, keep: usize| {
        let mut pipeline = Pipeline::plan(&options, arch);
        pipeline.push(Box::new(CodegenPass::keeping(0)));
        pipeline.push(Box::new(CodegenPass::keeping(keep)));
        let mut session = pipeline
            .session(graph, arch, options)
            .with_cache(Arc::clone(&cache));
        session.run()?;
        let (artifact, timeline) = session.into_parts();
        let Artifact::Codegenned(c) = artifact else {
            panic!("the head step leaves a flow")
        };
        let count = timeline.records.iter().find(|r| r.pass == "codegen-count");
        Ok::<_, CompileError>((c.flow, count.unwrap().cache == "hit"))
    };
    let mut generated = 0;
    for model in zoo::NAMES {
        let graph = zoo::by_name(model).unwrap();
        for preset in presets::NAMES {
            let arch = presets::by_name(preset).unwrap();
            let at = format!("{model}@{preset}");
            let compiled = Compiler::with_options(options)
                .compile(&graph, &arch)
                .unwrap();
            let bounded = |keep| codegen::generate_flow_bounded(&compiled, &graph, &arch, keep);
            let (counted, len) = match bounded(0) {
                Ok((counted, _)) => {
                    let len = counted.pushed();
                    (counted, len)
                }
                Err(e) => {
                    for keep in [0, 1, 7, 200] {
                        assert_eq!(bounded(keep).unwrap_err(), e, "{at} keep {keep}");
                        assert_eq!(served(&graph, &arch, keep).unwrap_err(), e, "{at}");
                    }
                    continue;
                }
            };
            generated += 1;
            for (i, keep) in [0, 1, 7, 200, len, len + 1].into_iter().enumerate() {
                let expected = match keep {
                    0 => counted.clone(),
                    _ => bounded(keep).unwrap().0,
                };
                let (flow, hit) = served(&graph, &arch, keep).unwrap();
                assert_eq!(hit, i > 0, "{at} keep {keep}: the count is banked once");
                assert_eq!(flow, expected, "{at} keep {keep}");
                assert_eq!(flow.pushed(), len, "{at} keep {keep}");
            }
        }
    }
    assert!(generated > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Pausing and inspecting between arbitrary passes never changes the
    // result: inspection is read-only, resumption picks up exactly where
    // the session stopped.
    #[test]
    fn pause_inspect_resume_is_equivalent(
        model_i in 0usize..15,
        preset_i in 0usize..7,
        level_i in 0usize..4,
        pause_mask in 0u8..64,
    ) {
        let graph = zoo::by_name(zoo::NAMES[model_i]).unwrap();
        let arch = presets::by_name(presets::NAMES[preset_i]).unwrap();
        let options = options_for(OptLevel::ALL[level_i]);
        let one_shot = Compiler::with_options(options).compile(&graph, &arch);

        let mut session = Pipeline::plan(&options, &arch).session(&graph, &arch, options);
        let mut steps = 0u8;
        let staged = loop {
            match session.step() {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
            if pause_mask & (1 << (steps % 8)) != 0 {
                // "Pause": exercise the whole inspection surface.
                let artifact = session.artifact();
                let _ = artifact.summary();
                let _ = artifact.render();
                let _ = artifact.reports();
                let _ = session.timeline().render();
                prop_assert!(artifact.kind() != StageKind::Source);
            }
            steps += 1;
        };
        match (one_shot, staged.and_then(|()| session.finish())) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.reports(), b.reports());
                prop_assert_eq!(a.metrics(&arch), b.metrics(&arch));
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "one path failed, the other did not (one-shot ok: {}, staged ok: {})",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

#[test]
fn skipping_the_mvm_pass_degrades_to_cg() {
    let graph = zoo::vgg7();
    let arch = presets::isaac_baseline();
    let options = CompileOptions::default();
    let mut session = Pipeline::plan(&options, &arch).session(&graph, &arch, options);
    while session.next_pass() == Some("stages") || session.next_pass() == Some("cg") {
        session.step().unwrap();
    }
    assert_eq!(session.skip_next(), Some("mvm"));
    let compiled = session.finish().unwrap();
    assert_eq!(compiled.report().level, "cg");

    let cg_only = Compiler::with_options(options_for(OptLevel::Cg))
        .compile(&graph, &arch)
        .unwrap();
    assert_eq!(compiled.report(), cg_only.report());
}

/// A pass that keeps its input artifact unchanged — replacing `mvm` with
/// it disables the MVM level without re-planning the pipeline.
struct PassThrough(&'static str);

impl Pass for PassThrough {
    fn name(&self) -> &'static str {
        self.0
    }
    fn run(
        &self,
        _cx: &PassContext<'_>,
        diag: &mut Diagnostics,
        input: Artifact,
    ) -> cim_compiler::Result<Artifact> {
        diag.note("pass-through");
        Ok(input)
    }
}

#[test]
fn replacing_a_pass_takes_effect() {
    let graph = zoo::vgg7();
    let arch = presets::isaac_baseline();
    let options = CompileOptions::default();
    let mut pipeline = Pipeline::plan(&options, &arch);
    assert!(pipeline.replace("mvm", Box::new(PassThrough("mvm"))));
    let mut session = pipeline.session(&graph, &arch, options);
    session.run().unwrap();
    // The replaced pass ran (timeline proves it) but the artifact stayed
    // at the CG stage.
    let record = session
        .timeline()
        .records
        .iter()
        .find(|r| r.pass == "mvm")
        .unwrap();
    assert_eq!(record.diagnostics, ["pass-through"]);
    assert_eq!(session.artifact().kind(), StageKind::Cg);
    let compiled = session.finish().unwrap();
    assert_eq!(compiled.report().level, "cg");
}

#[test]
fn artifact_mutation_between_passes_feeds_later_passes() {
    let graph = zoo::vgg7();
    let arch = presets::isaac_baseline();
    let options = CompileOptions::default();
    let mut session = Pipeline::plan(&options, &arch).session(&graph, &arch, options);
    session.step().unwrap(); // stages
    let full = session.artifact().stages().unwrap().len();
    assert!(full > 2);
    if let Artifact::Staged(staged) = session.artifact_mut() {
        staged.stages.truncate(2);
    } else {
        panic!("expected a staged artifact");
    }
    let compiled = session.finish().unwrap();
    assert_eq!(compiled.cg.stages.len(), 2);
}

#[test]
fn timeline_records_every_pass_with_instrumentation() {
    let graph = zoo::lenet5();
    let arch = presets::jain_sram();
    let options = CompileOptions::default();
    let mut session = Pipeline::plan(&options, &arch).session(&graph, &arch, options);
    session.run().unwrap();
    let timeline = session.timeline();
    let names: Vec<&str> = timeline.records.iter().map(|r| r.pass.as_str()).collect();
    assert_eq!(names, ["stages", "cg", "mvm", "vvm"]);
    for record in &timeline.records {
        assert!(record.wall_ms >= 0.0);
        assert!(!record.summary.is_empty(), "{record:?}");
        assert!(!record.diagnostics.is_empty(), "{record:?}");
    }
    assert!(timeline.total_ms() >= 0.0);
    let rendered = timeline.render();
    assert!(
        rendered.contains("vvm") && rendered.contains("wall(ms)"),
        "{rendered}"
    );
}

#[test]
fn perf_report_and_metrics_round_trip_through_json() {
    let graph = zoo::vgg7();
    let arch = presets::jain_sram();
    let compiled = Compiler::new().compile(&graph, &arch).unwrap();

    for report in compiled.reports() {
        let json = serde_json::to_string(report).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, report);
    }

    let metrics = compiled.metrics(&arch);
    let json = serde_json::to_string_pretty(&metrics).unwrap();
    let back: CompileMetrics = serde_json::from_str(&json).unwrap();
    assert_eq!(back, metrics);

    // Unknown levels are rejected rather than misread.
    let bad = json.replace("cg+mvm+vvm", "not-a-level");
    let err = serde_json::from_str::<CompileMetrics>(&bad).unwrap_err();
    assert!(err.to_string().contains("not-a-level"), "{err}");
}
