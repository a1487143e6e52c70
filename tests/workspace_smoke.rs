//! Workspace smoke test: the facade prelude must keep exposing the
//! stack's entry points — presets, the model zoo, the compiler and the
//! simulator — so a re-export regression in `cim_mlc::prelude` fails
//! fast here rather than deep inside an example or downstream crate.

use cim_mlc::prelude::*;

#[test]
fn prelude_exposes_presets_and_zoo() {
    // Architecture presets come through the prelude's `presets` module.
    let arch: CimArchitecture = presets::isaac_baseline();
    assert_eq!(arch.mode(), ComputingMode::Xbm);
    assert!(!presets::all().is_empty());

    // Models come through the prelude's `zoo` module.
    let model: Graph = zoo::lenet5();
    assert!(!model.is_empty());
    assert!(!zoo::all().is_empty());
}

#[test]
fn prelude_exposes_compile_entry_points() {
    let arch = presets::table2_example();
    let model = zoo::lenet5();

    // `Compiler` + `CompileOptions`/`OptLevel` are the compile entry
    // points; `Compiled` yields `PerfReport`s.
    let compiled: Compiled = Compiler::new().compile(&model, &arch).expect("compiles");
    let report: &PerfReport = compiled.report();
    assert!(report.latency_cycles > 0.0);

    let options = CompileOptions {
        level: OptLevel::Cg,
        ..CompileOptions::default()
    };
    let cg_only = Compiler::with_options(options)
        .compile(&model, &arch)
        .expect("compiles at CG level");
    assert_eq!(cg_only.report().level, "cg");
}

#[test]
fn prelude_exposes_simulate_entry_points() {
    let arch = presets::isaac_baseline();
    let model = zoo::lenet5();
    let compiled = Compiler::new().compile(&model, &arch).expect("compiles");

    // `codegen` produces an executable `MopFlow`; `Machine`,
    // `WeightStore` and `reference` close the simulation loop.
    let (flow, layout) = codegen::generate_flow(&compiled, &model, &arch).expect("codegen");
    let stats = FlowStats::of(&flow);
    assert!(stats.total() > 0);

    let store = WeightStore::for_flow(&flow);
    let mut machine = Machine::new(&arch);
    machine.load_inputs(&model, &layout);
    machine.execute(&flow, &store).expect("flow executes");

    let expected = reference::execute(&model);
    let out = model.outputs()[0];
    assert_eq!(
        machine.read_l0(layout.offset(out), expected[&out].len()),
        expected[&out]
    );
}

#[test]
fn prelude_exposes_architecture_building_blocks() {
    // The tier/arch types needed to describe a custom accelerator are
    // all importable from the prelude.
    let xb = CrossbarTier::new(
        XbShape::new(128, 128).expect("valid shape"),
        16,
        1,
        8,
        CellType::Reram,
        2,
    )
    .expect("valid crossbar");
    let arch = CimArchitecture::builder("smoke")
        .chip(ChipTier::with_core_count(16).expect("valid chip"))
        .core(CoreTier::with_xb_count(4).expect("valid core"))
        .crossbar(xb)
        .mode(ComputingMode::Xbm)
        .build()
        .expect("valid architecture");
    assert_eq!(arch.chip().core_count(), 16);
    let _nk: NocKind = NocKind::Ideal;
    let _nc: NocCost = NocCost::Ideal;
}

#[test]
fn prelude_exposes_mop_and_trace() {
    let arch = presets::isaac_baseline();
    let model = zoo::lenet5();
    let compiled = Compiler::new().compile(&model, &arch).expect("compiles");
    let (flow, _layout) = codegen::generate_flow(&compiled, &model, &arch).expect("codegen");

    // `MopFlow` is visible under its prelude name and prints the
    // paper's syntax; the `trace` module is reachable for perf series.
    let mop: &MopFlow = &flow;
    assert!(!mop.to_string().is_empty());
    let phases = trace::power_trace(&compiled, &arch);
    assert!(!phases.is_empty());
    assert!(trace::peak_power(&phases) >= 0.0);
}

#[test]
fn prelude_exposes_the_staged_pipeline_surface() {
    let arch = presets::isaac_baseline();
    let model = zoo::lenet5();

    // `Pipeline`/`Session` drive the staged flow; `StageKind` names the
    // typed artifacts; `PassTimeline` carries the instrumentation.
    let options = CompileOptions::default();
    let mut pipeline: Pipeline = Pipeline::plan(&options, &arch);
    pipeline.push(Box::new(CodegenPass::default()));
    let mut session: Session<'_> = pipeline.session(&model, &arch, options);
    while session.step().expect("passes run") {
        let artifact: &Artifact = session.artifact();
        assert_ne!(artifact.kind(), StageKind::Source);
    }
    let timeline: &PassTimeline = session.timeline();
    assert_eq!(timeline.records.len(), 4); // stages, cg, mvm, codegen
    assert!(session.artifact().flow().is_some());
    let compiled = session.finish().expect("finishes");
    assert_eq!(compiled.report().level, "cg+mvm");
}

#[test]
fn prelude_exposes_the_unified_error() {
    // Every subsystem error converts into `Error` with a source chain.
    let err: Error = cim_mlc::graph::from_json("{not json").unwrap_err().into();
    assert!(std::error::Error::source(&err).is_some());
    assert!(err.render_chain().contains("invalid model graph"), "{err}");
}

/// Every upper-case Markdown name (README, ROADMAP, …) that a comment
/// under `crates/`, `src/` or `tests/` cites is a file at the repository
/// root.
#[test]
fn every_markdown_file_a_comment_cites_exists() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs: Vec<_> = ["crates", "src", "tests"].map(|d| root.join(d)).into();
    let mut missing = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("a readable directory") {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                dirs.push(path);
                continue;
            }
            if path.extension() != Some("rs".as_ref()) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("UTF-8 source");
            for (n, line) in text.lines().enumerate() {
                let Some(at) = line.find("//") else { continue };
                let comment = &line[at..];
                for (end, _) in comment.match_indices(".md") {
                    let start = comment[..end]
                        .trim_end_matches(|c: char| c.is_ascii_uppercase() || c == '_')
                        .len();
                    let name = &comment[start..end + 3];
                    if start < end && !root.join(name).is_file() {
                        missing.push(format!("{}:{}: {name}", path.display(), n + 1));
                    }
                }
            }
        }
    }
    assert!(missing.is_empty(), "cited but absent: {missing:#?}");
}

/// CI's jobs are `scripts/ci-local.sh` jobs: every job `ci.yml` runs
/// through the script is one of the script's `case` arms and on its
/// default list, and the reverse.
#[test]
fn ci_and_its_local_mirror_name_the_same_jobs() {
    use std::collections::BTreeSet;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &str| std::fs::read_to_string(root.join(path)).expect("a readable file");
    let workflow = read(".github/workflows/ci.yml");
    let script = read("scripts/ci-local.sh");

    let called: BTreeSet<&str> = workflow
        .lines()
        .filter(|line| line.trim_start().starts_with("run:"))
        .filter_map(|line| line.split("scripts/ci-local.sh ").nth(1))
        .map(str::trim)
        .collect();
    let cases = &script[script.find("case \"$job\" in").expect("a job `case`")..];
    let arms: BTreeSet<&str> = cases[..cases.find("esac").expect("the `case` ends")]
        .lines()
        .filter_map(|line| line.trim().split_once(") "))
        .map(|(arm, _)| arm)
        .collect();
    // `jobs=("$@")` takes the arguments; the last assignment is the
    // default list.
    let default: BTreeSet<&str> = script
        .lines()
        .rev()
        .find_map(|line| line.trim().strip_prefix("jobs=("))
        .and_then(|list| list.strip_suffix(')'))
        .expect("a default job list")
        .split_whitespace()
        .collect();
    assert_eq!(called, arms, "ci.yml's jobs vs ci-local.sh's `case` arms");
    assert_eq!(
        default, arms,
        "ci-local.sh's default list vs its `case` arms"
    );
    assert_eq!(arms.len(), 9, "{arms:?}");
}
