//! `compile-cold`: `Compiler::new().compile` of every zoo model on every
//! preset from in-memory graphs, no cache. The cg DP does almost all the
//! work; cache, wire and engine do none. `op_p50_ms` is the typical ~0.07 ms
//! case, `work_per_s` is set by the `resnet152@isaac*` cliff.
//!
//! Its verification is also the home of the simulator-layer measurements:
//! generated flows are executed on the functional machine and compared with
//! the independent reference interpreter.

use std::time::Instant;

use cim_mlc::arch::presets;
use cim_mlc::graph::zoo;
use cim_mlc::prelude::*;

use crate::alloc;
use crate::harness::{
    cases_slowest_first, warm_up, Case, Checks, Metrics, Mode, RoundOut, Workload,
};
use crate::spans::{Recorder, NO_CASE};
use crate::stats::{geometric_mean, lower_quartile, shuffle, SplitMix64};

/// Models whose generated flow may reach `Machine::execute` in verification.
/// `vgg7@isaac` takes 108 s to execute and everything larger takes longer, so
/// nothing from `vgg7` up is ever executed.
pub const EXECUTABLE_MODELS: [&str; 2] = ["lenet5", "mlp"];

/// Presets the executable models are verified on: one per computing mode and
/// crossbar geometry that the zoo's small models fit.
const EXECUTE_ON: [&str; 4] = ["isaac", "isaac-wlm", "jia", "table2"];

/// Upper bound on the meta-operators of a flow handed to `Machine::execute`,
/// which runs ~45 k of them per second. The eight verified flows hold at most
/// 27 750 (`lenet5@isaac-wlm`; 82 k together, ~2 s); `vgg7@isaac` holds
/// 1.44 M and `vgg7@isaac-wlm` 4.8 M. A flow above the bound fails the run
/// instead of hanging it.
pub const MAX_EXECUTE_MOPS: usize = 100_000;

struct State {
    graphs: Vec<Graph>,
    archs: Vec<CimArchitecture>,
    compiler: Compiler,
    labels: Vec<u32>,
}

pub struct CompileCold {
    cases: Vec<Case>,
    order: Vec<usize>,
    state: Option<State>,
}

impl CompileCold {
    pub fn new(seed: u64) -> Self {
        let cases: Vec<Case> = zoo::NAMES
            .iter()
            .flat_map(|m| {
                presets::NAMES
                    .iter()
                    .map(move |a| Case::once(format!("{m}@{a}")))
            })
            .collect();
        let mut order: Vec<usize> = (0..cases.len()).collect();
        shuffle(&mut SplitMix64::new(seed), &mut order);
        CompileCold {
            cases,
            order,
            state: None,
        }
    }
}

fn pass_span(pass: &str) -> &'static str {
    match pass {
        "stages" => "compiler.stages",
        "cg" => "compiler.cg",
        "mvm" => "compiler.mvm",
        "vvm" => "compiler.vvm",
        _ => "compiler.other_pass",
    }
}

impl Workload for CompileCold {
    fn name(&self) -> &'static str {
        "compile-cold"
    }

    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn work_units(&self) -> u64 {
        self.cases.len() as u64
    }

    fn traced_modes(&self) -> &'static [Mode] {
        &[Mode::Plain, Mode::Traced, Mode::Obs]
    }

    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let graphs = rec.time("graph.zoo_build", NO_CASE, zoo::all);
        let archs = rec.time("arch.preset_build", NO_CASE, presets::all);
        let labels = self
            .cases
            .iter()
            .map(|c| rec.label(c.name.as_str()))
            .collect();
        self.state = Some(State {
            graphs,
            archs,
            compiler: Compiler::new(),
            labels,
        });
        warm_up(self, rec)
    }

    fn teardown(&mut self) {
        self.state = None;
    }

    fn round(&mut self, rec: &mut Recorder, out: &mut RoundOut) {
        let st = self.state.as_ref().expect("set up");
        let archs = st.archs.len();
        for &case in &self.order {
            let (graph, arch) = (&st.graphs[case / archs], &st.archs[case % archs]);
            let label = st.labels[case];
            let started = Instant::now();
            let compiled = if rec.on {
                // The traced round drives the same pipeline pass by pass so
                // that each pass gets its own span.
                let allocs = alloc::alloc_calls();
                let open = rec.begin("compiler.case", label);
                let mut session = st.compiler.session(graph, arch);
                let mut failed = None;
                while let Some(pass) = session.next_pass() {
                    if let Err(e) = rec.time(pass_span(pass), label, || session.step()) {
                        failed = Some(e);
                        break;
                    }
                    match pass {
                        "stages" => {
                            let n = session.artifact().stages().map_or(0, <[_]>::len);
                            rec.note("compiler.stages_count", n as f64);
                        }
                        "cg" => {
                            let n = session.artifact().cg().map_or(0, |cg| cg.segments.len());
                            rec.note("compiler.segments_count", n as f64);
                        }
                        _ => {}
                    }
                }
                let scratch = session
                    .timeline()
                    .records
                    .iter()
                    .map(|r| r.scratch_peak_bytes)
                    .max()
                    .unwrap_or(0);
                rec.note("compiler.scratch_peak_bytes", scratch as f64);
                let compiled = match failed {
                    None => rec.time("compiler.finish", label, || session.finish()),
                    Some(e) => Err(e),
                };
                rec.end(open);
                rec.note("compiler.allocs", (alloc::alloc_calls() - allocs) as f64);
                compiled
            } else {
                st.compiler.compile(graph, arch)
            };
            out.sample(case, started.elapsed().as_secs_f64() * 1e3);
            let name = &self.cases[case].name;
            if let Some(compiled) = out
                .checks
                .result(compiled.map_err(|e| format!("{name}: {e}")))
            {
                out.result_cycles(compiled.report().latency_cycles);
            }
        }
    }

    fn verify(&mut self, rec: &mut Recorder, checks: &mut Checks) {
        let compiler = Compiler::new();
        for model in EXECUTABLE_MODELS {
            for preset in EXECUTE_ON {
                let case = rec.label(format!("{model}@{preset}"));
                rec.note("sim.case", 1.0);
                let equal = checks.result(execute_against_reference(
                    &compiler, model, preset, case, rec,
                ));
                rec.note("sim.case_equal", f64::from(u8::from(equal == Some(true))));
                checks.check(equal != Some(false), || {
                    format!(
                        "{model}@{preset}: machine output differs from the reference interpreter"
                    )
                });
            }
        }
    }

    fn layer_metrics(&self, rec: &Recorder, into: &mut Metrics) {
        let us = |name: &str| lower_quartile(&rec.durations_ms(name)) * 1e3;
        into.insert("graph.zoo_build_us", us("graph.zoo_build"));
        into.insert("arch.preset_build_us", us("arch.preset_build"));

        let pass_ms = |name: &str| lower_quartile(&rec.round_sums_ms(name));
        let passes = [
            "compiler.stages",
            "compiler.cg",
            "compiler.mvm",
            "compiler.vvm",
            "compiler.finish",
        ]
        .map(pass_ms);
        into.insert("compiler.stages_ms", passes[0]);
        into.insert("compiler.cg_ms", passes[1]);
        into.insert("compiler.mvm_ms", passes[2]);
        into.insert("compiler.vvm_ms", passes[3]);
        into.insert("compiler.finish_ms", passes[4]);
        into.insert("compiler.cg_share", passes[1] / passes.iter().sum::<f64>());
        let cases: Vec<f64> = cases_slowest_first(rec, "compiler.case")
            .into_iter()
            .map(|(_, ms)| ms)
            .collect();
        into.insert("compiler.case_gmean_ms", geometric_mean(&cases));
        into.insert(
            "compiler.case_max_ms",
            cases.first().copied().unwrap_or(0.0),
        );
        // The cliff: how much of a round its two slowest cases take.
        into.insert(
            "compiler.case_top2_share",
            cases.iter().take(2).sum::<f64>() / lower_quartile(&rec.round_sums_ms("compiler.case")),
        );
        // Counts repeat exactly from round to round; report one round's.
        let per_round = |name: &str| lower_quartile(&rec.note_round_sums(name));
        into.insert("compiler.stages_count", per_round("compiler.stages_count"));
        into.insert(
            "compiler.segments_count",
            per_round("compiler.segments_count"),
        );
        let scratch = rec.note_values("compiler.scratch_peak_bytes");
        into.insert(
            "compiler.scratch_peak_kb",
            scratch.iter().copied().fold(0.0, f64::max) / 1024.0,
        );
        into.insert(
            "compiler.allocs_per_compile",
            per_round("compiler.allocs") / self.cases.len() as f64,
        );

        let mops: f64 = rec.note_values("sim.mops").iter().sum();
        let per_s = |name: &str| mops / (rec.durations_ms(name).iter().sum::<f64>() / 1e3);
        into.insert("sim.codegen_mops_per_s", per_s("sim.codegen"));
        into.insert("mop.validate_mops_per_s", per_s("mop.validate"));
        into.insert("sim.execute_mops_per_s", per_s("sim.execute"));
        into.insert(
            "sim.reference_ms",
            rec.durations_ms("sim.reference").iter().sum(),
        );
        into.insert("sim.cases", rec.note_values("sim.case").iter().sum());
        into.insert(
            "sim.cases_equal",
            rec.note_values("sim.case_equal").iter().sum(),
        );
    }
}

/// The slowest compile case of a traced run, for the human-readable report
/// (`compiler.case_max_name` in the issue; a name cannot be a metric value).
pub fn slowest_case(rec: &Recorder) -> Option<(&str, f64)> {
    let (case, max_ms) = cases_slowest_first(rec, "compiler.case")
        .into_iter()
        .next()?;
    rec.case_labels
        .get(case as usize)
        .map(|name| (name.as_str(), max_ms))
}

/// Compiles `model` for `preset`, generates and validates the flow, executes
/// it on the functional machine and compares the first output with the
/// reference interpreter's.
fn execute_against_reference(
    compiler: &Compiler,
    model: &str,
    preset: &str,
    case: u32,
    rec: &mut Recorder,
) -> Result<bool, String> {
    let graph = zoo::by_name(model).ok_or_else(|| format!("no zoo model `{model}`"))?;
    let arch = presets::by_name(preset).ok_or_else(|| format!("no preset `{preset}`"))?;
    let at = |what: &str, e: &dyn std::fmt::Display| format!("{model}@{preset}: {what}: {e}");
    let compiled = compiler
        .compile(&graph, &arch)
        .map_err(|e| at("compile", &e))?;
    let (flow, layout) = rec
        .time("sim.codegen", case, || {
            codegen::generate_flow(&compiled, &graph, &arch)
        })
        .map_err(|e| at("codegen", &e))?;
    if flow.op_count() > MAX_EXECUTE_MOPS {
        return Err(format!(
            "{model}@{preset}: flow of {} meta-operators exceeds MAX_EXECUTE_MOPS = {MAX_EXECUTE_MOPS}",
            flow.op_count()
        ));
    }
    rec.note("sim.mops", flow.op_count() as f64);
    rec.time("mop.validate", case, || flow.validate(&arch))
        .map_err(|e| at("flow validation", &e))?;
    let store = WeightStore::for_flow(&flow);
    let mut machine = Machine::new(&arch);
    machine.load_inputs(&graph, &layout);
    rec.time("sim.execute", case, || machine.execute(&flow, &store))
        .map_err(|e| at("functional simulation", &e))?;
    let expected = rec.time("sim.reference", case, || reference::execute(&graph));
    let output = graph.outputs()[0];
    let want = &expected[&output];
    Ok(machine.read_l0(layout.offset(output), want.len()) == *want)
}
