//! `CompileOptions::jobs` is purely an execution knob: intra-graph
//! scheduling must produce byte-identical schedules and reports for
//! every worker count. These tests pin that contract both at the
//! scheduler API (forcing the threaded path even on single-core
//! machines — the `schedule_*_in` forms spawn exactly the workers their
//! `SchedContext` names) and end-to-end through the compiler.

use cim_compiler::cg::{schedule_cg_in, CgOptions};
use cim_compiler::mvm::{schedule_mvm_in, MvmOptions};
use cim_compiler::stage::extract_stages;
use cim_compiler::vvm::schedule_vvm_in;
use cim_compiler::{CompileOptions, Compiler, RegionMemo, SchedContext, ScratchArena};
use cim_graph::zoo;

const MODELS: &[(&str, &str)] = &[
    ("vit_base", "isaac"), // deep DP path, 2 segments
    ("resnet50", "puma"),  // segmentation-heavy small chip
    ("vgg16", "jia"),      // SRAM, many segments
    ("resnet50", "isaac"), // whole-model-resident fast path
    ("vgg16", "jain"),     // WLM macro: the d×k spread search, many segments
    ("vgg7", "isaac-wlm"), // WLM, whole-model-resident
];

#[test]
fn scheduler_output_is_identical_across_worker_counts() {
    for &(model, arch) in MODELS {
        let graph = zoo::by_name(model).unwrap();
        let arch = cim_arch::presets::by_name(arch).unwrap();
        let stages = extract_stages(&graph, &arch, 8);
        let schedule = |jobs: usize| {
            let cx = SchedContext {
                arch: &arch,
                act_bits: 8,
                jobs,
                scratch: &ScratchArena::new(),
                memo: &RegionMemo::new(),
            };
            let cg = schedule_cg_in(&cx, graph.name(), stages.clone(), CgOptions::full()).unwrap();
            let mvm = schedule_mvm_in(&cx, &cg, MvmOptions::full());
            let vvm = schedule_vvm_in(&cx, &cg, &mvm);
            (cg, mvm, vvm)
        };
        let (cg1, mvm1, vvm1) = schedule(1);
        for jobs in [2, 4, 7] {
            let (cg, mvm, vvm) = schedule(jobs);
            assert_eq!(cg1, cg, "{model}: cg schedule differs at jobs={jobs}");
            assert_eq!(mvm1, mvm, "{model}: mvm schedule differs at jobs={jobs}");
            assert_eq!(vvm1, vvm, "{model}: vvm schedule differs at jobs={jobs}");
        }
    }
}

#[test]
fn compiled_output_is_identical_across_worker_counts() {
    for &(model, arch_name) in MODELS {
        let graph = zoo::by_name(model).unwrap();
        let arch = cim_arch::presets::by_name(arch_name).unwrap();
        let compile = |jobs: usize| {
            let mut session = Compiler::with_options(CompileOptions {
                jobs,
                ..CompileOptions::default()
            })
            .session(&graph, &arch);
            session.run().unwrap();
            let scratch: Vec<u64> = session
                .timeline()
                .records
                .iter()
                .map(|r| r.scratch_peak_bytes)
                .collect();
            (session.finish().unwrap(), scratch)
        };
        let (one, scratch_one) = compile(1);
        let (four, scratch_four) = compile(4);
        assert_eq!(one.cg, four.cg, "{model}@{arch_name}");
        assert_eq!(one.mvm, four.mvm, "{model}@{arch_name}");
        assert_eq!(one.vvm, four.vvm, "{model}@{arch_name}");
        assert_eq!(
            one.reports(),
            four.reports(),
            "{model}@{arch_name}: reports differ across jobs"
        );
        assert_eq!(
            scratch_one, scratch_four,
            "{model}@{arch_name}: scratch_peak_bytes differs across jobs"
        );
    }
}
