//! # cim-bench — the paper's evaluation
//!
//! One function per evaluation figure of the paper (§4.2–§4.4). Each
//! returns a [`Series`] of labelled values that the `figures` binary
//! prints and the integration tests assert shape properties on (who
//! wins, direction of trends, rough factors). The comparator schedulers those figures measure against
//! live in [`baselines`]; the sweep driver ([`sweep`], `cimc bench`)
//! runs the evaluation matrix and emits machine-readable reports.
//!
//! Absolute cycle counts differ from the paper's (their simulator is
//! calibrated to circuit models we do not have); every series therefore
//! reports *relative* quantities exactly as the paper's figures do
//! (speedups over a named baseline, normalized peak power, percentage
//! latency reductions). `figures --experiments` prints paper-vs-measured
//! for each row that states a paper value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod baselines;
pub mod loadtest;
pub mod report;
pub mod sweep;

pub use cim_obs::{doc, stats};
pub use doc::{DocError, Document, RunTiming};
pub use loadtest::{LoadSample, LoadtestEntry, LoadtestReport, SampleClass};
pub use report::{compare, BenchReport, RegressionReport, Tolerances};
pub use stats::{percentile, LatencySummary};
pub use sweep::{run_sweep, run_sweep_cached, SweepError, SweepSpec};

use cim_arch::{presets, CellType, CimArchitecture, CrossbarTier, XbShape};
use cim_compiler::cg::{schedule_cg, CgOptions};
use cim_compiler::mvm::{schedule_mvm, MvmOptions};
use cim_compiler::vvm::schedule_vvm;
use cim_graph::{zoo, Graph};

/// One labelled measurement of a figure series.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Bar/point label as it appears in the paper's figure.
    pub label: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`"x"` for speedups, `"norm"` for normalized power, `"%"`,
    /// `"cycles"`).
    pub unit: &'static str,
    /// The paper's reported value for this row, where it states one.
    pub paper: Option<f64>,
}

impl Row {
    fn new(label: impl Into<String>, value: f64, unit: &'static str, paper: Option<f64>) -> Self {
        Row {
            label: label.into(),
            value,
            unit,
            paper,
        }
    }
}

/// A regenerated figure: id, caption and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Figure id, e.g. `"20a"`.
    pub id: &'static str,
    /// Human-readable caption.
    pub title: String,
    /// The measurements.
    pub rows: Vec<Row>,
}

impl Series {
    /// Renders the series as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!("Figure {} — {}\n", self.id, self.title);
        let width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(10)
            .max(10);
        for row in &self.rows {
            let paper = match row.paper {
                Some(p) => format!("   (paper: {p:.2})"),
                None => String::new(),
            };
            s.push_str(&format!(
                "  {:width$}  {:>12.3} {}{}\n",
                row.label, row.value, row.unit, paper
            ));
        }
        s
    }
}

fn cg_latency(g: &Graph, arch: &CimArchitecture, opts: CgOptions) -> f64 {
    schedule_cg(g, arch, opts, 8, 8)
        .expect("benchmark models always schedule")
        .report
        .latency_cycles
}

/// Latency of the full CIM-MLC stack on `arch` (levels per computing
/// mode).
fn cimmlc_latency(g: &Graph, arch: &CimArchitecture) -> f64 {
    cim_compiler::Compiler::new()
        .compile(g, arch)
        .expect("benchmark models always compile")
        .report()
        .latency_cycles
}

/// Figure 20a — speedup over Jia et al.'s schedule on their CM
/// accelerator (VGG16).
#[must_use]
pub fn fig20a() -> Series {
    let arch = presets::jia_isscc21();
    let g = zoo::vgg16();
    let vendor = baselines::jia_schedule(&g, &arch)
        .expect("vgg16 schedules on jia")
        .latency_cycles;
    let pipe = cg_latency(
        &g,
        &arch,
        CgOptions {
            pipeline: true,
            duplication: false,
        },
    );
    let pd = cg_latency(&g, &arch, CgOptions::full());
    Series {
        id: "20a",
        title: "VGG16 on Jia et al. (CM): speedup over the vendor schedule".into(),
        rows: vec![
            Row::new("Jia et al. [29]", 1.0, "x", Some(1.0)),
            Row::new("CG-grained w/ Pipeline", vendor / pipe, "x", Some(1.2)),
            Row::new("CG-grained w/ P&D", vendor / pd, "x", Some(3.7)),
        ],
    }
}

/// Figure 20b — normalized peak power on PUMA (VGG16): CIM-MLC's
/// staggered CG+MVM schedule vs PUMA's lockstep compiler schedule.
#[must_use]
pub fn fig20b() -> Series {
    let arch = presets::puma();
    let g = zoo::vgg16();
    let vendor = baselines::puma_schedule(&g, &arch).expect("vgg16 schedules on puma");
    let ours = schedule_mvm(&vendor, &arch, MvmOptions::full(), 8);
    let normalized = ours.report.peak_power / vendor.report.peak_power;
    Series {
        id: "20b",
        title: "VGG16 on PUMA (XBM): normalized peak power".into(),
        rows: vec![
            Row::new("PUMA [2,4]", 1.0, "norm", Some(1.0)),
            Row::new("CG+MVM-grained", normalized, "norm", Some(0.25)),
        ],
    }
}

/// Figure 20c — speedup over Jain et al.'s schedule on their WLM SRAM
/// macro (VGG7).
#[must_use]
pub fn fig20c() -> Series {
    let arch = presets::jain_sram();
    let g = zoo::vgg7();
    let vendor = baselines::jain_schedule(&g, &arch)
        .expect("vgg7 schedules on jain")
        .latency_cycles;
    let cg = schedule_cg(&g, &arch, CgOptions::full(), 8, 8).expect("schedules");
    let mvm = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
    let vvm = schedule_vvm(&cg, &mvm, &arch, 8);
    Series {
        id: "20c",
        title: "VGG7 on Jain et al. (WLM): speedup over the vendor schedule".into(),
        rows: vec![
            Row::new("Jain et al. [27]", 1.0, "x", Some(1.0)),
            Row::new(
                "CG-grained",
                vendor / cg.report.latency_cycles,
                "x",
                Some(1.2),
            ),
            Row::new(
                "CG+MVM-grained",
                vendor / mvm.report.latency_cycles,
                "x",
                Some(1.2),
            ),
            Row::new(
                "CG+MVM+VVM-grained",
                vendor / vvm.report.latency_cycles,
                "x",
                Some(2.3),
            ),
        ],
    }
}

/// Figure 20d — latency (cycle-reduction) comparison with Poly-Schedule
/// on the Table 3 baseline (VGG16).
#[must_use]
pub fn fig20d() -> Series {
    let arch = presets::isaac_baseline();
    let g = zoo::vgg16();
    let none = baselines::no_opt(&g, &arch)
        .expect("schedules")
        .latency_cycles;
    let poly = baselines::poly_schedule(&g, &arch)
        .expect("schedules")
        .latency_cycles;
    let ours = cimmlc_latency(&g, &arch);
    Series {
        id: "20d",
        title: "VGG16 on the Table 3 baseline: cycle reduction vs no optimization".into(),
        rows: vec![
            Row::new("w/o optimization", 0.0, "%", Some(0.0)),
            Row::new(
                "Poly-Schedule [22]",
                100.0 * (1.0 - poly / none),
                "%",
                Some(84.0),
            ),
            Row::new("CIM-MLC", 100.0 * (1.0 - ours / none), "%", Some(95.0)),
            Row::new(
                "CIM-MLC speedup over Poly-Schedule",
                poly / ours,
                "x",
                Some(3.2),
            ),
        ],
    }
}

fn resnets() -> Vec<Graph> {
    vec![
        zoo::resnet18(),
        zoo::resnet34(),
        zoo::resnet50(),
        zoo::resnet101(),
    ]
}

/// Figure 21a — CG-grained ablations on the ResNet series (speedup over
/// no optimization).
#[must_use]
pub fn fig21a() -> Series {
    let arch = presets::isaac_baseline();
    let mut rows = Vec::new();
    let paper_pipe = [2.3, 3.0, 3.8, 4.7];
    let paper_dup = [25.4, 12.0, 8.0, 3.1];
    for (i, g) in resnets().iter().enumerate() {
        let none = cg_latency(g, &arch, CgOptions::none());
        let pipe = cg_latency(
            g,
            &arch,
            CgOptions {
                pipeline: true,
                duplication: false,
            },
        );
        let dup = cg_latency(
            g,
            &arch,
            CgOptions {
                pipeline: false,
                duplication: true,
            },
        );
        let pd = cg_latency(g, &arch, CgOptions::full());
        rows.push(Row::new(
            format!("{} CG-Pipeline", g.name()),
            none / pipe,
            "x",
            Some(paper_pipe[i]),
        ));
        rows.push(Row::new(
            format!("{} CG-Duplication", g.name()),
            none / dup,
            "x",
            Some(paper_dup[i]),
        ));
        rows.push(Row::new(
            format!("{} CG-P&D", g.name()),
            none / pd,
            "x",
            None,
        ));
    }
    Series {
        id: "21a",
        title: "ResNet series: CG-grained optimization speedups".into(),
        rows,
    }
}

/// Figure 21b — CG+MVM duplication speedup over CG-P&D.
#[must_use]
pub fn fig21b() -> Series {
    let arch = presets::isaac_baseline();
    let paper = [1.0, 1.1, 1.8, 1.4];
    let rows = resnets()
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let cg = schedule_cg(g, &arch, CgOptions::full(), 8, 8).expect("schedules");
            let mvm = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
            Row::new(
                g.name().to_owned(),
                cg.report.latency_cycles / mvm.report.latency_cycles,
                "x",
                Some(paper[i]),
            )
        })
        .collect();
    Series {
        id: "21b",
        title: "ResNet series: CG+MVM-Duplication speedup over CG-P&D".into(),
        rows,
    }
}

/// Figure 21c — CG+MVM+VVM remapping speedup over CG+MVM (WLM baseline).
#[must_use]
pub fn fig21c() -> Series {
    let arch = presets::isaac_baseline_wlm();
    let paper = [1.02, 1.04, 1.10, 1.05];
    let rows = resnets()
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let cg = schedule_cg(g, &arch, CgOptions::full(), 8, 8).expect("schedules");
            let mvm = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
            let vvm = schedule_vvm(&cg, &mvm, &arch, 8);
            Row::new(
                g.name().to_owned(),
                mvm.report.latency_cycles / vvm.report.latency_cycles,
                "x",
                Some(paper[i]),
            )
        })
        .collect();
    Series {
        id: "21c",
        title: "ResNet series: CG+MVM+VVM-Remap speedup over CG+MVM".into(),
        rows,
    }
}

/// Figure 21d — normalized peak power across optimization levels.
#[must_use]
pub fn fig21d() -> Series {
    let arch = presets::isaac_baseline();
    let mut rows = Vec::new();
    for g in &resnets() {
        let none = schedule_cg(g, &arch, CgOptions::none(), 8, 8).expect("schedules");
        let cg = schedule_cg(g, &arch, CgOptions::full(), 8, 8).expect("schedules");
        let lockstep = schedule_mvm(
            &cg,
            &arch,
            MvmOptions {
                duplication: true,
                pipeline: false,
            },
            8,
        );
        let staggered = schedule_mvm(&cg, &arch, MvmOptions::full(), 8);
        let base = none.report.peak_power;
        rows.push(Row::new(
            format!("{} CG (vs no-opt)", g.name()),
            cg.report.peak_power / base,
            "norm",
            None,
        ));
        rows.push(Row::new(
            format!("{} CG+MVM-Dup lockstep", g.name()),
            lockstep.report.peak_power / base,
            "norm",
            None,
        ));
        rows.push(Row::new(
            format!("{} CG+MVM staggered", g.name()),
            staggered.report.peak_power / base,
            "norm",
            None,
        ));
        rows.push(Row::new(
            format!("{} MVM peak-power reduction", g.name()),
            100.0 * (1.0 - staggered.report.peak_power / cg.report.peak_power),
            "%",
            Some(if g.name() == "resnet101" { 85.0 } else { 75.0 }),
        ));
    }
    Series {
        id: "21d",
        title: "ResNet series: normalized peak power across levels".into(),
        rows,
    }
}

/// Shared harness for the Figure 22 sensitivity sweeps: speedups of the
/// three optimization levels over no optimization on a modified
/// architecture.
fn sweep_rows(label: &str, arch: &CimArchitecture, g: &Graph, rows: &mut Vec<Row>) {
    let none = cg_latency(g, arch, CgOptions::none());
    let cg = schedule_cg(g, arch, CgOptions::full(), 8, 8).expect("schedules");
    let mvm = schedule_mvm(&cg, arch, MvmOptions::full(), 8);
    let vvm = schedule_vvm(&cg, &mvm, arch, 8);
    rows.push(Row::new(
        format!("{label} CG"),
        none / cg.report.latency_cycles,
        "x",
        None,
    ));
    rows.push(Row::new(
        format!("{label} CG+MVM"),
        none / mvm.report.latency_cycles,
        "x",
        None,
    ));
    rows.push(Row::new(
        format!("{label} CG+MVM+VVM"),
        none / vvm.report.latency_cycles,
        "x",
        None,
    ));
}

/// Figure 22a — ViT speedups as the chip's core count sweeps 256→1024.
#[must_use]
pub fn fig22a() -> Series {
    let base = presets::sensitivity_baseline();
    let g = zoo::vit_base();
    let mut rows = Vec::new();
    for cores in [256u32, 512, 768, 1024] {
        let arch = base.with_core_count(cores).expect("valid core count");
        sweep_rows(&format!("cores={cores}"), &arch, &g, &mut rows);
    }
    Series {
        id: "22a",
        title: "ViT: sensitivity to the chip's core count".into(),
        rows,
    }
}

/// Figure 22b — ViT speedups as the per-core crossbar count sweeps 8→20.
#[must_use]
pub fn fig22b() -> Series {
    let base = presets::sensitivity_baseline();
    let g = zoo::vit_base();
    let mut rows = Vec::new();
    for xbs in [8u32, 12, 16, 20] {
        let arch = base.with_xb_count(xbs).expect("valid crossbar count");
        sweep_rows(&format!("xb_number={xbs}"), &arch, &g, &mut rows);
    }
    Series {
        id: "22b",
        title: "ViT: sensitivity to the per-core crossbar count".into(),
        rows,
    }
}

/// Figure 22c — ViT speedups as the crossbar shape sweeps 64×512→512×64.
#[must_use]
pub fn fig22c() -> Series {
    let base = presets::sensitivity_baseline();
    let g = zoo::vit_base();
    let mut rows = Vec::new();
    for (r, c) in [(64u32, 512u32), (128, 256), (256, 128), (512, 64)] {
        let xb = CrossbarTier::new(
            XbShape::new(r, c).expect("valid shape"),
            8.min(r),
            1,
            8,
            CellType::Reram,
            2,
        )
        .expect("valid crossbar");
        let arch = base.with_crossbar(xb);
        sweep_rows(&format!("xb_size={r}x{c}"), &arch, &g, &mut rows);
    }
    Series {
        id: "22c",
        title: "ViT: sensitivity to the crossbar shape".into(),
        rows,
    }
}

/// Figure 22d — ViT speedups as `parallel_row` sweeps 64→8.
#[must_use]
pub fn fig22d() -> Series {
    let base = presets::sensitivity_baseline();
    let g = zoo::vit_base();
    let mut rows = Vec::new();
    for pr in [64u32, 32, 16, 8] {
        let xb = CrossbarTier::new(
            XbShape::new(128, 256).expect("valid shape"),
            pr,
            1,
            8,
            CellType::Reram,
            2,
        )
        .expect("valid crossbar");
        let arch = base.with_crossbar(xb);
        sweep_rows(&format!("parallel_row={pr}"), &arch, &g, &mut rows);
    }
    Series {
        id: "22d",
        title: "ViT: sensitivity to the number of parallel rows".into(),
        rows,
    }
}

/// Every figure series, in paper order.
#[must_use]
pub fn all_figures() -> Vec<Series> {
    vec![
        fig20a(),
        fig20b(),
        fig20c(),
        fig20d(),
        fig21a(),
        fig21b(),
        fig21c(),
        fig21d(),
        fig22a(),
        fig22b(),
        fig22c(),
        fig22d(),
    ]
}

/// Table 1 — the generality matrix. Rows for prior work restate the
/// paper's literature survey; the `Ours` row is *measured*: each ✓ is
/// backed by actually compiling a model under that device type /
/// programming interface (the same coverage `tests/generality.rs`
/// asserts).
#[must_use]
pub fn table1() -> String {
    use cim_arch::{CellType, ChipTier, CoreTier};
    // Measure our own row.
    let supports = |cell: CellType, mode: cim_arch::ComputingMode| -> bool {
        let arch = cim_arch::CimArchitecture::builder("probe")
            .chip(ChipTier::with_core_count(64).expect("valid"))
            .core(CoreTier::with_xb_count(8).expect("valid"))
            .crossbar(
                CrossbarTier::new(XbShape::new(128, 128).expect("valid"), 16, 1, 8, cell, 2)
                    .expect("valid"),
            )
            .mode(mode)
            .build()
            .expect("valid");
        cim_compiler::Compiler::new()
            .compile(&zoo::lenet5(), &arch)
            .is_ok()
    };
    use cim_arch::ComputingMode as M;
    let sram = supports(CellType::Sram, M::Xbm);
    let reram = supports(CellType::Reram, M::Xbm);
    let misc = supports(CellType::Pcm, M::Xbm) && supports(CellType::Flash, M::Xbm);
    let vvm = supports(CellType::Sram, M::Wlm);
    let mvm = supports(CellType::Reram, M::Xbm);
    let dnn_op = supports(CellType::Sram, M::Cm);
    let mark = |b: bool| if b { "yes" } else { "NO " };
    format!(
        "Table 1 — generality comparison (prior-work rows as surveyed by the paper;\n\
         the `Ours` row measured by compilation probes)\n\n\
         {:<22} {:>5} {:>6} {:>5} | {:>4} {:>4} {:>7} | optimization\n\
         {}\n\
         {:<22} {:>5} {:>6} {:>5} | {:>4} {:>4} {:>7} | MVM\n\
         {:<22} {:>5} {:>6} {:>5} | {:>4} {:>4} {:>7} | MVM\n\
         {:<22} {:>5} {:>6} {:>5} | {:>4} {:>4} {:>7} | MVM\n\
         {:<22} {:>5} {:>6} {:>5} | {:>4} {:>4} {:>7} | MVM, MM, Conv\n\
         {:<22} {:>5} {:>6} {:>5} | {:>4} {:>4} {:>7} | (ISA level)\n\
         {:<22} {:>5} {:>6} {:>5} | {:>4} {:>4} {:>7} | VVM, MVM, DNN operators\n",
        "work",
        "SRAM",
        "ReRAM",
        "misc",
        "VVM",
        "MVM",
        "DNN-op",
        "-".repeat(86),
        "PUMA [2,4]",
        "no",
        "yes",
        "no",
        "no",
        "yes",
        "no",
        "IMDP [19]",
        "no",
        "yes",
        "no",
        "yes",
        "yes",
        "no",
        "TC-CIM [17]",
        "no",
        "yes",
        "no",
        "no",
        "yes",
        "no",
        "Polyhedral [22]",
        "no",
        "yes",
        "no",
        "no",
        "yes",
        "yes",
        "OCC [40]",
        "yes",
        "yes",
        "no",
        "yes",
        "yes",
        "no",
        "Ours (measured)",
        mark(sram),
        mark(reram),
        mark(misc),
        mark(vvm),
        mark(mvm),
        mark(dnn_op),
    )
}

/// The hardware-abstraction dumps of Figures 17–19 and Table 3.
#[must_use]
pub fn hardware_abstractions() -> String {
    let mut s = String::new();
    for arch in [
        presets::isaac_baseline(),
        presets::jia_isscc21(),
        presets::puma(),
        presets::jain_sram(),
    ] {
        s.push_str(&arch.describe());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig20a_vendor_row_is_unit() {
        let s = fig20a();
        assert_eq!(s.rows[0].value, 1.0);
        assert!(
            s.rows[2].value > s.rows[1].value,
            "P&D must beat pipeline-only"
        );
        assert!(s.rows[1].value >= 1.0);
    }

    #[test]
    fn fig20d_ordering() {
        let s = fig20d();
        // Poly reduces less than CIM-MLC.
        assert!(s.rows[1].value < s.rows[2].value);
        // CIM-MLC wins by >1.5x.
        assert!(s.rows[3].value > 1.5);
    }

    #[test]
    fn render_includes_paper_values() {
        let s = fig20a();
        let text = s.render();
        assert!(text.contains("paper"));
        assert!(text.contains("Figure 20a"));
    }

    #[test]
    fn fig22d_vvm_advantage_does_not_shrink_with_narrower_rows() {
        let s = fig22d();
        let get = |label: &str| s.rows.iter().find(|r| r.label == label).unwrap().value;
        let adv_wide = get("parallel_row=64 CG+MVM+VVM") / get("parallel_row=64 CG+MVM");
        let adv_narrow = get("parallel_row=8 CG+MVM+VVM") / get("parallel_row=8 CG+MVM");
        assert!(
            adv_narrow >= adv_wide * 0.99,
            "VVM advantage should not shrink as rows narrow: {adv_wide} vs {adv_narrow}"
        );
    }
}
