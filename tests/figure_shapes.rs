//! Shape assertions on the regenerated evaluation figures: who wins, the
//! direction of every trend, and the rough factors. `figures --experiments`
//! prints the absolute values next to the paper's; these tests keep the
//! *shape* from regressing.

use cim_bench as figs;

fn value(series: &figs::Series, label: &str) -> f64 {
    series
        .rows
        .iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("row `{label}` missing from figure {}", series.id))
        .value
}

#[test]
fn fig20a_pd_beats_pipeline_beats_vendor() {
    let s = figs::fig20a();
    let pipe = value(&s, "CG-grained w/ Pipeline");
    let pd = value(&s, "CG-grained w/ P&D");
    assert!(pipe > 1.0, "pipeline {pipe}x");
    assert!(pd > pipe, "P&D {pd}x <= pipeline {pipe}x");
    assert!(pd > 1.5, "P&D should be a substantial win, got {pd}x");
}

#[test]
fn fig20b_staggering_cuts_peak_power_substantially() {
    let s = figs::fig20b();
    let ours = value(&s, "CG+MVM-grained");
    assert!(
        ours < 0.6,
        "peak power should drop by >40% (paper: 75%), got {:.0}%",
        100.0 * (1.0 - ours)
    );
}

#[test]
fn fig20c_vvm_is_where_the_win_comes_from() {
    let s = figs::fig20c();
    let cg = value(&s, "CG-grained");
    let mvm = value(&s, "CG+MVM-grained");
    let vvm = value(&s, "CG+MVM+VVM-grained");
    // The paper: CG ≈ MVM ≈ 1.2x, VVM jumps to 2.3x — MVM adds little on
    // this tiny macro, VVM adds a lot.
    assert!(
        (mvm - cg).abs() < 0.2 * cg.max(1.0),
        "MVM should add little"
    );
    assert!(
        vvm > 1.8 * mvm,
        "VVM should be the dominant win: {vvm} vs {mvm}"
    );
}

#[test]
fn fig20d_cimmlc_beats_poly_schedule_by_paper_ballpark() {
    let s = figs::fig20d();
    let poly = value(&s, "Poly-Schedule [22]");
    let ours = value(&s, "CIM-MLC");
    let factor = value(&s, "CIM-MLC speedup over Poly-Schedule");
    assert!(poly > 50.0, "Poly-Schedule reduction {poly}%");
    assert!(ours > poly, "CIM-MLC must reduce more cycles than Poly");
    assert!(ours > 90.0, "CIM-MLC reduction {ours}% (paper: 95%)");
    assert!(
        factor > 1.5,
        "CIM-MLC should beat Poly by a clear factor (paper: 3.2x), got {factor}x"
    );
}

#[test]
fn fig21a_pipeline_grows_and_duplication_shrinks_with_depth() {
    let s = figs::fig21a();
    let pipe18 = value(&s, "resnet18 CG-Pipeline");
    let pipe101 = value(&s, "resnet101 CG-Pipeline");
    let dup18 = value(&s, "resnet18 CG-Duplication");
    let dup101 = value(&s, "resnet101 CG-Duplication");
    assert!(pipe101 > pipe18, "pipeline trend: {pipe18} -> {pipe101}");
    assert!(dup18 > dup101, "duplication trend: {dup18} -> {dup101}");
    // Rough factors: paper reports 2.3→4.7 and 25.4→3.1.
    assert!((1.5..4.0).contains(&pipe18), "{pipe18}");
    assert!((3.0..6.0).contains(&pipe101), "{pipe101}");
    assert!(dup18 > 15.0, "{dup18}");
    assert!(dup101 < 6.0, "{dup101}");
    // Combined P&D is a large multiple (paper: up to 123x).
    let pd18 = value(&s, "resnet18 CG-P&D");
    assert!(pd18 > 50.0, "{pd18}");
}

#[test]
fn fig21b_mvm_duplication_adds_speedup() {
    let s = figs::fig21b();
    for row in &s.rows {
        assert!(
            row.value >= 1.0,
            "{}: MVM refinement must not regress ({}x)",
            row.label,
            row.value
        );
    }
    // ResNet50/101 gain meaningfully (paper: 1.8x / 1.4x).
    assert!(value(&s, "resnet50") > 1.2);
    assert!(value(&s, "resnet101") > 1.2);
}

#[test]
fn fig21c_vvm_remap_adds_modest_speedup() {
    let s = figs::fig21c();
    for row in &s.rows {
        assert!(row.value >= 1.0, "{}: {}x", row.label, row.value);
        assert!(
            row.value < 3.0,
            "{}: VVM gain should stay modest",
            row.label
        );
    }
}

#[test]
fn fig21d_cg_raises_and_mvm_cuts_peak_power() {
    let s = figs::fig21d();
    for net in ["resnet18", "resnet34", "resnet50", "resnet101"] {
        let cg = value(&s, &format!("{net} CG (vs no-opt)"));
        let staggered = value(&s, &format!("{net} CG+MVM staggered"));
        let reduction = value(&s, &format!("{net} MVM peak-power reduction"));
        assert!(
            cg > 3.0,
            "{net}: CG should raise peak power (paper: 5-16x), got {cg}"
        );
        assert!(staggered < cg, "{net}: staggering must cut peak power");
        assert!(
            (50.0..=95.0).contains(&reduction),
            "{net}: reduction {reduction}% (paper: up to 85%)"
        );
    }
}

#[test]
fn fig22a_speedup_grows_with_core_count() {
    let s = figs::fig22a();
    let cg: Vec<f64> = [256, 512, 768, 1024]
        .iter()
        .map(|c| value(&s, &format!("cores={c} CG")))
        .collect();
    assert!(
        cg.windows(2).all(|w| w[1] >= w[0] * 0.99),
        "CG speedup must grow with cores: {cg:?}"
    );
    assert!(cg[0] > 10.0 && cg[3] > cg[0] * 1.5, "{cg:?}");
    // Finer levels stack on top at every point.
    for c in [256, 512, 768, 1024] {
        let base = value(&s, &format!("cores={c} CG"));
        let mvm = value(&s, &format!("cores={c} CG+MVM"));
        let vvm = value(&s, &format!("cores={c} CG+MVM+VVM"));
        assert!(mvm >= base && vvm >= mvm, "cores={c}");
    }
}

#[test]
fn fig22b_speedup_grows_with_crossbar_count() {
    let s = figs::fig22b();
    let cg: Vec<f64> = [8, 12, 16, 20]
        .iter()
        .map(|x| value(&s, &format!("xb_number={x} CG")))
        .collect();
    assert!(
        cg.windows(2).all(|w| w[1] >= w[0] * 0.99),
        "speedup must grow with crossbars: {cg:?}"
    );
}

#[test]
fn fig22c_tall_narrow_crossbars_lose() {
    // §4.4.2: at 512x64 ViT's 768-row matrices need two vertical
    // crossbars and more total resources, so speedup drops.
    let s = figs::fig22c();
    let mid = value(&s, "xb_size=128x256 CG+MVM+VVM");
    let tall = value(&s, "xb_size=512x64 CG+MVM+VVM");
    assert!(
        tall < mid,
        "512x64 ({tall}) should underperform 128x256 ({mid})"
    );
}

#[test]
fn fig22d_vvm_mitigates_narrow_parallel_rows() {
    // §4.4.3: when parallel_row shrinks, VVM remapping mitigates the
    // impact — at 8 rows the paper reports ~20% over MVM.
    let s = figs::fig22d();
    let mvm8 = value(&s, "parallel_row=8 CG+MVM");
    let vvm8 = value(&s, "parallel_row=8 CG+MVM+VVM");
    assert!(
        vvm8 > mvm8 * 1.05,
        "VVM should add ≥5% at parallel_row=8: {mvm8} -> {vvm8}"
    );
}
