//! Criterion benches for cold-compile wall-clock time — the workloads
//! the `compile-perf` CI gate budgets (`cim_bench::GATE_ENTRIES`).
//!
//! These are the tracking companion to the gate: `cimc compile-perf`
//! enforces the absolute median budgets in CI, while `cargo bench
//! --bench compile_time` gives the full Criterion distribution (and
//! history under `target/criterion/`) when chasing a regression or
//! validating an optimization.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_cold_compiles(c: &mut Criterion) {
    for entry in cim_bench::GATE_ENTRIES {
        let graph = cim_graph::zoo::by_name(entry.model).expect("gate models exist");
        let arch = cim_arch::presets::by_name(entry.arch).expect("gate archs exist");
        let compiler = cim_compiler::Compiler::new();
        c.bench_function(
            &format!("cold_compile_{}_{}", entry.model, entry.arch),
            |b| b.iter(|| black_box(compiler.compile(&graph, &arch).unwrap())),
        );
    }
}

criterion_group!(benches, bench_cold_compiles);
criterion_main!(benches);
