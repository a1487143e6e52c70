//! Golden structural fingerprints and schedules of the model zoo.
//!
//! The committed fixture (`tests/fixtures/zoo_goldens.txt`) pins each zoo
//! model's [`fingerprint_graph`], which covers what the JSON exchange
//! form carries — names, operator attributes and edges — next to the
//! node, CIM-op, weight and MAC counts the fingerprint does not cover.
//! A changed hex means the model changed or the graph key derivation did
//! (which also moves every disk-cache key, so it comes with an
//! `ENTRY_FORMAT_VERSION` bump); a changed count means an analysis query
//! moved.
//!
//!
//! The second fixture (`tests/fixtures/zoo_schedules.txt`) pins what
//! `Compiler::new()` makes of every zoo model on every preset: the bits of
//! the deepest report's latency, peak power and total energy, then the
//! segment and stage counts. A changed line means a schedule moved, which
//! a pure performance change must never do.
//!
//! Regenerate (only when a zoo model, the graph key or a schedule is
//! *intentionally* changed) with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p cim-compiler --test zoo_goldens
//! ```

use cim_arch::presets;
use cim_compiler::cache::fingerprint_graph;
use cim_compiler::Compiler;
use cim_graph::zoo;

const FIXTURE: &str = include_str!("fixtures/zoo_goldens.txt");
const SCHEDULES: &str = include_str!("fixtures/zoo_schedules.txt");

fn current_lines() -> Vec<String> {
    zoo::all()
        .iter()
        .map(|g| {
            format!(
                "{} {} {} {} {} {}",
                g.name(),
                fingerprint_graph(g).to_hex(),
                g.len(),
                g.cim_nodes().len(),
                g.total_weights(),
                g.total_macs()
            )
        })
        .collect()
}

/// One line per zoo model × preset: `model@preset`, then the hex bits of
/// `latency_cycles`, `peak_power` and total energy, the segment count and
/// the stage count.
fn schedule_lines() -> Vec<String> {
    let compiler = Compiler::new();
    let archs: Vec<_> = presets::NAMES
        .iter()
        .map(|&name| (name, presets::by_name(name).expect("preset exists")))
        .collect();
    zoo::all()
        .iter()
        .flat_map(|g| {
            let compiler = &compiler;
            archs.iter().map(move |(name, arch)| {
                let case = format!("{}@{name}", g.name());
                let c = compiler.compile(g, arch).expect(&case);
                let r = c.report();
                format!(
                    "{case} {:016x} {:016x} {:016x} {} {}",
                    r.latency_cycles.to_bits(),
                    r.peak_power.to_bits(),
                    r.energy.total().to_bits(),
                    r.segments,
                    c.cg.stages.len()
                )
            })
        })
        .collect()
}

/// Compares `current` with the committed `fixture`, or rewrites the fixture
/// file `name` under `UPDATE_GOLDENS`.
fn check_fixture(name: &str, fixture: &str, current: &[String]) {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, current.join("\n") + "\n").expect("write fixture");
        return;
    }
    let golden: Vec<&str> = fixture.lines().collect();
    assert_eq!(
        golden.len(),
        current.len(),
        "{name}: zoo size changed; regenerate the fixture if intentional"
    );
    for (want, got) in golden.iter().zip(current) {
        assert_eq!(got, want, "{name}: golden mismatch");
    }
}

#[test]
fn zoo_matches_pre_refactor_goldens() {
    check_fixture("zoo_goldens.txt", FIXTURE, &current_lines());
}

#[test]
fn zoo_schedules_match_their_goldens() {
    check_fixture("zoo_schedules.txt", SCHEDULES, &schedule_lines());
}
