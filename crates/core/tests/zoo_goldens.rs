//! Golden structural fingerprints of the model zoo.
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
//! Regenerate (only when a zoo model or the graph key is *intentionally*
//! changed) with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p cim-compiler --test zoo_goldens
//! ```

use cim_compiler::cache::fingerprint_graph;
use cim_graph::zoo;

const FIXTURE: &str = include_str!("fixtures/zoo_goldens.txt");

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

#[test]
fn zoo_matches_pre_refactor_goldens() {
    let current = current_lines();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/zoo_goldens.txt"
        );
        std::fs::write(path, current.join("\n") + "\n").expect("write fixture");
        return;
    }
    let golden: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(
        golden.len(),
        current.len(),
        "zoo size changed; regenerate the fixture if intentional"
    );
    for (want, got) in golden.iter().zip(&current) {
        assert_eq!(got, want, "zoo golden mismatch");
    }
}
