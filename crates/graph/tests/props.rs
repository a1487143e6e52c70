//! Property tests on the graph IR: randomly composed valid networks
//! always shape-infer, keep topological invariants, survive JSON
//! round-trips, and report consistent analysis numbers.

use cim_graph::{from_json, to_json};
use networks::{build, layers};
use proptest::prelude::*;

mod networks;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_networks_build_and_analyze(
        in_c in 1usize..4,
        hw in 4usize..12,
        spec in layers(),
    ) {
        let g = build(in_c, hw, &spec);
        // Topological invariant: every edge points backwards.
        for node in g.nodes() {
            for &input in node.inputs() {
                prop_assert!(input < node.id());
            }
        }
        // Exactly one output (the classifier head).
        prop_assert_eq!(g.outputs().len(), 1);
        // Analysis consistency.
        prop_assert!(g.total_macs() > 0);
        prop_assert!(g.total_weights() > 0);
        for id in g.cim_nodes() {
            let (rows, cols) = g.weight_matrix(id).unwrap();
            prop_assert!(rows > 0 && cols > 0);
            prop_assert!(g.mvm_count(id) > 0);
            prop_assert_eq!(
                g.macs(id),
                g.mvm_count(id) * rows as u64 * cols as u64
            );
        }
    }

    #[test]
    fn json_round_trip_is_identity(
        in_c in 1usize..4,
        hw in 4usize..12,
        spec in layers(),
    ) {
        let g = build(in_c, hw, &spec);
        let back = from_json(&to_json(&g)).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn shape_inference_is_deterministic(
        in_c in 1usize..4,
        hw in 4usize..12,
        spec in layers(),
    ) {
        let a = build(in_c, hw, &spec);
        let b = build(in_c, hw, &spec);
        prop_assert_eq!(a, b);
    }
}
