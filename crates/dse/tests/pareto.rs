//! Property tests of Pareto-front extraction — on raw objective vectors
//! and on real exploration runs — plus the headline determinism
//! property: identical `(strategy, seed, budget)` inputs yield
//! byte-identical `comparable()` reports at `jobs = 1` and `jobs = 4`.

use cim_compiler::OptLevel;
use cim_dse::{dominates, pareto_front, DesignSpace, Explorer, Objective, StrategyKind};
use cim_graph::zoo;
use cim_obs::Document;
use proptest::prelude::*;

proptest! {
    /// Exact-front invariants on arbitrary vector sets: no front member
    /// is dominated by *any* vector, and every non-member is dominated
    /// by someone.
    #[test]
    fn front_members_are_undominated_and_nonmembers_dominated(
        vectors in proptest::collection::vec(
            proptest::collection::vec(0u32..6, 3), 1..40,
        )
    ) {
        let vectors: Vec<Vec<f64>> =
            vectors.into_iter().map(|v| v.into_iter().map(f64::from).collect()).collect();
        let front = pareto_front(&vectors);
        prop_assert!(!front.is_empty(), "a non-empty set has a non-empty front");
        for &i in &front {
            for other in &vectors {
                prop_assert!(
                    !dominates(other, &vectors[i]),
                    "front member {i} is dominated"
                );
            }
        }
        for i in 0..vectors.len() {
            if !front.contains(&i) {
                prop_assert!(
                    vectors.iter().any(|other| dominates(other, &vectors[i])),
                    "non-member {i} is undominated"
                );
            }
        }
    }
}

/// A small space (36 points) so property-style exploration runs stay
/// fast while still exercising multi-axis mutation.
fn small_space() -> DesignSpace {
    DesignSpace {
        base: "isaac-wlm".to_owned(),
        xb_rows: vec![64, 128, 256],
        xb_cols: vec![128],
        xb_per_core: vec![8, 16],
        cores: vec![384],
        cell_bits: vec![2],
        adc_bits: vec![6, 8],
        modes: vec![OptLevel::Auto, OptLevel::CgMvmVvm, OptLevel::Cg],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On real exploration runs: no candidate on the returned front is
    /// dominated by any evaluated candidate, for every strategy and
    /// arbitrary seeds/budgets.
    #[test]
    fn no_front_point_is_dominated_by_any_evaluated_candidate(
        strategy_index in 0usize..4,
        seed in 0u64..1000,
        budget in 1usize..40,
    ) {
        let kind = StrategyKind::ALL[strategy_index];
        let space = small_space();
        let objective = Objective::parse("latency,energy").unwrap();
        let mut strategy = kind.build(seed);
        let report = Explorer::new()
            .with_threads(2)
            .explore(&zoo::lenet5(), &space, strategy.as_mut(), &objective, seed, budget)
            .unwrap();
        prop_assert!(report.proposed <= budget);
        if !report.candidates.is_empty() {
            prop_assert!(!report.front.is_empty());
        }
        for &i in &report.front {
            for c in &report.candidates {
                prop_assert!(
                    !dominates(&c.objectives, &report.candidates[i].objectives),
                    "front candidate {} is dominated by {}",
                    report.candidates[i].point.key(),
                    c.point.key()
                );
            }
        }
    }

    /// Identical `(strategy, seed, budget)` runs are byte-identical in
    /// their comparison section across worker counts.
    #[test]
    fn identical_runs_are_byte_identical_at_jobs_1_vs_4(
        strategy_index in 0usize..4,
        seed in 0u64..1000,
        budget in 1usize..30,
    ) {
        let kind = StrategyKind::ALL[strategy_index];
        let space = small_space();
        let objective = Objective::parse("latency,energy").unwrap();
        let run = |threads: usize| {
            let mut strategy = kind.build(seed);
            Explorer::new()
                .with_threads(threads)
                .explore(&zoo::lenet5(), &space, strategy.as_mut(), &objective, seed, budget)
                .unwrap()
        };
        let sequential = run(1);
        let parallel = run(4);
        prop_assert_eq!(
            sequential.comparable().to_json(),
            parallel.comparable().to_json(),
            "jobs=1 vs jobs=4 reports diverge for {} seed {} budget {}",
            kind.name(), seed, budget
        );
    }
}
