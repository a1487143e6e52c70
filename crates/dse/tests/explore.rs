//! Integration tests of the exploration engine: cache reuse (cold
//! nonzero hit rate from shared pipeline prefixes, warm disk reruns),
//! determinism across cache states, and the acceptance-level hill-climb
//! run (≥ 200 candidates, non-empty front, reproducible across thread
//! counts, warm hit rate > 0).

use cim_compiler::OptLevel;
use cim_compiler::{CompileCache, DiskCache, MemoryCache};
use cim_dse::{DesignSpace, DseReport, Explorer, Metric, Objective, StrategyKind};
use cim_graph::zoo;
use cim_obs::Document;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cim_dse_{tag}_{}", std::process::id()))
}

fn run(
    kind: StrategyKind,
    seed: u64,
    budget: usize,
    threads: usize,
    cache: Option<Arc<dyn CompileCache>>,
) -> DseReport {
    let space = DesignSpace::default_space();
    let objective = Objective::parse("latency,energy").unwrap();
    let mut strategy = kind.build(seed);
    let mut explorer = Explorer::new().with_threads(threads);
    if let Some(cache) = cache {
        explorer = explorer.with_cache(cache);
    }
    explorer
        .explore(
            &zoo::lenet5(),
            &space,
            strategy.as_mut(),
            &objective,
            seed,
            budget,
        )
        .unwrap()
}

/// The ISSUE acceptance bar: a seeded hill-climb over ≥ 200 candidates
/// completes with a non-empty Pareto front, is bit-reproducible across
/// thread counts, and reports a nonzero warm-cache hit rate on rerun.
#[test]
fn seeded_hill_climb_over_200_candidates_meets_the_acceptance_bar() {
    let dir = tmp_dir("accept");
    let _ = std::fs::remove_dir_all(&dir);

    let cold_cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
    let cold = run(StrategyKind::HillClimb, 42, 200, 4, Some(cold_cache));
    assert_eq!(cold.proposed, 200);
    assert!(!cold.front.is_empty(), "non-empty Pareto front");
    assert!(!cold.candidates.is_empty());

    // Bit-reproducible across thread counts (uncached vs cached too).
    let sequential = run(StrategyKind::HillClimb, 42, 200, 1, None);
    assert_eq!(
        cold.comparable().to_json(),
        sequential.comparable().to_json(),
        "jobs=4 disk-cached vs jobs=1 uncached must match bit-for-bit"
    );

    // Warm rerun over the same disk cache: nonzero hit rate.
    let warm_cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
    let warm = run(StrategyKind::HillClimb, 42, 200, 4, Some(warm_cache));
    let stats = warm.cache_stats.expect("cache attached");
    assert!(stats.hits > 0, "warm rerun must hit: {}", stats.render());
    assert!(
        stats.hit_rate() > 0.0,
        "warm hit rate must be nonzero: {}",
        stats.render()
    );
    assert_eq!(stats.misses, 0, "warm rerun must be all hits");
    assert_eq!(cold.comparable().to_json(), warm.comparable().to_json());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cold_memoized_run_already_hits_on_shared_prefixes() {
    // Points differing only in scheduling depth share (graph, arch)
    // pipeline prefixes, and local searches revisit points — so even a
    // cold in-memory run reports hits.
    let cache = Arc::new(MemoryCache::new());
    let report = run(StrategyKind::HillClimb, 7, 120, 2, Some(cache));
    let stats = report.cache_stats.expect("cache attached");
    assert!(
        stats.hits > 0,
        "cold run shares prefixes: {}",
        stats.render()
    );
    assert!(stats.stores > 0);
}

#[test]
fn cache_state_never_changes_results() {
    let uncached = run(StrategyKind::Evolutionary, 9, 64, 2, None);
    assert!(uncached.cache_stats.is_none());
    let memoized = run(
        StrategyKind::Evolutionary,
        9,
        64,
        2,
        Some(Arc::new(MemoryCache::new())),
    );
    assert!(memoized.cache_stats.is_some());
    assert_eq!(
        uncached.comparable().to_json(),
        memoized.comparable().to_json()
    );
}

#[test]
fn every_strategy_finds_the_exhaustive_optimum_on_a_tiny_space() {
    // On a fully-enumerable space with budget ≥ size, exhaustive search
    // is ground truth; seeded random with the same budget must match it
    // (it may revisit, so give it slack), and the front must agree on
    // the single-objective optimum.
    let space = DesignSpace {
        base: "isaac-wlm".to_owned(),
        xb_rows: vec![64, 128],
        xb_cols: vec![128],
        xb_per_core: vec![8, 16],
        cores: vec![384],
        cell_bits: vec![2],
        adc_bits: vec![8],
        modes: vec![OptLevel::Auto],
    };
    let objective = Objective::single(Metric::Latency);
    let graph = zoo::mlp();
    let mut exhaustive = StrategyKind::Exhaustive.build(0);
    let truth = Explorer::new()
        .with_threads(2)
        .explore(&graph, &space, exhaustive.as_mut(), &objective, 0, 100)
        .unwrap();
    assert_eq!(truth.candidates.len(), 4, "4-point space fully enumerated");
    assert_eq!(truth.proposed, 4, "exhaustive stops at the space size");
    let best = truth.best().unwrap().score;

    let mut hill = StrategyKind::HillClimb.build(1);
    let climbed = Explorer::new()
        .with_threads(2)
        .explore(&graph, &space, hill.as_mut(), &objective, 1, 100)
        .unwrap();
    assert_eq!(
        climbed.best().unwrap().score,
        best,
        "hill climb must find the optimum of a 4-point space within budget"
    );
}

#[test]
fn failures_are_recorded_not_fatal() {
    // A workload with no CIM operators cannot map onto any candidate:
    // every evaluation fails, yet the exploration itself completes and
    // records the errors instead of aborting.
    let mut graph = cim_graph::Graph::new("no_cim_ops");
    let x = graph
        .add(
            "x",
            cim_graph::OpKind::Input {
                shape: cim_graph::Shape::chw(3, 8, 8),
            },
            [],
        )
        .unwrap();
    graph.add("relu", cim_graph::OpKind::Relu, [x]).unwrap();

    let space = DesignSpace {
        base: "isaac-wlm".to_owned(),
        xb_rows: vec![64, 128],
        xb_cols: vec![128],
        xb_per_core: vec![8],
        cores: vec![384],
        cell_bits: vec![2],
        adc_bits: vec![8],
        modes: vec![OptLevel::Auto],
    };
    let objective = Objective::single(Metric::Latency);
    let mut strategy = StrategyKind::Exhaustive.build(0);
    let report = Explorer::new()
        .explore(&graph, &space, strategy.as_mut(), &objective, 0, 10)
        .unwrap();
    assert_eq!(report.proposed, 2);
    assert!(report.candidates.is_empty());
    assert_eq!(report.failures.len(), 2, "every point fails, none aborts");
    assert!(!report.failures[0].error.is_empty());
    assert!(report.front.is_empty(), "no candidates, no front");
    assert_eq!(report.trace.last().unwrap().best_score, None);
}

#[test]
fn report_survives_a_json_round_trip_with_front_intact() {
    let report = run(StrategyKind::Random, 13, 48, 2, None);
    let back = DseReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back, report);
    assert_eq!(
        back.front_candidates().len(),
        report.front.len(),
        "front indices resolve after the round trip"
    );
}
