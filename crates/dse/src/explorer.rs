//! The exploration engine: strategy batches → parallel cached
//! evaluation → Pareto front + convergence trace.
//!
//! [`Explorer::explore`] drives a [`SearchStrategy`] against a
//! [`DesignSpace`]: each proposed batch is realized into concrete
//! architectures, compiled on the shared worker pool
//! ([`cim_compiler::compile_batch`], the same evaluation `cimc bench`
//! sweeps with), and scored under the run's [`Objective`]. A shared
//! [`CompileCache`] makes neighboring candidates cheap — points
//! differing only in scheduling depth share pipeline-prefix artifacts,
//! revisited points are memoized outright, and a
//! [`DiskCache`](cim_compiler::DiskCache) makes whole reruns warm.
//!
//! Determinism: candidate order equals proposal order (the pool writes
//! results back by index), strategies are seeded, and every recorded
//! quantity is a pure function of the compilation — so identical
//! `(space, strategy, seed, budget, objective, model)` runs produce
//! byte-identical [`DseReport::comparable`] documents at any `--jobs`
//! setting and any cache temperature.

use crate::objective::{pareto_front, Objective, TrafficEval};
use crate::report::{DseCandidate, DseFailure, DseReport, TracePoint};
use crate::space::{DesignPoint, DesignSpace, SpaceError};
use crate::strategy::{History, SearchStrategy};
use cim_arch::CimArchitecture;
use cim_compiler::pool::run_ordered;
use cim_compiler::{compile_batch, BatchJob, CompileCache, JobMetrics};
use cim_graph::Graph;
use cim_obs::{Document, RunTiming};
use cim_traffic::{simulate_priced, Batching, Placement, PolicyKind, SimConfig, Trace};
use std::collections::HashSet;
use std::sync::Arc;

/// Why an exploration could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DseError {
    /// The design space failed validation.
    Space(SpaceError),
    /// The evaluation budget is zero.
    ZeroBudget,
    /// The objective reads serving metrics but the explorer carries no
    /// traffic workload ([`Explorer::with_traffic`]).
    TrafficRequired {
        /// The first traffic-requiring metric of the objective.
        metric: String,
    },
}

impl std::fmt::Display for DseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseError::Space(e) => e.fmt(f),
            DseError::ZeroBudget => write!(f, "exploration budget must be at least 1"),
            DseError::TrafficRequired { metric } => write!(
                f,
                "objective metric `{metric}` needs a traffic workload \
                 (provide a trace to simulate candidates under)"
            ),
        }
    }
}

impl std::error::Error for DseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DseError::Space(e) => Some(e),
            _ => None,
        }
    }
}

/// The fixed serving workload candidates are simulated under when the
/// objective includes a traffic metric: one trace, the graphs of every
/// model it references, and the scheduling configuration. Held constant
/// across the whole exploration so candidates are comparable.
#[derive(Clone)]
pub struct TrafficWorkload {
    /// The request trace (its spec names the tenants and models).
    pub trace: Trace,
    /// Graph for every distinct model the trace's tenants run.
    pub models: Vec<(String, Graph)>,
    /// Scheduling policy candidates serve under.
    pub policy: PolicyKind,
    /// Batch-forming limits.
    pub batching: Batching,
}

impl From<SpaceError> for DseError {
    fn from(e: SpaceError) -> Self {
        DseError::Space(e)
    }
}

/// Drives design-space exploration runs. Configure once (threads,
/// cache), then call [`Explorer::explore`] per run.
#[derive(Default)]
pub struct Explorer {
    threads: usize,
    cache: Option<Arc<dyn CompileCache>>,
    traffic: Option<TrafficWorkload>,
}

impl Explorer {
    /// An explorer evaluating candidates sequentially with no cache.
    #[must_use]
    pub fn new() -> Self {
        Explorer {
            threads: 1,
            cache: None,
            traffic: None,
        }
    }

    /// Sets the worker-thread count for batch evaluation (clamped to at
    /// least 1). Results are identical for every value; only wall-clock
    /// time changes.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Shares `cache` across every candidate compilation of every run —
    /// the warm-rerun/cross-candidate reuse the exploration workload is
    /// built around.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<dyn CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a fixed serving workload: every candidate architecture
    /// is additionally carved into a balanced per-model placement,
    /// priced through the shared compile cache, and replayed under
    /// `workload.trace` — populating each candidate's `traffic`
    /// evaluation and enabling the `p99_latency`/`throughput`/
    /// `miss_rate` objectives.
    #[must_use]
    pub fn with_traffic(mut self, workload: TrafficWorkload) -> Self {
        self.traffic = Some(workload);
        self
    }

    /// Runs `strategy` over `space` against workload `graph`, charging
    /// at most `budget` evaluations, and assembles the versioned report.
    ///
    /// `seed` must be the seed `strategy` was built with — it is
    /// recorded in the report for reproduction, not consumed here.
    ///
    /// # Errors
    /// Returns [`DseError`] on an invalid space or a zero budget.
    /// Per-candidate build/compile failures do *not* abort the run; they
    /// are recorded in the report's `failures` section.
    pub fn explore(
        &self,
        graph: &Graph,
        space: &DesignSpace,
        strategy: &mut dyn SearchStrategy,
        objective: &Objective,
        seed: u64,
        budget: usize,
    ) -> Result<DseReport, DseError> {
        space.validate()?;
        if budget == 0 {
            return Err(DseError::ZeroBudget);
        }
        if objective.needs_traffic() && self.traffic.is_none() {
            return Err(DseError::TrafficRequired {
                metric: objective
                    .first_traffic_metric()
                    .expect("needs_traffic implies a traffic metric")
                    .name()
                    .to_owned(),
            });
        }
        let base = space.base_arch();
        let stats_before = self.cache.as_ref().map(|c| c.stats());
        let started = cim_obs::stopwatch();

        let mut history = History::new();
        let mut trace = Vec::new();
        let mut proposed = 0usize;
        while proposed < budget {
            let remaining = budget - proposed;
            let mut batch = strategy.next_batch(space, &history, remaining);
            if batch.is_empty() {
                break;
            }
            batch.truncate(remaining);
            proposed += batch.len();

            // Unique new points of this batch, in first-proposal order;
            // revisits (across batches or within one) are memo-served.
            let mut seen: HashSet<String> = HashSet::new();
            let fresh: Vec<DesignPoint> = batch
                .into_iter()
                .filter(|p| !history.contains(p) && seen.insert(p.key()))
                .collect();

            self.evaluate(graph, &base, fresh, objective, &mut history);
            trace.push(TracePoint {
                proposed,
                evaluated: history.candidates().len(),
                best_score: history.best().map(|c| c.score),
            });
        }

        let total_ms = started.elapsed_ms();
        let (candidates, failures) = history.into_parts();
        let vectors: Vec<Vec<f64>> = candidates.iter().map(|c| c.objectives.clone()).collect();
        let front = pareto_front(&vectors);
        let mut report = DseReport {
            schema_version: DseReport::VERSION,
            toolchain: concat!("cim-dse ", env!("CARGO_PKG_VERSION")).to_owned(),
            model: graph.name().to_owned(),
            space: space.clone(),
            strategy: strategy.name().to_owned(),
            objective: objective.canonical(),
            seed,
            budget,
            proposed,
            candidates,
            failures,
            front,
            trace,
            timing: RunTiming {
                total_ms,
                threads: self.threads,
            },
            cache_stats: None,
        };
        report.cache_stats = self
            .cache
            .as_ref()
            .zip(stats_before)
            .map(|(c, before)| c.stats().since(&before));
        Ok(report)
    }

    /// Evaluates one batch of fresh points into `history`, in order:
    /// realize each architecture, compile the buildable ones in one
    /// [`compile_batch`] (with the shared cache when present), summarize
    /// — and, when a traffic workload is attached, carve each compiled
    /// candidate into a balanced placement and replay the trace against
    /// it. The results are pure functions of the point (and the fixed
    /// workload), so memoizing by point key is sound.
    fn evaluate(
        &self,
        graph: &Graph,
        base: &CimArchitecture,
        points: Vec<DesignPoint>,
        objective: &Objective,
        history: &mut History,
    ) {
        let archs: Vec<_> = points.iter().map(|p| p.realize(base)).collect();
        let jobs: Vec<BatchJob<'_>> = points
            .iter()
            .zip(&archs)
            .filter_map(|(point, arch)| {
                Some(BatchJob {
                    graph,
                    arch: arch.as_ref().ok()?,
                    level: point.mode,
                })
            })
            .collect();
        let mut compiled = compile_batch(&jobs, self.threads, self.cache.as_ref()).into_iter();
        let compiled: Vec<Result<(&CimArchitecture, JobMetrics, f64), String>> = archs
            .iter()
            .map(|arch| {
                let arch = arch
                    .as_ref()
                    .map_err(|e| format!("invalid architecture: {e}"))?;
                let (metrics, compile_ms) = compiled
                    .next()
                    .expect("one result per buildable point")
                    .map_err(|e| e.to_string())?;
                Ok((arch, JobMetrics::from(&metrics), compile_ms))
            })
            .collect();
        let outcomes = run_ordered(&compiled, self.threads, |candidate| -> Result<_, String> {
            let (arch, metrics, compile_ms) = candidate.clone()?;
            let Some(workload) = &self.traffic else {
                return Ok((metrics, None, compile_ms));
            };
            let started = cim_obs::stopwatch();
            let traffic = evaluate_traffic(arch, workload, self.cache.as_ref())?;
            Ok((metrics, Some(traffic), compile_ms + started.elapsed_ms()))
        });
        for (point, outcome) in points.into_iter().zip(outcomes) {
            match outcome {
                Ok((metrics, traffic, eval_ms)) => {
                    let objectives = objective.vector(&metrics, traffic.as_ref());
                    let score = objective.score(&metrics, traffic.as_ref());
                    history.record_success(DseCandidate {
                        point,
                        metrics,
                        traffic,
                        objectives,
                        score,
                        eval_ms,
                    });
                }
                Err(error) => history.record_failure(DseFailure { point, error }),
            }
        }
    }
}

/// Simulates the fixed workload on one candidate architecture. Pricing
/// goes through the shared compile cache; the simulation itself is the
/// bit-reproducible integer-cycle engine, so the result is a pure
/// function of `(point, workload)` at any cache temperature.
fn evaluate_traffic(
    arch: &CimArchitecture,
    workload: &TrafficWorkload,
    cache: Option<&Arc<dyn CompileCache>>,
) -> Result<TrafficEval, String> {
    let placement = Placement::balanced(arch, &workload.trace.spec)
        .map_err(|e| format!("traffic placement failed: {e}"))?;
    let services = cim_traffic::price_placement(arch, &placement, &workload.models, cache, 1)
        .map_err(|e| format!("traffic pricing failed: {e}"))?;
    let config = SimConfig {
        policy: workload.policy,
        batching: workload.batching,
    };
    let (report, _) = simulate_priced(&workload.trace, arch, &placement, &services, &config, 1)
        .map_err(|e| format!("traffic simulation failed: {e}"))?;
    let agg = &report.aggregate;
    let miss_rate = if agg.requests > 0 {
        (agg.dropped + agg.missed) as f64 / agg.requests as f64
    } else {
        0.0
    };
    Ok(TrafficEval {
        p99_latency: agg.latency.p99,
        throughput: agg.throughput,
        miss_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Metric;
    use crate::strategy::{Exhaustive, HillClimb, StrategyKind};
    use cim_graph::zoo;

    fn tiny_space() -> DesignSpace {
        DesignSpace {
            base: "isaac-wlm".to_owned(),
            xb_rows: vec![64, 128],
            xb_cols: vec![128],
            xb_per_core: vec![8, 16],
            cores: vec![384],
            cell_bits: vec![2],
            adc_bits: vec![6, 8],
            modes: vec![cim_compiler::OptLevel::Auto, cim_compiler::OptLevel::Cg],
        }
    }

    #[test]
    fn exhaustive_covers_the_whole_tiny_space() {
        let space = tiny_space();
        let graph = zoo::lenet5();
        let mut strategy = Exhaustive::new();
        let report = Explorer::new()
            .with_threads(2)
            .explore(
                &graph,
                &space,
                &mut strategy,
                &Objective::single(Metric::Latency),
                0,
                1000,
            )
            .unwrap();
        // 2*1*2*1*1*2*2 = 16 points, all unique, all compiled.
        assert_eq!(report.proposed, 16);
        assert_eq!(report.candidates.len(), 16);
        assert!(report.failures.is_empty());
        assert!(!report.front.is_empty());
        // Single-objective front members all share the minimum score.
        let best = report.best().unwrap().score;
        for c in report.front_candidates() {
            assert_eq!(c.score, best);
        }
        // The trace is monotone in proposals and ends at the budget spent.
        assert!(report
            .trace
            .windows(2)
            .all(|w| w[0].proposed < w[1].proposed));
        assert_eq!(report.trace.last().unwrap().proposed, 16);
    }

    #[test]
    fn zero_budget_and_bad_space_are_rejected() {
        let graph = zoo::lenet5();
        let mut strategy = Exhaustive::new();
        let err = Explorer::new()
            .explore(
                &graph,
                &tiny_space(),
                &mut strategy,
                &Objective::single(Metric::Latency),
                0,
                0,
            )
            .unwrap_err();
        assert_eq!(err, DseError::ZeroBudget);

        let mut bad = tiny_space();
        bad.base = "nope".to_owned();
        let err = Explorer::new()
            .explore(
                &graph,
                &bad,
                &mut strategy,
                &Objective::single(Metric::Latency),
                0,
                4,
            )
            .unwrap_err();
        assert!(err.to_string().contains("`nope`"), "{err}");
    }

    #[test]
    fn hill_climb_improves_or_matches_its_start_and_respects_budget() {
        let space = tiny_space();
        let graph = zoo::lenet5();
        let mut strategy = HillClimb::new(11);
        let objective = Objective::single(Metric::Latency);
        let report = Explorer::new()
            .with_threads(2)
            .explore(&graph, &space, &mut strategy, &objective, 11, 40)
            .unwrap();
        assert!(report.proposed <= 40);
        let start = &report.candidates[0];
        assert!(report.best().unwrap().score <= start.score);
    }

    #[test]
    fn traffic_objective_without_workload_is_rejected_up_front() {
        let graph = zoo::lenet5();
        let mut strategy = Exhaustive::new();
        let err = Explorer::new()
            .explore(
                &graph,
                &tiny_space(),
                &mut strategy,
                &Objective::parse("p99_latency").unwrap(),
                0,
                4,
            )
            .unwrap_err();
        assert!(
            matches!(&err, DseError::TrafficRequired { metric } if metric == "p99_latency"),
            "{err}"
        );
    }

    #[test]
    fn traffic_objective_explores_and_reproduces_across_thread_counts() {
        use cim_traffic::{GeneratorKind, TenantSpec, TraceSpec};
        let spec = TraceSpec {
            name: "dse-fixed".to_owned(),
            kind: GeneratorKind::Poisson,
            seed: 7,
            horizon: 400_000,
            mean_gap: 4_000.0,
            burst_len: 8,
            idle_gap: 50_000.0,
            tenants: vec![TenantSpec {
                name: "t0".to_owned(),
                model: "lenet5".to_owned(),
                weight: 1.0,
                priority: 0,
                deadline: Some(100_000),
            }],
        };
        let workload = TrafficWorkload {
            trace: spec.generate().unwrap(),
            models: vec![("lenet5".to_owned(), zoo::lenet5())],
            policy: PolicyKind::Edf,
            batching: Batching::default(),
        };
        let graph = zoo::lenet5();
        let objective = Objective::parse("p99_latency,throughput").unwrap();
        let run = |threads: usize| {
            let mut strategy = Exhaustive::new();
            Explorer::new()
                .with_threads(threads)
                .with_traffic(workload.clone())
                .explore(&graph, &tiny_space(), &mut strategy, &objective, 0, 8)
                .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert!(!a.front.is_empty());
        assert!(a.candidates.iter().all(|c| c.traffic.is_some()));
        let c = a.best().unwrap();
        assert!(c.traffic.unwrap().throughput > 0.0);
        assert_eq!(
            a.comparable().to_json(),
            b.comparable().to_json(),
            "traffic exploration must be thread-count invariant"
        );
    }

    #[test]
    fn memoized_revisits_do_not_duplicate_candidates() {
        // Random sampling of a 16-point space with a 64-proposal budget
        // must revisit, yet candidates stay unique.
        let space = tiny_space();
        let graph = zoo::lenet5();
        let mut strategy = StrategyKind::Random.build(5);
        let report = Explorer::new()
            .with_threads(4)
            .explore(
                &graph,
                &space,
                strategy.as_mut(),
                &Objective::parse("latency,energy").unwrap(),
                5,
                64,
            )
            .unwrap();
        assert_eq!(report.proposed, 64);
        let mut keys: Vec<String> = report.candidates.iter().map(|c| c.point.key()).collect();
        let unique_before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), unique_before, "duplicate candidate recorded");
        assert!(unique_before <= 16);
        // Multi-objective vectors have one entry per metric.
        assert_eq!(report.candidates[0].objectives.len(), 2);
    }
}
