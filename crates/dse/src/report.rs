//! Versioned, machine-readable exploration reports.
//!
//! A [`DseReport`] is the JSON artifact `cimc explore --out` emits. It is
//! a [`Document`]: the `schema_version` gate on load, JSON in/out and the
//! [`Document::comparable`] view — which serializes byte-identically for
//! identical `(strategy, seed, budget, space, objective)` runs regardless
//! of worker count or cache state — come from [`cim_obs::doc`].
//!
//! # Version history
//!
//! * **2** — candidates gain an optional `traffic` evaluation
//!   (serving p99/throughput/miss-rate under a fixed trace, for the
//!   `p99_latency`/`throughput`/`miss_rate` objective family). Absent
//!   for compile-only objectives, so v1 documents still load.
//! * **1** — initial layout.

use crate::space::{DesignPoint, DesignSpace};
use cim_compiler::CacheStats;
use cim_compiler::JobMetrics;
use cim_obs::{Document, RunTiming};
use serde::{Deserialize, Serialize};

/// One evaluated (successfully compiled) design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseCandidate {
    /// The design point.
    pub point: DesignPoint,
    /// Full deterministic metrics of the compilation.
    pub metrics: JobMetrics,
    /// Serving-quality scalars under the run's traffic workload, when
    /// the exploration carried one. Deterministic like `metrics` (the
    /// simulation is bit-reproducible), so kept by
    /// [`Document::comparable`].
    #[serde(default)]
    pub traffic: Option<crate::objective::TrafficEval>,
    /// Direction-adjusted per-objective values (lower is better; the
    /// coordinates the Pareto front is decided on).
    pub objectives: Vec<f64>,
    /// Weighted scalar score (lower is better).
    pub score: f64,
    /// Wall-clock evaluation time in milliseconds — run-specific;
    /// zeroed by [`Document::comparable`].
    pub eval_ms: f64,
}

/// One design point that failed to build or compile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseFailure {
    /// The design point.
    pub point: DesignPoint,
    /// The build/compile error, verbatim.
    pub error: String,
}

/// One convergence-trace sample, recorded after every strategy batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Evaluations charged against the budget so far (including
    /// memo-served revisits).
    pub proposed: usize,
    /// Unique candidates successfully evaluated so far.
    pub evaluated: usize,
    /// Best (lowest) scalar score seen so far, if any candidate
    /// compiled.
    pub best_score: Option<f64>,
}

/// The machine-readable artifact of one exploration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseReport {
    /// Document layout version ([`Document::VERSION`] when written).
    pub schema_version: u32,
    /// The toolchain that produced the report.
    pub toolchain: String,
    /// Workload the space was explored against (zoo model name).
    pub model: String,
    /// The explored space.
    pub space: DesignSpace,
    /// Search strategy name.
    pub strategy: String,
    /// Canonical objective expression ([`crate::Objective::canonical`]).
    pub objective: String,
    /// Seed the strategy was constructed with.
    pub seed: u64,
    /// Evaluation budget requested.
    pub budget: usize,
    /// Evaluations actually charged (≤ budget; a strategy may exhaust
    /// its space early).
    pub proposed: usize,
    /// Unique successfully-evaluated candidates, in first-evaluation
    /// order.
    pub candidates: Vec<DseCandidate>,
    /// Unique failed points, in first-evaluation order.
    pub failures: Vec<DseFailure>,
    /// Ascending indices into `candidates` of the exact Pareto front
    /// over the `objectives` vectors.
    pub front: Vec<usize>,
    /// Per-batch convergence trace.
    pub trace: Vec<TracePoint>,
    /// Wall-clock section (excluded from comparison).
    pub timing: RunTiming,
    /// Compile-cache counters of the run (`None` when uncached).
    /// Run-specific like `timing`, and excluded from comparison: a cold
    /// and a warm exploration differ here and nowhere else.
    #[serde(default)]
    pub cache_stats: Option<CacheStats>,
}

impl Document for DseReport {
    const KIND: &'static str = "exploration report";
    const VERSION: u32 = 2;
    const MIN_VERSION: u32 = 1;

    fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// Wall clocks and cache counters.
    fn strip_volatile(&mut self) {
        self.timing = RunTiming::default();
        for candidate in &mut self.candidates {
            candidate.eval_ms = 0.0;
        }
        self.cache_stats = None;
    }

    /// Every `front` index resolves into `candidates` (a truncated or
    /// hand-edited document fails here), so
    /// [`DseReport::front_candidates`] never panics on a loaded report.
    fn check(&self) -> Result<(), String> {
        match self.front.iter().find(|&&i| i >= self.candidates.len()) {
            Some(bad) => Err(format!(
                "front index {bad} is out of bounds for {} candidate(s)",
                self.candidates.len()
            )),
            None => Ok(()),
        }
    }
}

impl DseReport {
    /// The Pareto-front candidates themselves, in `front` order.
    #[must_use]
    pub fn front_candidates(&self) -> Vec<&DseCandidate> {
        self.front.iter().map(|&i| &self.candidates[i]).collect()
    }

    /// The best candidate by scalar score (ties to the earliest
    /// evaluated), if any compiled.
    #[must_use]
    pub fn best(&self) -> Option<&DseCandidate> {
        self.candidates
            .iter()
            .reduce(|best, c| if c.score < best.score { c } else { best })
    }

    /// Renders a human-readable summary: the front as an aligned table,
    /// plus counts and the best scalar score.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "exploration: {} on `{}` ({} strategy, objective {}, seed {})\n\
             {} evaluation(s) charged of {} budget; {} unique candidate(s), {} failure(s)\n",
            self.space.base,
            self.model,
            self.strategy,
            self.objective,
            self.seed,
            self.proposed,
            self.budget,
            self.candidates.len(),
            self.failures.len(),
        ));
        if let Some(best) = self.best() {
            out.push_str(&format!(
                "best score {:.4} at {}\n",
                best.score,
                best.point.key()
            ));
        }
        out.push_str(&format!(
            "Pareto front ({} point(s), objective(s) {}):\n",
            self.front.len(),
            self.objective
        ));
        for c in self.front_candidates() {
            out.push_str(&format!(
                "  {:<34} score {:>14.4}  latency {:>14.0}  energy {:>14.1}  util {:>6.3}",
                c.point.key(),
                c.score,
                c.metrics.latency_cycles,
                c.metrics.energy_total,
                c.metrics.utilization,
            ));
            if let Some(t) = &c.traffic {
                out.push_str(&format!(
                    "  p99 {:>12.0}  thrpt {:>8.2}/Mcyc  miss {:>6.3}",
                    t.p99_latency, t.throughput, t.miss_rate
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_compiler::OptLevel;
    use cim_obs::DocError;

    fn metrics(latency: f64) -> JobMetrics {
        JobMetrics {
            level: "cg".to_owned(),
            latency_cycles: latency,
            ..JobMetrics::default()
        }
    }

    fn point() -> DesignPoint {
        DesignPoint {
            xb_rows: 128,
            xb_cols: 128,
            xb_per_core: 16,
            cores: 768,
            cell_bits: 2,
            adc_bits: 8,
            mode: OptLevel::Auto,
        }
    }

    fn report() -> DseReport {
        DseReport {
            schema_version: DseReport::VERSION,
            toolchain: "cim-dse test".to_owned(),
            model: "lenet5".to_owned(),
            space: DesignSpace::default_space(),
            strategy: "random".to_owned(),
            objective: "latency".to_owned(),
            seed: 7,
            budget: 10,
            proposed: 10,
            candidates: vec![
                DseCandidate {
                    point: point(),
                    metrics: metrics(1000.0),
                    traffic: None,
                    objectives: vec![1000.0],
                    score: 1000.0,
                    eval_ms: 1.5,
                },
                DseCandidate {
                    point: DesignPoint {
                        xb_rows: 64,
                        ..point()
                    },
                    metrics: metrics(800.0),
                    traffic: Some(crate::objective::TrafficEval {
                        p99_latency: 9_000.0,
                        throughput: 12.5,
                        miss_rate: 0.1,
                    }),
                    objectives: vec![800.0],
                    score: 800.0,
                    eval_ms: 2.5,
                },
            ],
            failures: vec![DseFailure {
                point: DesignPoint {
                    cell_bits: 1,
                    ..point()
                },
                error: "boom".to_owned(),
            }],
            front: vec![1],
            trace: vec![TracePoint {
                proposed: 10,
                evaluated: 2,
                best_score: Some(800.0),
            }],
            timing: RunTiming {
                total_ms: 12.0,
                threads: 4,
            },
            cache_stats: Some(CacheStats {
                hits: 3,
                misses: 2,
                stores: 2,
            }),
        }
    }

    #[test]
    fn out_of_bounds_front_indices_are_rejected_on_load() {
        let mut r = report();
        r.front = vec![1, 7];
        let err = DseReport::from_json(&r.to_json()).unwrap_err();
        assert!(
            matches!(&err, DocError::Parse { message, .. } if message.contains("7")),
            "{err}"
        );
    }

    #[test]
    fn accessors_resolve_the_front_and_best() {
        let r = report();
        assert_eq!(r.best().unwrap().score, 800.0);
        let front = r.front_candidates();
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].point.xb_rows, 64);
        let text = r.render();
        assert!(text.contains("Pareto front"), "{text}");
        assert!(text.contains("r64x128"), "{text}");
    }
}
