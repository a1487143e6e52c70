//! Optimization objectives over compile metrics, and exact Pareto
//! extraction for multi-objective runs.
//!
//! A [`Metric`] names one scalar of a [`JobMetrics`] record together
//! with its optimization direction; an [`Objective`] is a weighted list
//! of metrics. Scalar searches rank candidates by
//! [`Objective::score`] (lower is better, directions folded in);
//! multi-objective runs additionally keep the per-metric
//! [`Objective::vector`] and extract the exact non-dominated set with
//! [`pareto_front`].

use cim_compiler::JobMetrics;
use serde::{Deserialize, Serialize};

/// The serving-quality scalars of one design point under a fixed
/// traffic workload — produced by simulating the candidate architecture
/// with `cim-traffic` and consumed by the traffic [`Metric`] family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficEval {
    /// Aggregate p99 request latency in cycles (minimize).
    pub p99_latency: f64,
    /// Served requests per million cycles (maximize).
    pub throughput: f64,
    /// Fraction of requests dropped or served past their deadline
    /// (minimize).
    pub miss_rate: f64,
}

/// One optimizable scalar of a design point's evaluation.
///
/// The first four read the compile metrics of the candidate
/// architecture; the traffic family ([`Metric::P99Latency`],
/// [`Metric::Throughput`], [`Metric::MissRate`]) reads a [`TrafficEval`]
/// obtained by replaying a fixed request trace against the candidate,
/// and is only available when the explorer was given a traffic
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// End-to-end inference latency in cycles (minimize).
    Latency,
    /// Total energy of one inference (minimize).
    Energy,
    /// Peak instantaneous power (minimize).
    PeakPower,
    /// Peak fraction of crossbars simultaneously active (maximize).
    Utilization,
    /// Aggregate p99 serving latency under the traffic workload
    /// (minimize).
    P99Latency,
    /// Served throughput under the traffic workload (maximize).
    Throughput,
    /// Drop + deadline-miss rate under the traffic workload (minimize).
    MissRate,
}

impl Metric {
    /// Every metric, in canonical order.
    pub const ALL: [Metric; 7] = [
        Metric::Latency,
        Metric::Energy,
        Metric::PeakPower,
        Metric::Utilization,
        Metric::P99Latency,
        Metric::Throughput,
        Metric::MissRate,
    ];

    /// Canonical names accepted by [`Metric::parse`] and the
    /// `cimc explore --objective` flag, in [`Metric::ALL`] order.
    pub const NAMES: [&'static str; 7] = [
        "latency",
        "energy",
        "peak-power",
        "utilization",
        "p99_latency",
        "throughput",
        "miss_rate",
    ];

    /// Stable CLI/report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::Latency => "latency",
            Metric::Energy => "energy",
            Metric::PeakPower => "peak-power",
            Metric::Utilization => "utilization",
            Metric::P99Latency => "p99_latency",
            Metric::Throughput => "throughput",
            Metric::MissRate => "miss_rate",
        }
    }

    /// Parses a name produced by [`Metric::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Whether smaller raw values are better for this metric.
    #[must_use]
    pub fn lower_is_better(self) -> bool {
        !matches!(self, Metric::Utilization | Metric::Throughput)
    }

    /// Whether this metric reads a [`TrafficEval`] (and therefore
    /// requires the explorer to carry a traffic workload).
    #[must_use]
    pub fn needs_traffic(self) -> bool {
        matches!(
            self,
            Metric::P99Latency | Metric::Throughput | Metric::MissRate
        )
    }

    /// The raw value of this metric in an evaluation.
    ///
    /// # Panics
    /// Panics when a traffic metric is read without a [`TrafficEval`];
    /// the explorer pre-validates (`DseError::TrafficRequired`) so this
    /// cannot fire on the `cimc explore` path.
    #[must_use]
    pub fn value(self, metrics: &JobMetrics, traffic: Option<&TrafficEval>) -> f64 {
        let serving = || {
            traffic.unwrap_or_else(|| {
                panic!(
                    "metric `{}` requires a traffic evaluation, but none was provided",
                    self.name()
                )
            })
        };
        match self {
            Metric::Latency => metrics.latency_cycles,
            Metric::Energy => metrics.energy_total,
            Metric::PeakPower => metrics.peak_power,
            Metric::Utilization => metrics.utilization,
            Metric::P99Latency => serving().p99_latency,
            Metric::Throughput => serving().throughput,
            Metric::MissRate => serving().miss_rate,
        }
    }

    /// The direction-adjusted value: raw for minimized metrics, negated
    /// for maximized ones, so *lower is always better*.
    ///
    /// # Panics
    /// Like [`Metric::value`], panics when a traffic metric is read
    /// without a [`TrafficEval`].
    #[must_use]
    pub fn goal_value(self, metrics: &JobMetrics, traffic: Option<&TrafficEval>) -> f64 {
        let v = self.value(metrics, traffic);
        if self.lower_is_better() {
            v
        } else {
            -v
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an objective expression was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectiveError {
    /// A term names no known metric.
    UnknownMetric(String),
    /// A term's weight is not a positive finite number.
    BadWeight {
        /// The metric the weight was attached to.
        metric: String,
        /// The offending weight text.
        weight: String,
    },
    /// The same metric appears twice.
    DuplicateMetric(String),
    /// The expression has no terms.
    Empty,
}

impl std::fmt::Display for ObjectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectiveError::UnknownMetric(name) => write!(
                f,
                "unknown objective metric `{name}` (known: {})",
                Metric::NAMES.join(", ")
            ),
            ObjectiveError::BadWeight { metric, weight } => write!(
                f,
                "invalid weight `{weight}` for objective metric `{metric}` \
                 (expected a positive number)"
            ),
            ObjectiveError::DuplicateMetric(name) => {
                write!(f, "objective metric `{name}` appears twice")
            }
            ObjectiveError::Empty => write!(f, "objective has no metrics"),
        }
    }
}

impl std::error::Error for ObjectiveError {}

/// A weighted list of metrics to optimize.
///
/// One term makes a scalar objective; several make a multi-objective run
/// whose report carries a Pareto front over the unweighted per-metric
/// values, while the weights still drive the scalar [`Objective::score`]
/// local/evolutionary searches rank by.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    terms: Vec<(Metric, f64)>,
}

impl Objective {
    /// A single-metric objective with weight 1.
    #[must_use]
    pub fn single(metric: Metric) -> Self {
        Objective {
            terms: vec![(metric, 1.0)],
        }
    }

    /// Builds an objective from explicit terms.
    ///
    /// # Errors
    /// Rejects empty term lists, duplicate metrics and non-positive or
    /// non-finite weights.
    pub fn new(terms: Vec<(Metric, f64)>) -> Result<Self, ObjectiveError> {
        if terms.is_empty() {
            return Err(ObjectiveError::Empty);
        }
        for (i, (metric, weight)) in terms.iter().enumerate() {
            if !(weight.is_finite() && *weight > 0.0) {
                return Err(ObjectiveError::BadWeight {
                    metric: metric.name().to_owned(),
                    weight: weight.to_string(),
                });
            }
            if terms[..i].iter().any(|(m, _)| m == metric) {
                return Err(ObjectiveError::DuplicateMetric(metric.name().to_owned()));
            }
        }
        Ok(Objective { terms })
    }

    /// Parses a comma-separated objective expression: each term is
    /// `metric` or `metric:weight` (`latency`, `latency,energy`,
    /// `latency:2,energy`).
    ///
    /// # Errors
    /// Returns an [`ObjectiveError`] naming the offending term.
    pub fn parse(expr: &str) -> Result<Self, ObjectiveError> {
        let mut terms = Vec::new();
        for part in expr.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (name, weight) = match part.split_once(':') {
                Some((name, w)) => {
                    let metric = name.trim();
                    let weight: f64 = w.trim().parse().map_err(|_| ObjectiveError::BadWeight {
                        metric: metric.to_owned(),
                        weight: w.trim().to_owned(),
                    })?;
                    (metric, weight)
                }
                None => (part, 1.0),
            };
            let metric = Metric::parse(name)
                .ok_or_else(|| ObjectiveError::UnknownMetric(name.to_owned()))?;
            terms.push((metric, weight));
        }
        Objective::new(terms)
    }

    /// Canonical rendering ([`Objective::parse`]-able; weights of 1 are
    /// elided).
    #[must_use]
    pub fn canonical(&self) -> String {
        self.terms
            .iter()
            .map(|(m, w)| {
                if *w == 1.0 {
                    m.name().to_owned()
                } else {
                    format!("{}:{}", m.name(), w)
                }
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The metrics of this objective, in term order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        self.terms.iter().map(|(m, _)| *m).collect()
    }

    /// Number of terms; a run is multi-objective when this exceeds 1.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Whether any term reads a [`TrafficEval`] — such objectives can
    /// only be explored with a traffic workload attached.
    #[must_use]
    pub fn needs_traffic(&self) -> bool {
        self.terms.iter().any(|(m, _)| m.needs_traffic())
    }

    /// The first traffic-requiring metric, if any (for error messages).
    #[must_use]
    pub fn first_traffic_metric(&self) -> Option<Metric> {
        self.terms
            .iter()
            .map(|(m, _)| *m)
            .find(|m| m.needs_traffic())
    }

    /// The direction-adjusted, *unweighted* per-metric vector — the
    /// coordinates Pareto dominance is decided on (lower is better in
    /// every coordinate).
    ///
    /// # Panics
    /// Panics when a traffic term is evaluated without a
    /// [`TrafficEval`] (see [`Metric::value`]).
    #[must_use]
    pub fn vector(&self, metrics: &JobMetrics, traffic: Option<&TrafficEval>) -> Vec<f64> {
        self.terms
            .iter()
            .map(|(m, _)| m.goal_value(metrics, traffic))
            .collect()
    }

    /// The weighted scalarization (lower is better): the ranking key of
    /// hill-climbing and evolutionary selection, and the quantity the
    /// convergence trace records.
    ///
    /// # Panics
    /// Panics when a traffic term is evaluated without a
    /// [`TrafficEval`] (see [`Metric::value`]).
    #[must_use]
    pub fn score(&self, metrics: &JobMetrics, traffic: Option<&TrafficEval>) -> f64 {
        self.terms
            .iter()
            .map(|(m, w)| w * m.goal_value(metrics, traffic))
            .sum()
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// Whether objective vector `a` Pareto-dominates `b`: no worse in every
/// coordinate and strictly better in at least one (both vectors are
/// direction-adjusted so lower is better; see [`Objective::vector`]).
///
/// # Panics
/// Panics if the vectors have different lengths.
#[must_use]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must align");
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Exact Pareto front over `vectors`: the ascending indices of every
/// vector no other vector dominates.
///
/// Duplicate vectors are all kept (none dominates its equal), so every
/// candidate tied on all objectives appears on the front. O(n²) pairwise
/// — exact by construction, and comfortably fast at exploration scales
/// (thousands of candidates).
#[must_use]
pub fn pareto_front(vectors: &[Vec<f64>]) -> Vec<usize> {
    (0..vectors.len())
        .filter(|&i| !vectors.iter().any(|other| dominates(other, &vectors[i])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(latency: f64, energy: f64, util: f64) -> JobMetrics {
        JobMetrics {
            latency_cycles: latency,
            energy_total: energy,
            utilization: util,
            ..JobMetrics::default()
        }
    }

    #[test]
    fn parse_round_trips_and_names_offenders() {
        let o = Objective::parse("latency").unwrap();
        assert_eq!(o.arity(), 1);
        assert_eq!(o.canonical(), "latency");

        let o = Objective::parse("latency:2, energy").unwrap();
        assert_eq!(o.arity(), 2);
        assert_eq!(o.canonical(), "latency:2,energy");
        assert_eq!(Objective::parse(&o.canonical()).unwrap(), o);

        let err = Objective::parse("latency,bogus").unwrap_err();
        assert!(err.to_string().contains("`bogus`"), "{err}");
        let err = Objective::parse("latency:-1").unwrap_err();
        assert!(err.to_string().contains("`-1`"), "{err}");
        let err = Objective::parse("latency,latency").unwrap_err();
        assert!(err.to_string().contains("`latency`"), "{err}");
        assert_eq!(Objective::parse(""), Err(ObjectiveError::Empty));
    }

    #[test]
    fn every_metric_name_parses() {
        for name in Metric::NAMES {
            let m = Metric::parse(name).unwrap();
            assert_eq!(m.name(), name);
        }
        assert_eq!(Metric::parse("nope"), None);
    }

    #[test]
    fn utilization_is_maximized() {
        let a = metrics(100.0, 50.0, 0.9);
        let b = metrics(100.0, 50.0, 0.5);
        let o = Objective::single(Metric::Utilization);
        assert!(
            o.score(&a, None) < o.score(&b, None),
            "higher utilization scores better"
        );
        assert_eq!(o.vector(&a, None), vec![-0.9]);
    }

    #[test]
    fn weighted_score_folds_directions() {
        let m = metrics(100.0, 50.0, 0.5);
        let o = Objective::parse("latency:2,energy").unwrap();
        assert_eq!(o.score(&m, None), 2.0 * 100.0 + 50.0);
        assert_eq!(o.vector(&m, None), vec![100.0, 50.0]);
    }

    #[test]
    fn traffic_metrics_read_the_traffic_eval() {
        let m = metrics(100.0, 50.0, 0.5);
        let t = TrafficEval {
            p99_latency: 9_000.0,
            throughput: 12.5,
            miss_rate: 0.25,
        };
        let o = Objective::parse("p99_latency,throughput,miss_rate").unwrap();
        assert!(o.needs_traffic());
        assert_eq!(o.first_traffic_metric(), Some(Metric::P99Latency));
        assert_eq!(o.vector(&m, Some(&t)), vec![9_000.0, -12.5, 0.25]);
        assert!(!Objective::parse("latency,energy").unwrap().needs_traffic());
    }

    #[test]
    #[should_panic(expected = "requires a traffic evaluation")]
    fn traffic_metric_without_eval_panics() {
        let m = metrics(100.0, 50.0, 0.5);
        let _ = Objective::single(Metric::P99Latency).score(&m, None);
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[1.0, 2.0]));
        assert!(
            !dominates(&[1.0, 2.0], &[1.0, 2.0]),
            "equal never dominates"
        );
        assert!(!dominates(&[0.0, 5.0], &[1.0, 2.0]), "trade-off");
    }

    #[test]
    fn pareto_front_is_exact() {
        let vectors = vec![
            vec![1.0, 5.0], // front
            vec![2.0, 4.0], // front
            vec![2.0, 5.0], // dominated by both
            vec![5.0, 1.0], // front
            vec![1.0, 5.0], // duplicate of 0 — kept
        ];
        assert_eq!(pareto_front(&vectors), vec![0, 1, 3, 4]);
        // Single objective: the front is all minima.
        let single = vec![vec![3.0], vec![1.0], vec![1.0], vec![2.0]];
        assert_eq!(pareto_front(&single), vec![1, 2]);
        // Empty in, empty out.
        assert!(pareto_front(&[]).is_empty());
    }
}
