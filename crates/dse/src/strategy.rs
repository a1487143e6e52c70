//! Pluggable search strategies and the evaluation history they read.
//!
//! A [`SearchStrategy`] proposes batches of [`DesignPoint`]s; the
//! [`Explorer`](crate::Explorer) evaluates each batch on the worker pool
//! and records the outcomes in a [`History`] the strategy consults on
//! its next call. Batches keep strategies parallel-friendly (a
//! neighborhood or a generation evaluates concurrently) while the
//! batch *order* keeps runs deterministic: nothing a strategy sees
//! depends on worker count.
//!
//! Budget accounting is proposal-based: every proposed point charges the
//! budget, including revisits of already-evaluated points (served from
//! the explorer's memo without recompiling). That keeps local searches
//! honest — circling a local optimum spends budget — and guarantees
//! termination.
//!
//! Four built-ins ([`StrategyKind`]):
//!
//! * [`Exhaustive`] — lexicographic grid enumeration;
//! * [`Random`] — uniform i.i.d. sampling, seeded;
//! * [`HillClimb`] — steepest-ascent neighborhood search with seeded
//!   random restarts;
//! * [`Evolutionary`] — elitist generational GA: tournament selection,
//!   uniform crossover, ±1-step mutation, deterministic from its seed.

use crate::report::{DseCandidate, DseFailure};
use crate::space::{DesignPoint, DesignSpace, NUM_AXES};
use std::collections::HashMap;

/// The workspace's one seeded generator (it lives in `cim-traffic`, which
/// this crate already depends on), re-exported so `cim_dse::SplitMix64`
/// keeps resolving.
pub use cim_traffic::SplitMix64;

/// Everything evaluated so far, in first-evaluation order — the
/// read-only view strategies make decisions on.
#[derive(Debug, Default)]
pub struct History {
    candidates: Vec<DseCandidate>,
    failures: Vec<DseFailure>,
    scores: HashMap<String, Option<f64>>,
}

impl History {
    pub(crate) fn new() -> Self {
        History::default()
    }

    pub(crate) fn record_success(&mut self, candidate: DseCandidate) {
        self.scores
            .insert(candidate.point.key(), Some(candidate.score));
        self.candidates.push(candidate);
    }

    pub(crate) fn record_failure(&mut self, failure: DseFailure) {
        self.scores.insert(failure.point.key(), None);
        self.failures.push(failure);
    }

    pub(crate) fn into_parts(self) -> (Vec<DseCandidate>, Vec<DseFailure>) {
        (self.candidates, self.failures)
    }

    /// Successfully evaluated candidates, in first-evaluation order.
    #[must_use]
    pub fn candidates(&self) -> &[DseCandidate] {
        &self.candidates
    }

    /// Failed points, in first-evaluation order.
    #[must_use]
    pub fn failures(&self) -> &[DseFailure] {
        &self.failures
    }

    /// Whether `point` has been evaluated (successfully or not).
    #[must_use]
    pub fn contains(&self, point: &DesignPoint) -> bool {
        self.scores.contains_key(&point.key())
    }

    /// `point`'s scalar score: `None` when never evaluated *or* when it
    /// failed to compile (failed points never rank).
    #[must_use]
    pub fn score_of(&self, point: &DesignPoint) -> Option<f64> {
        self.scores.get(&point.key()).copied().flatten()
    }

    /// The best candidate by scalar score (ties to the earliest
    /// evaluated), if any compiled.
    #[must_use]
    pub fn best(&self) -> Option<&DseCandidate> {
        self.candidates
            .iter()
            .reduce(|best, c| if c.score < best.score { c } else { best })
    }
}

/// A design-space search: proposes candidate batches, reads outcomes
/// from the [`History`] on its next call.
///
/// Implementations must be deterministic functions of their constructor
/// arguments (seed) and the history — never of wall-clock time, thread
/// interleaving or ambient randomness — so explorations are reproducible
/// across machines and `--jobs` settings.
pub trait SearchStrategy {
    /// Strategy name as reported and accepted by the CLI.
    fn name(&self) -> &'static str;

    /// Proposes the next batch of candidates, at most `remaining`
    /// (larger batches are truncated by the explorer). An empty batch
    /// ends the exploration early (e.g. a grid fully enumerated).
    fn next_batch(
        &mut self,
        space: &DesignSpace,
        history: &History,
        remaining: usize,
    ) -> Vec<DesignPoint>;
}

/// Chunk size exhaustive/random enumeration proposes per batch: large
/// enough to saturate the worker pool, small enough for a meaningful
/// convergence trace. Fixed (never derived from thread count) so batch
/// boundaries — and therefore traces — are `--jobs`-invariant.
const ENUM_BATCH: usize = 32;

fn random_coords(space: &DesignSpace, rng: &mut SplitMix64) -> [usize; NUM_AXES] {
    let mut coords = [0usize; NUM_AXES];
    for (axis, c) in coords.iter_mut().enumerate() {
        *c = usize::try_from(rng.below(space.cardinality(axis) as u64))
            .expect("cardinality fits usize");
    }
    coords
}

/// Lexicographic grid enumeration ([`DesignSpace::coords_at`] order).
/// Ignores its budget's randomness entirely; ends early when the grid is
/// exhausted.
#[derive(Debug, Default)]
pub struct Exhaustive {
    cursor: u64,
}

impl Exhaustive {
    /// A fresh enumeration from the first grid point.
    #[must_use]
    pub fn new() -> Self {
        Exhaustive::default()
    }
}

impl SearchStrategy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn next_batch(
        &mut self,
        space: &DesignSpace,
        _history: &History,
        remaining: usize,
    ) -> Vec<DesignPoint> {
        let size = space.size();
        let take = remaining.min(ENUM_BATCH) as u64;
        let end = self.cursor.saturating_add(take).min(size);
        let batch = (self.cursor..end)
            .map(|i| space.point(&space.coords_at(i)))
            .collect();
        self.cursor = end;
        batch
    }
}

/// Uniform i.i.d. sampling of the space, deterministic from its seed.
/// May revisit points (charged against the budget, served from the
/// memo).
#[derive(Debug)]
pub struct Random {
    rng: SplitMix64,
}

impl Random {
    /// A sampler seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Random {
            rng: SplitMix64::new(seed),
        }
    }
}

impl SearchStrategy for Random {
    fn name(&self) -> &'static str {
        "random"
    }

    fn next_batch(
        &mut self,
        space: &DesignSpace,
        _history: &History,
        remaining: usize,
    ) -> Vec<DesignPoint> {
        (0..remaining.min(ENUM_BATCH))
            .map(|_| space.point(&random_coords(space, &mut self.rng)))
            .collect()
    }
}

#[derive(Debug)]
enum ClimbState {
    /// Nothing proposed yet: start from [`DesignSpace::start_coords`].
    Start,
    /// A single point (start or restart) is out for evaluation.
    AwaitPoint([usize; NUM_AXES]),
    /// The neighborhood of `current` is out for evaluation.
    AwaitNeighborhood {
        current: [usize; NUM_AXES],
        proposed: Vec<[usize; NUM_AXES]>,
    },
}

/// Steepest-ascent hill climbing over the axis grid.
///
/// Starts at the point closest to the base preset, evaluates the full
/// ±1-step neighborhood (every axis, both directions — a parallel
/// batch), moves to the best strictly-improving neighbor, and on a local
/// optimum restarts from a seeded random point. Mutation happens in
/// coordinate space; the realized architectures come from
/// [`DesignPoint::realize`]'s builder mutations.
#[derive(Debug)]
pub struct HillClimb {
    rng: SplitMix64,
    state: ClimbState,
}

impl HillClimb {
    /// A climber seeded with `seed` (drives restarts only; the first
    /// start point is deterministic from the space).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        HillClimb {
            rng: SplitMix64::new(seed),
            state: ClimbState::Start,
        }
    }

    /// All in-range coordinates one step away from `coords` on exactly
    /// one axis, minus-step first, in axis order.
    fn neighbors(space: &DesignSpace, coords: &[usize; NUM_AXES]) -> Vec<[usize; NUM_AXES]> {
        let mut out = Vec::with_capacity(2 * NUM_AXES);
        for axis in 0..NUM_AXES {
            if coords[axis] > 0 {
                let mut n = *coords;
                n[axis] -= 1;
                out.push(n);
            }
            if coords[axis] + 1 < space.cardinality(axis) {
                let mut n = *coords;
                n[axis] += 1;
                out.push(n);
            }
        }
        out
    }
}

impl SearchStrategy for HillClimb {
    fn name(&self) -> &'static str {
        "hill-climb"
    }

    fn next_batch(
        &mut self,
        space: &DesignSpace,
        history: &History,
        _remaining: usize,
    ) -> Vec<DesignPoint> {
        loop {
            match std::mem::replace(&mut self.state, ClimbState::Start) {
                ClimbState::Start => {
                    let start = space.start_coords();
                    self.state = ClimbState::AwaitPoint(start);
                    return vec![space.point(&start)];
                }
                ClimbState::AwaitPoint(coords) => {
                    if history.score_of(&space.point(&coords)).is_some() {
                        // The point compiled: climb from it.
                        let neighborhood = Self::neighbors(space, &coords);
                        if neighborhood.is_empty() {
                            // Degenerate single-point space: done.
                            return Vec::new();
                        }
                        let batch = neighborhood.iter().map(|c| space.point(c)).collect();
                        self.state = ClimbState::AwaitNeighborhood {
                            current: coords,
                            proposed: neighborhood,
                        };
                        return batch;
                    }
                    // The point failed to compile: restart elsewhere.
                    let restart = random_coords(space, &mut self.rng);
                    self.state = ClimbState::AwaitPoint(restart);
                    return vec![space.point(&restart)];
                }
                ClimbState::AwaitNeighborhood { current, proposed } => {
                    let current_score = history
                        .score_of(&space.point(&current))
                        .unwrap_or(f64::INFINITY);
                    // Best evaluated neighbor; ties broken by point key
                    // so the walk is order-deterministic.
                    let best = proposed
                        .iter()
                        .filter_map(|c| {
                            let p = space.point(c);
                            history.score_of(&p).map(|s| (s, p.key(), *c))
                        })
                        .min_by(|(sa, ka, _), (sb, kb, _)| {
                            sa.total_cmp(sb).then_with(|| ka.cmp(kb))
                        });
                    match best {
                        Some((score, _, coords)) if score < current_score => {
                            // Strict improvement: move and climb again
                            // (the moved-to point is already evaluated,
                            // so loop to propose its neighborhood).
                            self.state = ClimbState::AwaitPoint(coords);
                        }
                        _ => {
                            // Local optimum (or all neighbors failed):
                            // seeded random restart.
                            let restart = random_coords(space, &mut self.rng);
                            self.state = ClimbState::AwaitPoint(restart);
                            return vec![space.point(&restart)];
                        }
                    }
                }
            }
        }
    }
}

/// Population size of [`Evolutionary`] generations.
const POPULATION: usize = 16;
/// Members carried over unchanged each generation.
const ELITES: usize = 2;
/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;

/// Elitist generational genetic search: seeded random initial
/// population, tournament parent selection, per-axis uniform crossover,
/// ±1-step mutation with probability `1/NUM_AXES` per axis. Entirely
/// deterministic from its seed.
#[derive(Debug)]
pub struct Evolutionary {
    rng: SplitMix64,
    population: Vec<[usize; NUM_AXES]>,
}

impl Evolutionary {
    /// A GA seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Evolutionary {
            rng: SplitMix64::new(seed),
            population: Vec::new(),
        }
    }

    /// Ranks population indices best-first by (score, key); unevaluated
    /// or failed members sink to the end.
    fn ranked(&self, space: &DesignSpace, history: &History) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.population.len()).collect();
        let fitness: Vec<(f64, String)> = self
            .population
            .iter()
            .map(|c| {
                let p = space.point(c);
                (history.score_of(&p).unwrap_or(f64::INFINITY), p.key())
            })
            .collect();
        order.sort_by(|&a, &b| {
            fitness[a]
                .0
                .total_cmp(&fitness[b].0)
                .then_with(|| fitness[a].1.cmp(&fitness[b].1))
        });
        order
    }

    /// Tournament-selects one parent from the ranked population.
    fn select(&mut self, ranked: &[usize]) -> usize {
        // Rank-based tournament: the lowest drawn rank wins, so the
        // selection pressure is independent of score magnitudes.
        (0..TOURNAMENT)
            .map(|_| usize::try_from(self.rng.below(ranked.len() as u64)).expect("rank fits usize"))
            .min()
            .map(|rank| ranked[rank])
            .expect("tournament size is non-zero")
    }
}

impl SearchStrategy for Evolutionary {
    fn name(&self) -> &'static str {
        "evolutionary"
    }

    fn next_batch(
        &mut self,
        space: &DesignSpace,
        history: &History,
        remaining: usize,
    ) -> Vec<DesignPoint> {
        if self.population.is_empty() {
            // Generation 0: seeded random population.
            self.population = (0..POPULATION)
                .map(|_| random_coords(space, &mut self.rng))
                .collect();
        } else {
            let ranked = self.ranked(space, history);
            let mut next: Vec<[usize; NUM_AXES]> = ranked
                .iter()
                .take(ELITES)
                .map(|&i| self.population[i])
                .collect();
            while next.len() < POPULATION {
                let pa = self.select(&ranked);
                let pb = self.select(&ranked);
                let (a, b) = (self.population[pa], self.population[pb]);
                let mut child = [0usize; NUM_AXES];
                for axis in 0..NUM_AXES {
                    // Uniform crossover…
                    child[axis] = if self.rng.below(2) == 0 {
                        a[axis]
                    } else {
                        b[axis]
                    };
                    // …then ±1-step mutation at rate 1/NUM_AXES.
                    if self.rng.below(NUM_AXES as u64) == 0 {
                        let card = space.cardinality(axis);
                        child[axis] = if self.rng.below(2) == 0 {
                            child[axis].saturating_sub(1)
                        } else {
                            (child[axis] + 1).min(card - 1)
                        };
                    }
                }
                next.push(child);
            }
            self.population = next;
        }
        self.population
            .iter()
            .take(remaining)
            .map(|c| space.point(c))
            .collect()
    }
}

/// The built-in strategies, for CLI parsing and discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// [`Exhaustive`].
    Exhaustive,
    /// [`Random`].
    Random,
    /// [`HillClimb`].
    HillClimb,
    /// [`Evolutionary`].
    Evolutionary,
}

impl StrategyKind {
    /// Every built-in, in canonical order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Exhaustive,
        StrategyKind::Random,
        StrategyKind::HillClimb,
        StrategyKind::Evolutionary,
    ];

    /// Canonical names, in [`StrategyKind::ALL`] order — the vocabulary
    /// `cimc explore --strategy` validates against.
    pub const NAMES: [&'static str; 4] = ["exhaustive", "random", "hill-climb", "evolutionary"];

    /// Stable CLI/report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Exhaustive => "exhaustive",
            StrategyKind::Random => "random",
            StrategyKind::HillClimb => "hill-climb",
            StrategyKind::Evolutionary => "evolutionary",
        }
    }

    /// Parses a name produced by [`StrategyKind::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<StrategyKind> {
        StrategyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Constructs the strategy, seeded where the strategy is stochastic
    /// (`exhaustive` ignores the seed).
    #[must_use]
    pub fn build(self, seed: u64) -> Box<dyn SearchStrategy> {
        match self {
            StrategyKind::Exhaustive => Box::new(Exhaustive::new()),
            StrategyKind::Random => Box::new(Random::new(seed)),
            StrategyKind::HillClimb => Box::new(HillClimb::new(seed)),
            StrategyKind::Evolutionary => Box::new(Evolutionary::new(seed)),
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_compiler::JobMetrics;

    fn test_metrics(latency: f64) -> JobMetrics {
        JobMetrics {
            level: "cg".to_owned(),
            latency_cycles: latency,
            ..JobMetrics::default()
        }
    }

    #[test]
    fn strategy_kind_names_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build(0).name(), kind.name());
        }
        assert_eq!(StrategyKind::parse("bogus"), None);
    }

    #[test]
    fn exhaustive_enumerates_in_lexicographic_order_without_repeats() {
        let space = DesignSpace::default_space();
        let mut strategy = Exhaustive::new();
        let history = History::new();
        let first = strategy.next_batch(&space, &history, 1000);
        assert_eq!(first.len(), ENUM_BATCH);
        assert_eq!(first[0], space.point(&space.coords_at(0)));
        assert_eq!(first[1], space.point(&space.coords_at(1)));
        let second = strategy.next_batch(&space, &history, 1000);
        assert_eq!(second[0], space.point(&space.coords_at(ENUM_BATCH as u64)));
        // Exhausts exactly at the space size.
        let mut tiny = DesignSpace::default_space();
        tiny.xb_rows = vec![64];
        tiny.xb_cols = vec![64];
        tiny.xb_per_core = vec![4];
        tiny.cores = vec![192];
        tiny.cell_bits = vec![2];
        tiny.adc_bits = vec![6, 8];
        tiny.modes = vec![cim_compiler::OptLevel::Auto];
        let mut strategy = Exhaustive::new();
        let batch = strategy.next_batch(&tiny, &history, 1000);
        assert_eq!(batch.len(), 2);
        assert!(strategy.next_batch(&tiny, &history, 1000).is_empty());
    }

    #[test]
    fn random_respects_remaining_and_seed() {
        let space = DesignSpace::default_space();
        let history = History::new();
        let batch_a = Random::new(9).next_batch(&space, &history, 5);
        let batch_b = Random::new(9).next_batch(&space, &history, 5);
        assert_eq!(batch_a.len(), 5);
        assert_eq!(batch_a, batch_b, "same seed, same proposals");
        let other = Random::new(10).next_batch(&space, &history, 5);
        assert_ne!(batch_a, other, "different seed, different proposals");
    }

    #[test]
    fn hill_climb_starts_at_the_base_and_proposes_neighbors() {
        let space = DesignSpace::default_space();
        let mut strategy = HillClimb::new(0);
        let mut history = History::new();
        let first = strategy.next_batch(&space, &history, 1000);
        assert_eq!(first, vec![space.point(&space.start_coords())]);
        // Pretend the start evaluated: the next batch is its
        // neighborhood, one ±1 step per axis.
        history.record_success(DseCandidate {
            point: first[0].clone(),
            metrics: test_metrics(1000.0),
            traffic: None,
            objectives: vec![1000.0],
            score: 1000.0,
            eval_ms: 0.0,
        });
        let neighborhood = strategy.next_batch(&space, &history, 1000);
        assert!(!neighborhood.is_empty());
        for p in &neighborhood {
            assert_ne!(*p, first[0]);
            // Exactly one axis differs from the start.
            let s = &first[0];
            let diffs = [
                p.xb_rows != s.xb_rows,
                p.xb_cols != s.xb_cols,
                p.xb_per_core != s.xb_per_core,
                p.cores != s.cores,
                p.cell_bits != s.cell_bits,
                p.adc_bits != s.adc_bits,
                p.mode != s.mode,
            ];
            assert_eq!(diffs.iter().filter(|d| **d).count(), 1, "{}", p.key());
        }
    }

    #[test]
    fn evolutionary_generations_have_fixed_size_and_seeded_determinism() {
        let space = DesignSpace::default_space();
        let history = History::new();
        let gen_a = Evolutionary::new(3).next_batch(&space, &history, 1000);
        let gen_b = Evolutionary::new(3).next_batch(&space, &history, 1000);
        assert_eq!(gen_a.len(), POPULATION);
        assert_eq!(gen_a, gen_b);
        // A next generation still has POPULATION members and carries the
        // elites (here: everything scores INFINITY, so the elites are
        // the two key-smallest members).
        let mut strategy = Evolutionary::new(3);
        let g0 = strategy.next_batch(&space, &history, 1000);
        let g1 = strategy.next_batch(&space, &history, 1000);
        assert_eq!(g1.len(), POPULATION);
        let mut keys: Vec<String> = g0.iter().map(DesignPoint::key).collect();
        keys.sort();
        assert!(g1.iter().any(|p| p.key() == keys[0]), "elite carried");
    }
}
