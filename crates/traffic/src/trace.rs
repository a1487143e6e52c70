//! Request traces: seeded generators and the schema-versioned JSON
//! trace file format.
//!
//! A [`TraceSpec`] describes a synthetic workload — which tenants run
//! which zoo models, under which arrival pattern — and
//! [`TraceSpec::generate`] expands it into a concrete [`Trace`]: a flat,
//! time-sorted list of [`TraceEvent`]s with integer-cycle arrival
//! stamps. Generation is a pure function of the spec (the seed is part
//! of the spec), so identical specs yield byte-identical trace files —
//! the property that makes policy comparisons reproducible.
//!
//! Three generator kinds ([`GeneratorKind`]) cover the classic serving
//! shapes:
//!
//! * **poisson** — each tenant is an independent Poisson process
//!   (exponential inter-arrival gaps around `mean_gap`);
//! * **bursty** — each tenant is an on/off source: bursts of
//!   `burst_len` closely-spaced requests separated by exponential idle
//!   periods around `idle_gap`;
//! * **mix** — one shared Poisson stream routed to tenants by their
//!   `weight`s (the weighted multi-model mix of a shared frontend).
//!
//! A [`Trace`] is a [`Document`]: its version window, JSON in/out and
//! validation come from [`cim_obs::doc`].
//!
//! # Version history
//!
//! * **1** — initial layout.

use cim_obs::Document;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Why a trace spec was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// A spec parameter is out of range or inconsistent.
    InvalidSpec(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::InvalidSpec(msg) => write!(f, "invalid trace spec: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The built-in trace generator shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum GeneratorKind {
    /// Independent per-tenant Poisson arrivals.
    Poisson,
    /// Per-tenant on/off bursts: `burst_len` requests at `mean_gap`
    /// spacing, then an exponential idle period around `idle_gap`.
    Bursty,
    /// One shared Poisson stream routed to tenants by weight.
    Mix,
}

impl GeneratorKind {
    /// Every generator kind, in canonical order.
    pub const ALL: [GeneratorKind; 3] = [
        GeneratorKind::Poisson,
        GeneratorKind::Bursty,
        GeneratorKind::Mix,
    ];

    /// Canonical names accepted by [`GeneratorKind::parse`] and the
    /// `cimc trace --kind` flag, in [`GeneratorKind::ALL`] order.
    pub const NAMES: [&'static str; 3] = ["poisson", "bursty", "mix"];

    /// Stable CLI/report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GeneratorKind::Poisson => "poisson",
            GeneratorKind::Bursty => "bursty",
            GeneratorKind::Mix => "mix",
        }
    }

    /// Parses a name produced by [`GeneratorKind::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<GeneratorKind> {
        GeneratorKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for GeneratorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One tenant (traffic class) of a spec: a named request stream bound
/// to a zoo model, with scheduling attributes its requests inherit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant name (unique within the spec).
    pub name: String,
    /// Model the tenant runs (zoo name; resolved by the caller).
    pub model: String,
    /// Relative share of a `mix` stream (ignored by the per-tenant
    /// generators). Must be positive.
    #[serde(default = "default_weight")]
    pub weight: f64,
    /// Scheduling priority (higher is more urgent; the `priority`
    /// policy orders by it).
    #[serde(default)]
    pub priority: u32,
    /// Relative deadline in cycles after arrival (None = no deadline).
    /// The `edf` policy orders by the absolute deadline and drops
    /// requests that have already missed it.
    #[serde(default)]
    pub deadline: Option<u64>,
}

fn default_weight() -> f64 {
    1.0
}

/// A complete, seeded description of a synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Workload name, recorded in the generated trace and reports.
    pub name: String,
    /// Generator shape.
    pub kind: GeneratorKind,
    /// RNG seed — part of the spec so a spec fully determines its
    /// trace.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Arrivals are generated in `0..horizon` cycles.
    pub horizon: u64,
    /// Mean inter-arrival gap in cycles (per tenant for `poisson`;
    /// within a burst for `bursty`; for the shared stream for `mix`).
    pub mean_gap: f64,
    /// Requests per burst (`bursty` only).
    #[serde(default = "default_burst_len")]
    pub burst_len: u32,
    /// Mean idle gap between bursts in cycles (`bursty` only).
    #[serde(default)]
    pub idle_gap: f64,
    /// The tenants sharing the chip.
    pub tenants: Vec<TenantSpec>,
}

fn default_seed() -> u64 {
    42
}

fn default_burst_len() -> u32 {
    8
}

/// One request of a generated trace. Arrival and deadline are absolute
/// cycle stamps; `tenant` indexes [`TraceSpec::tenants`] (via [`Trace::spec`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Stable request id (arrival order across the whole trace).
    pub id: u64,
    /// Index into [`TraceSpec::tenants`] (via [`Trace::spec`]).
    pub tenant: usize,
    /// Absolute arrival cycle.
    pub arrival: u64,
    /// Scheduling priority inherited from the tenant.
    pub priority: u32,
    /// Absolute deadline cycle (None = no deadline).
    pub deadline: Option<u64>,
}

/// A generated (or loaded) request trace: the schema-versioned JSON
/// artifact `cimc trace` writes and `cimc simulate` replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Document layout version ([`Document::VERSION`] when generated).
    pub schema_version: u32,
    /// The spec this trace was generated from (self-describing: a
    /// trace file can be regenerated and audited from itself).
    pub spec: TraceSpec,
    /// Requests sorted by `(arrival, id)`.
    pub requests: Vec<TraceEvent>,
}

impl TraceSpec {
    /// Validates the spec's parameters.
    ///
    /// # Errors
    /// Returns [`TraceError::InvalidSpec`] naming the offending
    /// parameter.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.horizon == 0 {
            return Err(TraceError::InvalidSpec("horizon must be positive".into()));
        }
        if !(self.mean_gap.is_finite() && self.mean_gap >= 1.0) {
            return Err(TraceError::InvalidSpec(format!(
                "mean_gap must be a finite number of cycles >= 1, got {}",
                self.mean_gap
            )));
        }
        if self.tenants.is_empty() {
            return Err(TraceError::InvalidSpec("spec has no tenants".into()));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.name.is_empty() {
                return Err(TraceError::InvalidSpec(format!("tenant {i} has no name")));
            }
            if self.tenants[..i].iter().any(|o| o.name == t.name) {
                return Err(TraceError::InvalidSpec(format!(
                    "duplicate tenant name `{}`",
                    t.name
                )));
            }
            if !(t.weight.is_finite() && t.weight > 0.0) {
                return Err(TraceError::InvalidSpec(format!(
                    "tenant `{}` weight must be positive, got {}",
                    t.name, t.weight
                )));
            }
        }
        if self.kind == GeneratorKind::Bursty {
            if self.burst_len == 0 {
                return Err(TraceError::InvalidSpec(
                    "burst_len must be positive for the bursty generator".into(),
                ));
            }
            if !(self.idle_gap.is_finite() && self.idle_gap >= 1.0) {
                return Err(TraceError::InvalidSpec(format!(
                    "idle_gap must be a finite number of cycles >= 1 for the bursty \
                     generator, got {}",
                    self.idle_gap
                )));
            }
        }
        Ok(())
    }

    /// Expands the spec into a concrete trace — a pure function of the
    /// spec (including its seed), so identical specs serialize to
    /// byte-identical trace files.
    ///
    /// # Errors
    /// Returns [`TraceError::InvalidSpec`] if the spec fails
    /// [`TraceSpec::validate`].
    pub fn generate(&self) -> Result<Trace, TraceError> {
        self.validate()?;
        // One arrival stream per tenant, each in generation (and so
        // arrival) order; merged by (arrival, tenant index) below.
        let mut streams: Vec<Vec<u64>> = vec![Vec::new(); self.tenants.len()];
        match self.kind {
            GeneratorKind::Poisson => {
                for (idx, stream) in streams.iter_mut().enumerate() {
                    let mut rng = SplitMix64::new(self.seed.wrapping_add(idx as u64));
                    let mut t = 0.0f64;
                    loop {
                        t += exp_gap(&mut rng, self.mean_gap);
                        let at = t as u64;
                        if at >= self.horizon {
                            break;
                        }
                        stream.push(at);
                    }
                }
            }
            GeneratorKind::Bursty => {
                for (idx, stream) in streams.iter_mut().enumerate() {
                    let mut rng = SplitMix64::new(self.seed.wrapping_add(idx as u64));
                    let mut t = exp_gap(&mut rng, self.idle_gap);
                    'outer: loop {
                        for _ in 0..self.burst_len {
                            let at = t as u64;
                            if at >= self.horizon {
                                break 'outer;
                            }
                            stream.push(at);
                            t += exp_gap(&mut rng, self.mean_gap);
                        }
                        t += exp_gap(&mut rng, self.idle_gap);
                    }
                }
            }
            GeneratorKind::Mix => {
                let mut rng = SplitMix64::new(self.seed);
                let total: f64 = self.tenants.iter().map(|t| t.weight).sum();
                let mut t = 0.0f64;
                loop {
                    t += exp_gap(&mut rng, self.mean_gap);
                    let at = t as u64;
                    if at >= self.horizon {
                        break;
                    }
                    // Weighted routing: walk the cumulative weights.
                    let draw = rng.unit() * total;
                    let mut acc = 0.0;
                    let mut idx = self.tenants.len() - 1;
                    for (i, tenant) in self.tenants.iter().enumerate() {
                        acc += tenant.weight;
                        if draw < acc {
                            idx = i;
                            break;
                        }
                    }
                    streams[idx].push(at);
                }
            }
        }
        Ok(Trace {
            schema_version: Trace::VERSION,
            spec: self.clone(),
            requests: self.merge(&streams),
        })
    }

    /// Merges per-tenant arrival streams, each in arrival order, into
    /// requests sorted by `(arrival, tenant)`, keeping each stream's
    /// order among its own equal arrivals — the order a stable sort of
    /// the concatenated streams by that pair gives. A heap of stream
    /// heads makes it `O(n log t)` for `t` tenants.
    fn merge(&self, streams: &[Vec<u64>]) -> Vec<TraceEvent> {
        let mut requests = Vec::with_capacity(streams.iter().map(Vec::len).sum());
        let mut cursor = vec![0usize; streams.len()];
        let mut heads: BinaryHeap<Reverse<(u64, usize)>> = streams
            .iter()
            .enumerate()
            .filter_map(|(tenant, stream)| Some(Reverse((*stream.first()?, tenant))))
            .collect();
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((arrival, tenant)) = *head;
            requests.push(TraceEvent {
                id: requests.len() as u64,
                tenant,
                arrival,
                priority: self.tenants[tenant].priority,
                deadline: self.tenants[tenant].deadline.map(|d| arrival + d),
            });
            cursor[tenant] += 1;
            match streams[tenant].get(cursor[tenant]) {
                Some(&next) => head.0 .0 = next,
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        requests
    }
}

impl Document for Trace {
    const KIND: &'static str = "trace";
    const VERSION: u32 = 1;
    const MIN_VERSION: u32 = 1;

    fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// Nothing: a trace is a pure function of its spec.
    fn strip_volatile(&mut self) {}

    /// Spec validity, tenant indices in range, arrivals within the
    /// horizon and sorted by `(arrival, id)`.
    fn check(&self) -> Result<(), String> {
        self.spec.validate().map_err(|e| e.to_string())?;
        let mut prev: Option<(u64, u64)> = None;
        for r in &self.requests {
            if r.tenant >= self.spec.tenants.len() {
                return Err(format!(
                    "request {} references tenant index {} of {} tenant(s)",
                    r.id,
                    r.tenant,
                    self.spec.tenants.len()
                ));
            }
            if r.arrival >= self.spec.horizon {
                return Err(format!(
                    "request {} arrives at cycle {} beyond the horizon {}",
                    r.id, r.arrival, self.spec.horizon
                ));
            }
            if let Some(p) = prev {
                if (r.arrival, r.id) <= p {
                    return Err(format!(
                        "requests are not sorted by (arrival, id) at request {}",
                        r.id
                    ));
                }
            }
            prev = Some((r.arrival, r.id));
        }
        Ok(())
    }
}

impl Trace {
    /// Number of requests belonging to tenant index `tenant`.
    #[must_use]
    pub fn tenant_requests(&self, tenant: usize) -> usize {
        self.requests.iter().filter(|r| r.tenant == tenant).count()
    }

    /// Renders a human-readable description: the spec's headline
    /// parameters plus per-tenant counts and offered load.
    #[must_use]
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace `{}`: {} generator, seed {}, horizon {} cycles, {} request(s)",
            self.spec.name,
            self.spec.kind,
            self.spec.seed,
            self.spec.horizon,
            self.requests.len()
        );
        let _ = writeln!(
            out,
            "{:<16} {:<12} {:>8} {:>12} {:>9} {:>12}",
            "tenant", "model", "requests", "rate(/Mcyc)", "priority", "deadline"
        );
        for (idx, t) in self.spec.tenants.iter().enumerate() {
            let count = self.tenant_requests(idx);
            let rate = count as f64 / (self.spec.horizon as f64 / 1e6);
            let deadline = t.deadline.map_or_else(|| "-".to_owned(), |d| d.to_string());
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>8} {:>12.2} {:>9} {:>12}",
                t.name, t.model, count, rate, t.priority, deadline
            );
        }
        out
    }
}

/// The splitmix64 generator: tiny, seedable, in-tree (no external RNG
/// crates) and stable across platforms. The one copy in the workspace:
/// trace generation draws from it here and the seeded search strategies
/// in `cim-dse` re-export it, so the same seed always yields the same
/// trace and the same exploration.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n = 0` yields 0.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// A uniform draw in `(0, 1]` — never zero, so `ln` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// One exponential inter-arrival gap with the given mean, clamped to at
/// least one cycle so arrival stamps strictly advance on average.
fn exp_gap(rng: &mut SplitMix64, mean: f64) -> f64 {
    (-mean * rng.unit().ln()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
        assert_eq!(SplitMix64::new(1).below(0), 0);
    }

    fn spec(kind: GeneratorKind) -> TraceSpec {
        TraceSpec {
            name: "t".into(),
            kind,
            seed: 7,
            horizon: 100_000,
            mean_gap: 500.0,
            burst_len: 4,
            idle_gap: 5_000.0,
            tenants: vec![
                TenantSpec {
                    name: "a".into(),
                    model: "lenet5".into(),
                    weight: 3.0,
                    priority: 1,
                    deadline: Some(10_000),
                },
                TenantSpec {
                    name: "b".into(),
                    model: "mlp".into(),
                    weight: 1.0,
                    priority: 0,
                    deadline: None,
                },
            ],
        }
    }

    #[test]
    fn every_generator_produces_sorted_in_horizon_requests() {
        for kind in GeneratorKind::ALL {
            let trace = spec(kind).generate().unwrap();
            assert!(!trace.requests.is_empty(), "{kind} generated nothing");
            for w in trace.requests.windows(2) {
                assert!((w[0].arrival, w[0].id) < (w[1].arrival, w[1].id));
            }
            assert!(trace.requests.iter().all(|r| r.arrival < 100_000));
            assert!(trace.requests.iter().all(|r| r.tenant < 2));
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = spec(GeneratorKind::Poisson).generate().unwrap();
        let b = spec(GeneratorKind::Poisson).generate().unwrap();
        assert_eq!(a.to_json(), b.to_json());

        let mut other = spec(GeneratorKind::Poisson);
        other.seed = 8;
        let c = other.generate().unwrap();
        assert_ne!(a.to_json(), c.to_json());
    }

    #[test]
    fn mix_routes_by_weight() {
        let trace = spec(GeneratorKind::Mix).generate().unwrap();
        let a = trace.tenant_requests(0);
        let b = trace.tenant_requests(1);
        // weight 3:1 — tenant a must clearly dominate.
        assert!(a > 2 * b, "expected ~3:1 split, got {a}:{b}");
    }

    #[test]
    fn deadlines_and_priorities_are_stamped_from_the_tenant() {
        let trace = spec(GeneratorKind::Poisson).generate().unwrap();
        for r in &trace.requests {
            if r.tenant == 0 {
                assert_eq!(r.priority, 1);
                assert_eq!(r.deadline, Some(r.arrival + 10_000));
            } else {
                assert_eq!(r.priority, 0);
                assert_eq!(r.deadline, None);
            }
        }
    }

    #[test]
    fn invalid_specs_name_the_offender() {
        let mut s = spec(GeneratorKind::Poisson);
        s.tenants[1].name = "a".into();
        let err = s.generate().unwrap_err();
        assert!(err.to_string().contains("duplicate tenant name `a`"));

        let mut s = spec(GeneratorKind::Bursty);
        s.idle_gap = 0.0;
        assert!(s.generate().unwrap_err().to_string().contains("idle_gap"));

        let mut s = spec(GeneratorKind::Poisson);
        s.mean_gap = f64::NAN;
        assert!(s.generate().unwrap_err().to_string().contains("mean_gap"));
    }

    proptest::proptest! {
        /// The merge is the stable sort of the concatenated streams by
        /// `(arrival, tenant)`, also for a stream with several arrivals on
        /// one cycle, which `generate` never produces (every gap is at
        /// least one cycle).
        #[test]
        fn merge_is_the_stable_sort_of_the_streams(
            mut streams in proptest::collection::vec(proptest::collection::vec(0u64..50, 0..40), 1..6)
        ) {
            for stream in &mut streams {
                stream.sort_unstable();
            }
            let mut spec = spec(GeneratorKind::Poisson);
            spec.tenants = (0..streams.len())
                .map(|i| TenantSpec { name: format!("t{i}"), ..spec.tenants[0].clone() })
                .collect();
            let mut want: Vec<(u64, usize)> = streams
                .iter()
                .enumerate()
                .flat_map(|(tenant, stream)| stream.iter().map(move |&at| (at, tenant)))
                .collect();
            want.sort_by_key(|&pair| pair);
            let merged = spec.merge(&streams);
            let got: Vec<(u64, usize)> = merged.iter().map(|r| (r.arrival, r.tenant)).collect();
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert!(merged.iter().enumerate().all(|(i, r)| r.id == i as u64));
        }
    }

    #[test]
    fn unsorted_documents_are_rejected() {
        let mut trace = spec(GeneratorKind::Poisson).generate().unwrap();
        trace.requests.swap(0, 1);
        let err = Trace::from_json(&trace.to_json()).unwrap_err();
        assert!(err.to_string().contains("not sorted"), "{err}");
    }
}
