//! `traffic-sim`: per round, for a `steady` and an `overload` trace of ~40 k
//! requests over four tenants on `isaac`: generate the trace, carve a balanced
//! placement, price it through a shared warm cache, then replay it under
//! `fifo`, `priority` and `edf`.
//!
//! The engine's queue handling does the work; pricing is warm. Host time is
//! what the end-to-end timings measure; the simulated p99 of every replay
//! goes into `model_mcycles`. Trace JSON never enters a timed path.

use std::sync::Arc;
use std::time::Instant;

use cim_mlc::arch::presets;
use cim_mlc::graph::zoo;
use cim_mlc::prelude::*;
use cim_mlc::traffic::{price_placement, simulate_priced};

use crate::harness::{warm_up, Case, Checks, Metrics, RoundOut, Workload};
use crate::spans::Recorder;
use crate::stats::{lower_quartile, shuffle, SplitMix64};

/// The overload trace stays at or under this many requests: `fifo` and
/// `priority` replay is quadratic in queue depth, and a 400 k-request
/// overloaded trace takes 62 s under `fifo` where 40 k takes 0.1 s. A larger
/// trace fails the run instead of hanging it.
pub const MAX_OVERLOAD_REQUESTS: usize = 40_000;

/// The overload trace must queue at least this deep somewhere, or the run is
/// not exercising the quadratic path it exists for.
const MIN_OVERLOAD_QUEUE_DEPTH: usize = 5_000;

const POLICIES: [PolicyKind; 3] = [PolicyKind::Fifo, PolicyKind::Priority, PolicyKind::Edf];

/// Steps of one trace's part of the script, in dependency order. Carving the
/// placement takes microseconds and has no use without pricing it, so the two
/// are one operation.
const STEPS: [&str; 5] = ["generate", "place+price", "fifo", "priority", "edf"];
const FIRST_REPLAY: usize = 2;

/// Two tenants per model, so that tenants of different priority and deadline
/// share a partition queue and the three policies really order differently.
fn tenants(deadlines: [Option<u64>; 4]) -> Vec<TenantSpec> {
    [
        ("interactive", "lenet5", 3),
        ("batch", "lenet5", 0),
        ("online", "mlp", 2),
        ("offline", "mlp", 1),
    ]
    .into_iter()
    .zip(deadlines)
    .map(|((name, model, priority), deadline)| TenantSpec {
        name: name.to_owned(),
        model: model.to_owned(),
        weight: 1.0,
        priority,
        deadline,
    })
    .collect()
}

/// The two traces. Their generator seeds are constants, not derived from
/// `--seed`: the replayed p99 is part of `model_mcycles`, which must read the
/// same for every seed, and a seed-dependent trace could also stray outside
/// the utilisation window each trace exists to sit in. (`--seed` orders the
/// traces and the policies.)
fn specs() -> [TraceSpec; 2] {
    [
        // Poisson arrivals that keep the busier partition ~85 % utilised: no
        // drops, queues of ~10.
        TraceSpec {
            name: "steady".to_owned(),
            kind: GeneratorKind::Poisson,
            seed: 7,
            horizon: 5_000_000,
            mean_gap: 500.0,
            burst_len: 8,
            idle_gap: 0.0,
            tenants: tenants([None, Some(20_000), None, Some(20_000)]),
        },
        // Bursts arriving ~1.4x faster than the partitions serve: both sit at
        // 1.00 utilisation and queue ~6 000 deep; edf sheds late requests.
        TraceSpec {
            name: "overload".to_owned(),
            kind: GeneratorKind::Bursty,
            seed: 7,
            horizon: 2_000_000,
            mean_gap: 190.0,
            burst_len: 500,
            idle_gap: 5_000.0,
            tenants: tenants([Some(600_000), Some(150_000), Some(600_000), Some(150_000)]),
        },
    ]
}

struct State {
    arch: CimArchitecture,
    models: Vec<(String, Graph)>,
    cache: Arc<dyn CompileCache>,
    specs: [TraceSpec; 2],
    labels: Vec<u32>,
    /// The latest round's reports, `[trace][policy]`, kept for verification.
    reports: Vec<Option<TrafficReport>>,
    traces: [Option<Trace>; 2],
}

pub struct TrafficSim {
    cases: Vec<Case>,
    trace_order: [usize; 2],
    policy_order: [usize; 3],
    /// Simulated requests per round, known after the first round.
    work_units: u64,
    state: Option<State>,
}

impl TrafficSim {
    pub fn new(seed: u64) -> Self {
        let cases = specs()
            .iter()
            .flat_map(|s| {
                STEPS
                    .iter()
                    .map(move |step| Case::once(format!("{}:{step}", s.name)))
            })
            .collect();
        let mut rng = SplitMix64::new(seed);
        let mut trace_order = [0, 1];
        shuffle(&mut rng, &mut trace_order);
        let mut policy_order = [0, 1, 2];
        shuffle(&mut rng, &mut policy_order);
        TrafficSim {
            cases,
            trace_order,
            policy_order,
            work_units: 0,
            state: None,
        }
    }
}

fn busiest(report: &TrafficReport) -> f64 {
    report
        .partitions
        .iter()
        .map(|p| p.utilization)
        .fold(0.0, f64::max)
}

fn deepest(report: &TrafficReport) -> usize {
    report
        .partitions
        .iter()
        .map(|p| p.max_queue_depth)
        .max()
        .unwrap_or(0)
}

impl Workload for TrafficSim {
    fn name(&self) -> &'static str {
        "traffic-sim"
    }

    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn work_units(&self) -> u64 {
        self.work_units
    }

    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let arch = presets::by_name("isaac").ok_or("no preset `isaac`")?;
        let mut models = Vec::new();
        for name in ["lenet5", "mlp"] {
            let graph = zoo::by_name(name).ok_or_else(|| format!("no zoo model `{name}`"))?;
            models.push((name.to_owned(), graph));
        }
        let labels = self
            .cases
            .iter()
            .map(|c| rec.label(c.name.as_str()))
            .collect();
        self.state = Some(State {
            arch,
            models,
            cache: Arc::new(MemoryCache::new()),
            specs: specs(),
            labels,
            reports: vec![None; 2 * POLICIES.len()],
            traces: [None, None],
        });
        // The warm-up round prices the placements cold and fills the cache.
        warm_up(self, rec)
    }

    fn teardown(&mut self) {
        self.state = None;
    }

    fn round(&mut self, rec: &mut Recorder, out: &mut RoundOut) {
        let st = self.state.as_mut().expect("set up");
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        let (mut requests, mut dropped, mut max_depth, mut simulated) = (0u64, 0u64, 0usize, 0u64);
        for &t in &self.trace_order {
            let spec = &st.specs[t];
            let base = t * STEPS.len();
            let overload = spec.name == "overload";

            let started = Instant::now();
            let trace = rec.time("traffic.gen", st.labels[base], || spec.generate());
            out.sample(base, ms(started));
            let Some(trace) = out
                .checks
                .result(trace.map_err(|e| format!("{}: {e}", spec.name)))
            else {
                continue;
            };
            if overload && trace.requests.len() > MAX_OVERLOAD_REQUESTS {
                out.checks.fail(format!(
                    "overload trace holds {} requests, above MAX_OVERLOAD_REQUESTS = {MAX_OVERLOAD_REQUESTS}",
                    trace.requests.len()
                ));
                continue;
            }
            requests += trace.requests.len() as u64;

            let started = Instant::now();
            let placement = rec.time("traffic.place", st.labels[base + 1], || {
                Placement::balanced(&st.arch, spec)
            });
            let priced = placement
                .map_err(|e| format!("{}: {e}", spec.name))
                .and_then(|placement| {
                    rec.time("traffic.price", st.labels[base + 1], || {
                        price_placement(&st.arch, &placement, &st.models, Some(&st.cache), 1)
                    })
                    .map(|services| (placement, services))
                    .map_err(|e| format!("{}: {e}", spec.name))
                });
            out.sample(base + 1, ms(started));
            let Some((placement, services)) = out.checks.result(priced) else {
                continue;
            };

            for &p in &self.policy_order {
                let case = base + FIRST_REPLAY + p;
                let config = SimConfig {
                    policy: POLICIES[p],
                    batching: Batching::default(),
                };
                let started = Instant::now();
                let replay = rec.time("traffic.sim", st.labels[case], || {
                    simulate_priced(&trace, &st.arch, &placement, &services, &config, 1)
                });
                out.sample(case, ms(started));
                let name = &self.cases[case].name;
                let Some((report, _log)) = out
                    .checks
                    .result(replay.map_err(|e| format!("{name}: {e}")))
                else {
                    continue;
                };
                let flow = &report.aggregate;
                out.checks
                    .check(flow.served + flow.dropped == flow.requests, || {
                        format!(
                            "{name}: served {} + dropped {} != requests {}",
                            flow.served, flow.dropped, flow.requests
                        )
                    });
                if overload {
                    out.checks.check(
                        busiest(&report) >= 0.995
                            && (POLICIES[p] != PolicyKind::Fifo || deepest(&report) > MIN_OVERLOAD_QUEUE_DEPTH),
                        || {
                            format!(
                                "{name}: busiest partition {:.3} utilised, deepest queue {}: not overloaded",
                                busiest(&report),
                                deepest(&report)
                            )
                        },
                    );
                } else {
                    out.checks.check(
                        (0.5..=0.9).contains(&busiest(&report)) && flow.dropped == 0,
                        || {
                            format!(
                                "{name}: busiest partition {:.3} utilised, {} dropped: not steady",
                                busiest(&report),
                                flow.dropped
                            )
                        },
                    );
                }
                out.result_cycles(flow.latency.p99);
                simulated += flow.requests;
                dropped += flow.dropped;
                max_depth = max_depth.max(deepest(&report));
                st.reports[t * POLICIES.len() + p] = Some(report);
            }
            st.traces[t] = Some(trace);
        }
        self.work_units = simulated;
        rec.note("traffic.requests", requests as f64);
        rec.note("traffic.dropped", dropped as f64);
        rec.note("traffic.max_queue_depth", max_depth as f64);
    }

    fn verify(&mut self, _rec: &mut Recorder, checks: &mut Checks) {
        let st = self.state.as_ref().expect("set up");
        // A second replay of every case must give a byte-identical
        // comparable() report.
        for (t, spec) in st.specs.iter().enumerate() {
            let Some(trace) = &st.traces[t] else {
                checks.fail(format!("{}: no trace survived the rounds", spec.name));
                continue;
            };
            let again = Placement::balanced(&st.arch, spec)
                .map_err(|e| e.to_string())
                .and_then(|placement| {
                    let services =
                        price_placement(&st.arch, &placement, &st.models, Some(&st.cache), 1)
                            .map_err(|e| e.to_string())?;
                    Ok((placement, services))
                });
            let Some((placement, services)) = checks.result(again) else {
                continue;
            };
            for (p, policy) in POLICIES.iter().enumerate() {
                let name = format!("{}:{}", spec.name, policy.name());
                let config = SimConfig {
                    policy: *policy,
                    batching: Batching::default(),
                };
                let replay = simulate_priced(trace, &st.arch, &placement, &services, &config, 1);
                let Some((report, _)) = checks.result(replay.map_err(|e| format!("{name}: {e}")))
                else {
                    continue;
                };
                let first = st.reports[t * POLICIES.len() + p]
                    .as_ref()
                    .map(|r| r.comparable().to_json());
                checks.check(first == Some(report.comparable().to_json()), || {
                    format!("{name}: a second replay gave a different comparable() report")
                });
            }
        }
    }

    fn layer_metrics(&self, rec: &Recorder, into: &mut Metrics) {
        let per_round = |name: &str| lower_quartile(&rec.round_sums_ms(name));
        let last = |name: &str| rec.note_values(name).last().copied().unwrap_or(0.0);
        into.insert(
            "traffic.gen_req_per_s",
            last("traffic.requests") / (per_round("traffic.gen") / 1e3),
        );
        into.insert("traffic.price_ms", per_round("traffic.price"));
        let by_case = rec.by_case_ms("traffic.sim");
        let names = [
            ("steady:fifo", "traffic.steady.fifo_ms"),
            ("steady:priority", "traffic.steady.priority_ms"),
            ("steady:edf", "traffic.steady.edf_ms"),
            ("overload:fifo", "traffic.overload.fifo_ms"),
            ("overload:priority", "traffic.overload.priority_ms"),
            ("overload:edf", "traffic.overload.edf_ms"),
        ];
        for (case, metric) in names {
            let ms = rec
                .case_labels
                .iter()
                .position(|l| l == case)
                .and_then(|i| by_case.get(&(i as u32)))
                .map_or(0.0, |ms| lower_quartile(ms));
            into.insert(metric, ms);
        }
        into.insert("traffic.requests", last("traffic.requests"));
        into.insert("traffic.dropped", last("traffic.dropped"));
        into.insert("traffic.max_queue_depth", last("traffic.max_queue_depth"));
    }
}
