//! The discrete-event serving loop.
//!
//! Partitions are spatially isolated — a request only ever competes
//! with requests of its own partition — so the simulation decomposes
//! into one deterministic event loop per partition, fanned out on the
//! shared worker pool and merged back in placement order. Every
//! quantity is integer-cycle arithmetic on the trace and the priced
//! [`ServiceModel`]s, so a `(trace, placement, policy, batching)` tuple
//! produces the same [`Document::comparable`] bytes at any thread
//! count.
//!
//! Per partition, the loop alternates admission and dispatch: when the
//! partition frees up, the policy orders the queue
//! ([`SchedPolicy::compare`], stable sort), drop-on-miss policies shed
//! requests whose deadline already passed, and the front of the queue
//! boards a batch bounded by [`Batching::max_batch`]; a partial batch
//! waits for more arrivals at most [`Batching::max_wait`] cycles past
//! the oldest queued request's arrival. One batch of `b` requests
//! occupies the partition for [`ServiceModel::batch_cycles`]`(b)`.

use crate::placement::{price_partition, Placement};
use crate::policy::{Batching, PolicyKind, Queued, SchedPolicy};
use crate::report::{FlowStats, PartitionStats, TenantStats, TrafficReport};
use crate::trace::{Trace, TraceError, TraceEvent};
use cim_arch::CimArchitecture;
use cim_bench::doc::{Document, RunTiming};
use cim_bench::stats::LatencySummary;
use cim_compiler::pool::run_ordered;
use cim_compiler::CompileCache;
use cim_graph::Graph;
use cim_sim::ServiceModel;
use std::sync::Arc;

/// Why a simulation could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// The trace, spec or placement was invalid.
    Trace(TraceError),
    /// A tenant's model has no partition in the placement.
    UnplacedModel(String),
    /// No graph was supplied for a placed model.
    MissingModel(String),
    /// A model failed to compile on its partition.
    Pricing(String),
    /// The batching configuration is invalid.
    InvalidBatching(String),
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::Trace(e) => e.fmt(f),
            TrafficError::UnplacedModel(m) => {
                write!(f, "model `{m}` has no partition in the placement")
            }
            TrafficError::MissingModel(m) => {
                write!(f, "no graph supplied for placed model `{m}`")
            }
            TrafficError::Pricing(msg) => f.write_str(msg),
            TrafficError::InvalidBatching(msg) => write!(f, "invalid batching: {msg}"),
        }
    }
}

impl std::error::Error for TrafficError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrafficError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for TrafficError {
    fn from(e: TraceError) -> Self {
        TrafficError::Trace(e)
    }
}

/// One simulation's configuration: the policy plus the batching knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Batch-forming limits.
    pub batching: Batching,
}

/// One dispatch decision, for inspection and property tests: what
/// boarded, what stayed queued, what was shed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Partition index (into the placement).
    pub partition: usize,
    /// Cycle the batch was formed.
    pub at: u64,
    /// Request ids that boarded, in policy order.
    pub batch: Vec<u64>,
    /// Request ids still queued after the batch boarded.
    pub queued: Vec<u64>,
    /// Request ids dropped at this dispatch (deadline already missed).
    pub dropped: Vec<u64>,
}

/// Prices every partition (compiling each placed model against its
/// slice, via the shared cache when present) and replays the trace
/// under `config`. `models` supplies the graph for every placed model;
/// `threads` parallelizes pricing and the per-partition loops without
/// affecting any reported number.
///
/// # Errors
/// Returns [`TrafficError`] on an invalid trace/placement/batching, a
/// tenant whose model has no partition, a placed model with no graph,
/// or a model that does not compile on its slice.
pub fn run_simulation(
    trace: &Trace,
    arch: &CimArchitecture,
    placement: &Placement,
    models: &[(String, Graph)],
    config: &SimConfig,
    cache: Option<&Arc<dyn CompileCache>>,
    threads: usize,
) -> Result<TrafficReport, TrafficError> {
    let started = cim_obs::stopwatch();
    let services = price_placement(arch, placement, models, cache, threads)?;
    let (mut report, _) = simulate_priced(trace, arch, placement, &services, config, threads)?;
    report.timing = RunTiming {
        total_ms: started.elapsed_ms(),
        threads: threads.max(1),
    };
    Ok(report)
}

/// Compiles every partition's model against its slice and returns the
/// per-partition service models, in placement order.
///
/// # Errors
/// Returns [`TrafficError`] when a placed model has no graph or fails
/// to compile on its slice.
pub fn price_placement(
    arch: &CimArchitecture,
    placement: &Placement,
    models: &[(String, Graph)],
    cache: Option<&Arc<dyn CompileCache>>,
    threads: usize,
) -> Result<Vec<ServiceModel>, TrafficError> {
    let jobs: Vec<(usize, &Graph)> = placement
        .partitions
        .iter()
        .map(|p| {
            models
                .iter()
                .position(|(name, _)| *name == p.model)
                .map(|i| &models[i].1)
                .ok_or_else(|| TrafficError::MissingModel(p.model.clone()))
        })
        .collect::<Result<Vec<&Graph>, TrafficError>>()?
        .into_iter()
        .enumerate()
        .collect();
    let priced = run_ordered(&jobs, threads.max(1), |&(idx, graph)| {
        price_partition(graph, arch, &placement.partitions[idx], cache)
    });
    priced
        .into_iter()
        .collect::<Result<Vec<ServiceModel>, String>>()
        .map_err(TrafficError::Pricing)
}

/// Replays `trace` against already-priced partitions, returning the
/// report (with zeroed timing — [`run_simulation`] stamps it) and the
/// full dispatch log. Exposed for property tests and policy debugging;
/// most callers want [`run_simulation`].
///
/// # Errors
/// Returns [`TrafficError`] on an invalid placement/batching or a
/// tenant whose model has no partition. `services` must align with
/// `placement.partitions`.
pub fn simulate_priced(
    trace: &Trace,
    arch: &CimArchitecture,
    placement: &Placement,
    services: &[ServiceModel],
    config: &SimConfig,
    threads: usize,
) -> Result<(TrafficReport, Vec<DispatchRecord>), TrafficError> {
    trace.spec.validate()?;
    placement.validate(arch)?;
    if config.batching.max_batch == 0 {
        return Err(TrafficError::InvalidBatching(
            "max_batch must be at least 1".into(),
        ));
    }
    assert_eq!(
        services.len(),
        placement.partitions.len(),
        "one service model per partition"
    );

    // Route each tenant (and so each request) to its partition.
    let tenant_partition: Vec<usize> = trace
        .spec
        .tenants
        .iter()
        .map(|t| {
            placement
                .partition_of(&t.model)
                .ok_or_else(|| TrafficError::UnplacedModel(t.model.clone()))
        })
        .collect::<Result<_, _>>()?;
    let mut per_partition: Vec<Vec<TraceEvent>> = vec![Vec::new(); placement.partitions.len()];
    for r in &trace.requests {
        per_partition[tenant_partition[r.tenant]].push(r.clone());
    }

    let policy = config.policy.build();
    let indices: Vec<usize> = (0..placement.partitions.len()).collect();
    let loops = run_ordered(&indices, threads.max(1), |&p| {
        run_partition(
            p,
            &per_partition[p],
            &services[p],
            policy.as_ref(),
            config.batching,
            trace.spec.horizon,
        )
    });

    // Merge: per-tenant stats in spec order, partition stats in
    // placement order, aggregate across everything.
    let makespan = loops
        .iter()
        .map(|l| l.makespan)
        .max()
        .unwrap_or(trace.spec.horizon)
        .max(trace.spec.horizon);
    let mcycles = makespan as f64 / 1e6;

    let mut tenants = Vec::with_capacity(trace.spec.tenants.len());
    for (idx, t) in trace.spec.tenants.iter().enumerate() {
        let outcomes: Vec<&RequestOutcome> = loops
            .iter()
            .flat_map(|l| &l.outcomes)
            .filter(|o| o.tenant == idx)
            .collect();
        tenants.push(TenantStats {
            tenant: t.name.clone(),
            model: t.model.clone(),
            flow: flow_of(&outcomes, mcycles),
        });
    }
    let all: Vec<&RequestOutcome> = loops.iter().flat_map(|l| &l.outcomes).collect();
    let aggregate = flow_of(&all, mcycles);

    let partitions = placement
        .partitions
        .iter()
        .zip(&loops)
        .map(|(p, l)| PartitionStats {
            model: p.model.clone(),
            cores: p.cores,
            crossbars: u64::from(p.cores) * u64::from(arch.core().xb_count()),
            utilization: if l.makespan > 0 {
                l.busy_cycles as f64 / l.makespan.max(trace.spec.horizon) as f64
            } else {
                0.0
            },
            batches: l.batches,
            mean_batch: if l.batches > 0 {
                l.served as f64 / l.batches as f64
            } else {
                0.0
            },
            served: l.served,
            max_queue_depth: l.max_queue_depth,
        })
        .collect();

    let report = TrafficReport {
        schema_version: TrafficReport::VERSION,
        toolchain: concat!("cim-traffic ", env!("CARGO_PKG_VERSION")).to_owned(),
        trace: trace.spec.name.clone(),
        generator: trace.spec.kind.name().to_owned(),
        seed: trace.spec.seed,
        horizon: trace.spec.horizon,
        makespan,
        arch: arch.name().to_owned(),
        policy: config.policy.name().to_owned(),
        max_batch: config.batching.max_batch,
        max_wait: config.batching.max_wait,
        tenants,
        partitions,
        aggregate,
        timing: RunTiming::default(),
    };
    let mut log: Vec<DispatchRecord> = loops.into_iter().flat_map(|l| l.log).collect();
    log.sort_by_key(|d| (d.at, d.partition, d.batch.first().copied().unwrap_or(0)));
    Ok((report, log))
}

/// One request's fate inside a partition loop.
#[derive(Debug, Clone)]
struct RequestOutcome {
    tenant: usize,
    served: bool,
    missed: bool,
    latency: f64,
}

/// Everything one partition loop produces.
struct PartitionLoop {
    outcomes: Vec<RequestOutcome>,
    served: u64,
    batches: u64,
    busy_cycles: u64,
    makespan: u64,
    max_queue_depth: usize,
    log: Vec<DispatchRecord>,
}

fn run_partition(
    partition: usize,
    events: &[TraceEvent],
    service: &ServiceModel,
    policy: &dyn SchedPolicy,
    batching: Batching,
    horizon: u64,
) -> PartitionLoop {
    let mut out = PartitionLoop {
        outcomes: Vec::with_capacity(events.len()),
        served: 0,
        batches: 0,
        busy_cycles: 0,
        makespan: horizon,
        max_queue_depth: 0,
        log: Vec::new(),
    };
    let mut queue: Vec<Queued> = Vec::new();
    let mut next = 0usize; // next un-admitted event
    let mut now = 0u64;
    let mut free_at = 0u64;

    let admit = |until: u64, next: &mut usize, queue: &mut Vec<Queued>, depth: &mut usize| {
        while *next < events.len() && events[*next].arrival <= until {
            queue.push(Queued {
                event: events[*next].clone(),
                enqueued: events[*next].arrival,
            });
            *next += 1;
            *depth = (*depth).max(queue.len());
        }
    };

    while next < events.len() || !queue.is_empty() {
        if queue.is_empty() {
            // Idle: jump to the next arrival.
            now = now.max(events[next].arrival);
        }
        admit(now, &mut next, &mut queue, &mut out.max_queue_depth);
        if now < free_at {
            // The partition is busy; requests keep queueing meanwhile.
            now = free_at;
            admit(now, &mut next, &mut queue, &mut out.max_queue_depth);
        }
        if queue.is_empty() {
            continue;
        }
        // Batch forming: wait for a fuller batch if allowed and there
        // is anything to wait for.
        if queue.len() < batching.max_batch && batching.max_wait > 0 && next < events.len() {
            let oldest = queue
                .iter()
                .map(|q| q.enqueued)
                .min()
                .expect("queue is non-empty");
            let force_at = oldest.saturating_add(batching.max_wait);
            if now < force_at {
                if events[next].arrival <= force_at {
                    now = now.max(events[next].arrival);
                    admit(now, &mut next, &mut queue, &mut out.max_queue_depth);
                    continue;
                }
                now = force_at;
            }
        }
        // Policy order (stable: ties keep arrival order from admission).
        queue.sort_by(|a, b| policy.compare(a, b));
        // Drop-on-miss: shed every request whose deadline has already
        // passed — serving it could only produce a missed answer.
        let mut dropped_ids = Vec::new();
        if policy.drop_on_miss() {
            queue.retain(|q| {
                let expired = q.event.deadline.is_some_and(|d| d <= now);
                if expired {
                    dropped_ids.push(q.event.id);
                    out.outcomes.push(RequestOutcome {
                        tenant: q.event.tenant,
                        served: false,
                        missed: false,
                        latency: 0.0,
                    });
                }
                !expired
            });
        }
        if queue.is_empty() {
            if !dropped_ids.is_empty() {
                out.log.push(DispatchRecord {
                    partition,
                    at: now,
                    batch: Vec::new(),
                    queued: Vec::new(),
                    dropped: dropped_ids,
                });
            }
            continue;
        }
        let take = queue.len().min(batching.max_batch);
        let batch: Vec<Queued> = queue.drain(..take).collect();
        let cost = service.batch_cycles(batch.len());
        let finish = now + cost;
        out.log.push(DispatchRecord {
            partition,
            at: now,
            batch: batch.iter().map(|q| q.event.id).collect(),
            queued: queue.iter().map(|q| q.event.id).collect(),
            dropped: dropped_ids,
        });
        for q in &batch {
            let missed = q.event.deadline.is_some_and(|d| finish > d);
            out.outcomes.push(RequestOutcome {
                tenant: q.event.tenant,
                served: true,
                missed,
                latency: (finish - q.event.arrival) as f64,
            });
        }
        out.served += batch.len() as u64;
        out.batches += 1;
        out.busy_cycles += cost;
        out.makespan = out.makespan.max(finish);
        free_at = finish;
    }
    out
}

fn flow_of(outcomes: &[&RequestOutcome], mcycles: f64) -> FlowStats {
    let served: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.served)
        .map(|o| o.latency)
        .collect();
    FlowStats {
        requests: outcomes.len() as u64,
        served: served.len() as u64,
        dropped: outcomes.iter().filter(|o| !o.served).count() as u64,
        missed: outcomes.iter().filter(|o| o.missed).count() as u64,
        latency: LatencySummary::of(&served),
        throughput: if mcycles > 0.0 {
            served.len() as f64 / mcycles
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{GeneratorKind, TenantSpec, TraceSpec};
    use cim_arch::presets;

    fn two_tenant_spec(kind: GeneratorKind, deadline: Option<u64>) -> TraceSpec {
        TraceSpec {
            name: "unit".into(),
            kind,
            seed: 11,
            horizon: 2_000_000,
            mean_gap: 2_000.0,
            burst_len: 16,
            idle_gap: 200_000.0,
            tenants: vec![
                TenantSpec {
                    name: "interactive".into(),
                    model: "lenet5".into(),
                    weight: 1.0,
                    priority: 2,
                    deadline,
                },
                TenantSpec {
                    name: "batch".into(),
                    model: "lenet5".into(),
                    weight: 1.0,
                    priority: 0,
                    deadline: None,
                },
            ],
        }
    }

    fn fixed_services(n: usize) -> Vec<ServiceModel> {
        vec![
            ServiceModel {
                latency_cycles: 5_000,
                interval_cycles: 500,
            };
            n
        ]
    }

    fn config(policy: PolicyKind) -> SimConfig {
        SimConfig {
            policy,
            batching: Batching {
                max_batch: 8,
                max_wait: 0,
            },
        }
    }

    fn run(spec: &TraceSpec, policy: PolicyKind, threads: usize) -> TrafficReport {
        let trace = spec.generate().unwrap();
        let arch = presets::isaac_baseline();
        let placement = Placement::balanced(&arch, spec).unwrap();
        let services = fixed_services(placement.partitions.len());
        simulate_priced(
            &trace,
            &arch,
            &placement,
            &services,
            &config(policy),
            threads,
        )
        .unwrap()
        .0
    }

    #[test]
    fn every_request_is_accounted_for() {
        let spec = two_tenant_spec(GeneratorKind::Poisson, Some(50_000));
        let trace = spec.generate().unwrap();
        for policy in PolicyKind::ALL {
            let report = run(&spec, policy, 1);
            assert_eq!(report.aggregate.requests as usize, trace.requests.len());
            assert_eq!(
                report.aggregate.served + report.aggregate.dropped,
                report.aggregate.requests
            );
            let by_tenant: u64 = report.tenants.iter().map(|t| t.flow.requests).sum();
            assert_eq!(by_tenant, report.aggregate.requests);
            assert!(report.aggregate.throughput > 0.0);
            assert!(report.partitions.iter().all(|p| p.utilization <= 1.0));
        }
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let spec = two_tenant_spec(GeneratorKind::Bursty, Some(40_000));
        for policy in PolicyKind::ALL {
            let a = run(&spec, policy, 1).comparable().to_json();
            let b = run(&spec, policy, 4).comparable().to_json();
            assert_eq!(a, b, "policy {policy:?} diverged across thread counts");
        }
    }

    #[test]
    fn edf_drops_expired_requests_and_cuts_p99_on_bursty_overload() {
        // Saturating bursts: 64 back-to-back requests per tenant every
        // ~300 cycles, against a service that clears 8 per 8500 cycles.
        let mut spec = two_tenant_spec(GeneratorKind::Bursty, Some(15_000));
        spec.mean_gap = 300.0;
        spec.burst_len = 64;
        let fifo = run(&spec, PolicyKind::Fifo, 2);
        let edf = run(&spec, PolicyKind::Edf, 2);
        assert_eq!(fifo.aggregate.dropped, 0, "fifo never drops");
        assert!(edf.aggregate.dropped > 0, "overloaded edf must shed load");
        assert!(
            edf.aggregate.latency.p99 < fifo.aggregate.latency.p99,
            "edf p99 {} should beat fifo p99 {}",
            edf.aggregate.latency.p99,
            fifo.aggregate.latency.p99
        );
    }

    #[test]
    fn priority_tenant_beats_batch_tenant_under_priority_policy() {
        let spec = two_tenant_spec(GeneratorKind::Bursty, None);
        let report = run(&spec, PolicyKind::Priority, 1);
        let interactive = &report.tenants[0].flow;
        let batch = &report.tenants[1].flow;
        assert!(
            interactive.latency.p99 <= batch.latency.p99,
            "priority tenant p99 {} should not exceed batch p99 {}",
            interactive.latency.p99,
            batch.latency.p99
        );
    }

    #[test]
    fn batching_waits_at_most_max_wait() {
        // Two requests 1000 cycles apart, batch limit 4, wait 5000:
        // the first request must not be dispatched before the second
        // arrives, and both board one batch.
        let spec = TraceSpec {
            name: "pair".into(),
            kind: GeneratorKind::Poisson,
            seed: 3,
            horizon: 1_000_000,
            mean_gap: 400_000.0,
            burst_len: 1,
            idle_gap: 1.0,
            tenants: vec![TenantSpec {
                name: "only".into(),
                model: "lenet5".into(),
                weight: 1.0,
                priority: 0,
                deadline: None,
            }],
        };
        let trace = spec.generate().unwrap();
        let arch = presets::isaac_baseline();
        let placement = Placement::balanced(&arch, &spec).unwrap();
        let services = fixed_services(1);
        let cfg = SimConfig {
            policy: PolicyKind::Fifo,
            batching: Batching {
                max_batch: 4,
                max_wait: 1_000_000,
            },
        };
        let (report, log) = simulate_priced(&trace, &arch, &placement, &services, &cfg, 1).unwrap();
        // With an effectively unbounded wait, everything rides batches
        // of up to max_batch.
        assert!(report.partitions[0].batches < report.aggregate.served.max(2));
        assert!(log.iter().all(|d| d.batch.len() <= 4));
    }

    #[test]
    fn unplaced_models_are_rejected() {
        let spec = two_tenant_spec(GeneratorKind::Poisson, None);
        let trace = spec.generate().unwrap();
        let arch = presets::isaac_baseline();
        let placement = Placement {
            partitions: vec![crate::placement::Partition {
                model: "vgg7".into(),
                cores: 1,
            }],
        };
        let err = simulate_priced(
            &trace,
            &arch,
            &placement,
            &fixed_services(1),
            &config(PolicyKind::Fifo),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, TrafficError::UnplacedModel(m) if m == "lenet5"));
    }
}
