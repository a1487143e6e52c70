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
//! Per partition, the loop alternates admission and dispatch. The
//! queue is a `RunQueue`: a set of FIFO runs, each in strictly rising
//! [`PolicyKind::key`] order, whose least head boards next — exactly
//! the order one key-ordered heap would pop. Admission appends to a
//! run, and when the partition frees up, drop-on-miss policies take the
//! requests whose deadline already passed off the front, then the
//! smallest keys board a batch bounded by [`Batching::max_batch`]. A
//! partial batch waits for more arrivals at most [`Batching::max_wait`]
//! cycles past the oldest queued request's arrival. One batch of `b`
//! requests occupies the partition for
//! [`ServiceModel::batch_cycles`]`(b)`.
//!
//! A replay of `n` requests therefore costs `O(n log r)` for at most `r`
//! runs open at once — `r` is at most the queue depth, so never worse
//! than `O(n log n)`, and `r = 1` under `fifo` — and keeps one
//! [`RequestOutcome`] per request, never a per-dispatch copy of the
//! queue.

use crate::placement::Placement;
use crate::policy::{Batching, PolicyKind};
use crate::report::{FlowStats, PartitionStats, TenantStats, TrafficReport};
use crate::trace::{Trace, TraceError, TraceEvent};
use cim_arch::CimArchitecture;
use cim_compiler::pool::run_ordered;
use cim_compiler::{compile_batch, BatchJob, CompileCache, OptLevel};
use cim_graph::Graph;
use cim_obs::{Document, LatencySummary, RunTiming};
use cim_sim::ServiceModel;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
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

/// One request's fate, as [`simulate_priced`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Request id (from the trace).
    pub id: u64,
    /// Index into the trace spec's tenants.
    pub tenant: usize,
    /// Partition index (into the placement) that queued the request.
    pub partition: usize,
    /// Cycle the request boarded a batch, or was dropped.
    pub dispatched: u64,
    /// Cycle its batch finished; `None` = dropped unserved.
    pub finished: Option<u64>,
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

/// Compiles every partition's model against its slice of `arch`
/// ([`CimArchitecture::partition`]) in one [`compile_batch`] and returns
/// the per-partition service models, in placement order. The cache and
/// `threads` change wall-clock time only.
///
/// # Errors
/// Returns [`TrafficError`] when a placed model has no graph, or names
/// the first partition that is invalid for the chip or whose model does
/// not compile on so few crossbars.
pub fn price_placement(
    arch: &CimArchitecture,
    placement: &Placement,
    models: &[(String, Graph)],
    cache: Option<&Arc<dyn CompileCache>>,
    threads: usize,
) -> Result<Vec<ServiceModel>, TrafficError> {
    let graphs = placement
        .partitions
        .iter()
        .map(|p| {
            models
                .iter()
                .find(|(name, _)| *name == p.model)
                .map(|(_, graph)| graph)
                .ok_or_else(|| TrafficError::MissingModel(p.model.clone()))
        })
        .collect::<Result<Vec<&Graph>, TrafficError>>()?;
    let slices: Vec<_> = placement
        .partitions
        .iter()
        .map(|p| arch.partition(p.cores))
        .collect();
    let jobs: Vec<BatchJob<'_>> = graphs
        .iter()
        .zip(&slices)
        .filter_map(|(graph, slice)| {
            Some(BatchJob {
                graph,
                arch: slice.as_ref().ok()?,
                level: OptLevel::Auto,
            })
        })
        .collect();
    let mut priced = compile_batch(&jobs, threads, cache).into_iter();
    placement
        .partitions
        .iter()
        .zip(&slices)
        .map(|(p, slice)| {
            if let Err(e) = slice {
                return Err(format!("invalid partition for `{}`: {e}", p.model));
            }
            let (metrics, _) = priced
                .next()
                .expect("one result per valid slice")
                .map_err(|e| {
                    format!(
                        "model `{}` failed to compile on its {}-core partition: {e}",
                        p.model, p.cores
                    )
                })?;
            Ok(ServiceModel::from_metrics(&metrics))
        })
        .collect::<Result<Vec<ServiceModel>, String>>()
        .map_err(TrafficError::Pricing)
}

/// Replays `trace` against already-priced partitions, returning the
/// report (with zeroed timing — [`run_simulation`] stamps it) and one
/// [`RequestOutcome`] per request, in trace order. Exposed for property
/// tests and policy debugging; most callers want [`run_simulation`].
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
) -> Result<(TrafficReport, Vec<RequestOutcome>), TrafficError> {
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
    // Route each tenant, and so each request, to its partition; per
    // partition, its requests' trace indices in arrival order.
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
    let mut members = vec![Vec::new(); placement.partitions.len()];
    let mut tenant_requests = vec![0; trace.spec.tenants.len()];
    for (i, r) in trace.requests.iter().enumerate() {
        members[tenant_partition[r.tenant]].push(i);
        tenant_requests[r.tenant] += 1;
    }
    let indices: Vec<usize> = (0..placement.partitions.len()).collect();
    let loops = run_ordered(&indices, threads.max(1), |&p| {
        run_partition(
            &trace.requests,
            &members[p],
            &services[p],
            config.policy,
            config.batching,
            trace.spec.horizon,
        )
    });
    Ok(assemble(
        trace,
        arch,
        placement,
        config,
        &tenant_partition,
        &tenant_requests,
        &loops,
    ))
}

/// Everything one partition loop produces.
#[derive(Default)]
struct PartitionLoop {
    /// `(dispatched, finished)` per member request, in member order.
    slots: Vec<(u64, Option<u64>)>,
    served: u64,
    batches: u64,
    busy_cycles: u64,
    makespan: u64,
    max_queue_depth: usize,
}

/// A [`PolicyKind::key`].
type Key = (u64, u64, u64);

/// One partition's queue of member positions, as FIFO runs.
///
/// An admitted member joins the run whose tail key is the largest one
/// below its own, or opens a run when every tail is larger; the least
/// run head boards next. Each run is in rising key order, so the least
/// head is the least queued key and the dispatch order is exactly a
/// key-ordered heap's. Members are admitted in arrival order, so a run
/// is in arrival order too, and keys that share a priority (`priority`)
/// or a relative deadline (`edf`) rise with arrival: a partition holds
/// at most as many open runs as its tenants have distinct ones, and one
/// under `fifo`.
///
/// Runs are kept by strictly falling tail key. A new run only ever
/// opens below every tail, and a run only ever empties when its one
/// member is the least queued key — so below every other tail too —
/// which makes `runs` a stack: each operation is `O(log r)` for `r`
/// open runs.
struct RunQueue {
    /// `next[k]`: the member queued behind member `k` in its run.
    next: Vec<u32>,
    /// The open runs, by strictly falling tail key.
    runs: Vec<Run>,
    /// Each open run's head key and index into `runs`, least first.
    heads: BinaryHeap<Reverse<(Key, u32)>>,
    len: usize,
}

/// One FIFO run: its first and last member, linked through
/// [`RunQueue::next`], and the last one's key.
struct Run {
    head: u32,
    tail: u32,
    tail_key: Key,
}

impl RunQueue {
    /// An empty queue for member positions `0..members`.
    fn new(members: usize) -> Self {
        assert!(
            u32::try_from(members).is_ok(),
            "a partition queues at most u32::MAX requests"
        );
        RunQueue {
            next: vec![0; members],
            runs: Vec::new(),
            heads: BinaryHeap::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues member `k`, whose key is `key`.
    fn push(&mut self, k: u32, key: Key) {
        let at = self.runs.partition_point(|run| run.tail_key > key);
        if let Some(run) = self.runs.get_mut(at) {
            self.next[run.tail as usize] = k;
            run.tail = k;
            run.tail_key = key;
        } else {
            self.heads.push(Reverse((key, at as u32)));
            self.runs.push(Run {
                head: k,
                tail: k,
                tail_key: key,
            });
        }
        self.len += 1;
    }

    /// The member with the least key.
    fn peek(&self) -> Option<u32> {
        let Reverse((_, run)) = self.heads.peek()?;
        Some(self.runs[*run as usize].head)
    }

    /// Takes the member with the least key off the queue; `key` prices
    /// the member behind it.
    fn pop(&mut self, key: impl Fn(u32) -> Key) -> Option<u32> {
        let mut top = self.heads.peek_mut()?;
        let at = top.0 .1 as usize;
        let run = &mut self.runs[at];
        let k = run.head;
        if k == run.tail {
            debug_assert_eq!(at + 1, self.runs.len(), "an emptied run has the least tail");
            PeekMut::pop(top);
            self.runs.pop();
        } else {
            run.head = self.next[k as usize];
            top.0 .0 = key(run.head);
        }
        self.len -= 1;
        Some(k)
    }

    /// The earliest-admitted queued member: a run is in admission
    /// order, so it is the least run head.
    fn oldest(&self) -> Option<u32> {
        self.runs.iter().map(|run| run.head).min()
    }
}

/// Replays one partition's requests: `members` indexes `events` in
/// arrival order.
fn run_partition(
    events: &[TraceEvent],
    members: &[usize],
    service: &ServiceModel,
    policy: PolicyKind,
    batching: Batching,
    horizon: u64,
) -> PartitionLoop {
    let event = |k: u32| &events[members[k as usize]];
    let key = |k: u32| policy.key(event(k));
    let mut out = PartitionLoop {
        slots: vec![(0, None); members.len()],
        makespan: horizon,
        ..PartitionLoop::default()
    };
    let mut queue = RunQueue::new(members.len());
    let end = members.len() as u32;
    let mut next = 0u32; // next un-admitted member
    let mut now = 0u64;
    let mut free_at = 0u64;

    let mut admit = |until: u64, next: &mut u32, queue: &mut RunQueue| {
        while *next < end && event(*next).arrival <= until {
            queue.push(*next, key(*next));
            *next += 1;
            out.max_queue_depth = out.max_queue_depth.max(queue.len());
        }
    };

    while next < end || !queue.is_empty() {
        if queue.is_empty() {
            // Idle: jump to the next arrival.
            now = now.max(event(next).arrival);
        }
        // Requests keep queueing while the partition is busy.
        now = now.max(free_at);
        admit(now, &mut next, &mut queue);
        if queue.is_empty() {
            continue;
        }
        // Batch forming: wait for a fuller batch if allowed and there
        // is anything to wait for.
        if queue.len() < batching.max_batch && batching.max_wait > 0 && next < end {
            let oldest = queue.oldest().expect("queue is non-empty");
            let force_at = event(oldest).arrival.saturating_add(batching.max_wait);
            if now < force_at {
                if event(next).arrival <= force_at {
                    now = now.max(event(next).arrival);
                    admit(now, &mut next, &mut queue);
                    continue;
                }
                now = force_at;
            }
        }
        // Drop-on-miss: the key leads with the deadline, so every
        // request that can only produce a missed answer is in front.
        let expired = |k: u32| policy.drop_on_miss() && event(k).deadline.is_some_and(|d| d <= now);
        while queue.peek().is_some_and(expired) {
            let k = queue.pop(key).expect("peeked");
            out.slots[k as usize] = (now, None);
        }
        let take = queue.len().min(batching.max_batch);
        if take == 0 {
            continue;
        }
        let cost = service.batch_cycles(take);
        let finish = now + cost;
        for _ in 0..take {
            let k = queue.pop(key).expect("take <= queue length");
            out.slots[k as usize] = (now, Some(finish));
        }
        out.served += take as u64;
        out.batches += 1;
        out.busy_cycles += cost;
        out.makespan = out.makespan.max(finish);
        free_at = finish;
    }
    out
}

/// Folds the partition loops into the report and the per-request
/// outcomes: one pass over the trace, then an `O(n)` latency summary per
/// tenant and one over their concatenation. `tenant_requests` counts
/// each tenant's requests, which sizes the latency buffers up front.
fn assemble(
    trace: &Trace,
    arch: &CimArchitecture,
    placement: &Placement,
    config: &SimConfig,
    tenant_partition: &[usize],
    tenant_requests: &[usize],
    loops: &[PartitionLoop],
) -> (TrafficReport, Vec<RequestOutcome>) {
    // Every loop's makespan starts at the (validated, non-zero) horizon.
    let makespan = loops
        .iter()
        .map(|l| l.makespan)
        .fold(trace.spec.horizon, u64::max);
    let mcycles = makespan as f64 / 1e6;

    // Each partition's members are in trace order, so a cursor per
    // partition walks its slots alongside the trace.
    let mut cursor = vec![0usize; loops.len()];
    let mut flows: Vec<Tally> = tenant_requests
        .iter()
        .map(|&n| Tally::with_capacity(n))
        .collect();
    let outcomes: Vec<RequestOutcome> = trace
        .requests
        .iter()
        .map(|r| {
            let partition = tenant_partition[r.tenant];
            let (dispatched, finished) = loops[partition].slots[cursor[partition]];
            cursor[partition] += 1;
            flows[r.tenant].add(r, finished);
            RequestOutcome {
                id: r.id,
                tenant: r.tenant,
                partition,
                dispatched,
                finished,
            }
        })
        .collect();
    let mut all = Tally::with_capacity(flows.iter().map(|f| f.latencies.len()).sum());
    for flow in &flows {
        all.requests += flow.requests;
        all.missed += flow.missed;
        all.latencies.extend_from_slice(&flow.latencies);
    }

    let tenants = trace
        .spec
        .tenants
        .iter()
        .zip(&mut flows)
        .map(|(t, flow)| TenantStats {
            tenant: t.name.clone(),
            model: t.model.clone(),
            flow: flow.stats(mcycles),
        })
        .collect();
    let partitions = placement
        .partitions
        .iter()
        .zip(loops)
        .map(|(p, l)| PartitionStats {
            model: p.model.clone(),
            cores: p.cores,
            crossbars: u64::from(p.cores) * u64::from(arch.core().xb_count()),
            utilization: l.busy_cycles as f64 / l.makespan as f64,
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
        aggregate: all.stats(mcycles),
        timing: RunTiming::default(),
    };
    (report, outcomes)
}

/// One request flow's counters and served latencies in cycles, in the
/// order the requests arrived.
#[derive(Debug, Clone, Default)]
struct Tally {
    requests: u64,
    missed: u64,
    latencies: Vec<u64>,
}

impl Tally {
    /// An empty tally with room for `n` served latencies.
    fn with_capacity(n: usize) -> Self {
        Tally {
            latencies: Vec::with_capacity(n),
            ..Tally::default()
        }
    }

    fn add(&mut self, request: &TraceEvent, finished: Option<u64>) {
        self.requests += 1;
        if let Some(finish) = finished {
            self.missed += u64::from(request.deadline.is_some_and(|d| finish > d));
            self.latencies.push(finish - request.arrival);
        }
    }

    /// The flow's stats; `mcycles` must be positive. Summarizing
    /// reorders `latencies`.
    fn stats(&mut self, mcycles: f64) -> FlowStats {
        let served = self.latencies.len() as u64;
        FlowStats {
            requests: self.requests,
            served,
            dropped: self.requests - served,
            missed: self.missed,
            latency: LatencySummary::of_cycles(&mut self.latencies),
            throughput: served as f64 / mcycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{GeneratorKind, TenantSpec, TraceSpec};
    use cim_arch::presets;
    use proptest::prelude::*;

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
        let (report, outcomes) =
            simulate_priced(&trace, &arch, &placement, &services, &cfg, 1).unwrap();
        // With an effectively unbounded wait, everything rides batches
        // of up to max_batch.
        assert!(report.partitions[0].batches < report.aggregate.served.max(2));
        let mut boarded = std::collections::BTreeMap::new();
        for o in &outcomes {
            *boarded.entry(o.dispatched).or_insert(0) += 1;
        }
        assert!(boarded.values().all(|&n| n <= 4), "{boarded:?}");
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

    /// The engine before its key-ordered queue, kept as the reference:
    /// re-sort the whole queue by key on every dispatch, shed every
    /// expired request anywhere in it, drain the front.
    fn oracle_partition(
        events: &[TraceEvent],
        members: &[usize],
        service: &ServiceModel,
        policy: PolicyKind,
        batching: Batching,
        horizon: u64,
    ) -> PartitionLoop {
        let event = |k: usize| &events[members[k]];
        let mut out = PartitionLoop {
            slots: vec![(0, None); members.len()],
            makespan: horizon,
            ..PartitionLoop::default()
        };
        let mut queue: Vec<usize> = Vec::new();
        let (mut next, mut now, mut free_at) = (0usize, 0u64, 0u64);
        let admit = |until: u64, next: &mut usize, queue: &mut Vec<usize>, depth: &mut usize| {
            while *next < members.len() && event(*next).arrival <= until {
                queue.push(*next);
                *next += 1;
                *depth = (*depth).max(queue.len());
            }
        };
        while next < members.len() || !queue.is_empty() {
            if queue.is_empty() {
                now = now.max(event(next).arrival);
            }
            admit(now, &mut next, &mut queue, &mut out.max_queue_depth);
            if now < free_at {
                now = free_at;
                admit(now, &mut next, &mut queue, &mut out.max_queue_depth);
            }
            if queue.is_empty() {
                continue;
            }
            if queue.len() < batching.max_batch && batching.max_wait > 0 && next < members.len() {
                let oldest = queue.iter().map(|&k| event(k).arrival).min().unwrap();
                let force_at = oldest.saturating_add(batching.max_wait);
                if now < force_at {
                    if event(next).arrival <= force_at {
                        now = now.max(event(next).arrival);
                        admit(now, &mut next, &mut queue, &mut out.max_queue_depth);
                        continue;
                    }
                    now = force_at;
                }
            }
            queue.sort_by_key(|&k| policy.key(event(k)));
            if policy.drop_on_miss() {
                queue.retain(|&k| {
                    let expired = event(k).deadline.is_some_and(|d| d <= now);
                    if expired {
                        out.slots[k] = (now, None);
                    }
                    !expired
                });
            }
            if queue.is_empty() {
                continue;
            }
            let batch: Vec<usize> = queue.drain(..queue.len().min(batching.max_batch)).collect();
            let finish = now + service.batch_cycles(batch.len());
            for &k in &batch {
                out.slots[k] = (now, Some(finish));
            }
            out.served += batch.len() as u64;
            out.batches += 1;
            out.busy_cycles += finish - now;
            out.makespan = out.makespan.max(finish);
            free_at = finish;
        }
        out
    }

    /// The flow summary before the one-pass fold: filter the outcomes,
    /// collect the served latencies, `LatencySummary::of`.
    fn oracle_flow(
        trace: &Trace,
        outcomes: &[RequestOutcome],
        tenant: Option<usize>,
        mcycles: f64,
    ) -> FlowStats {
        let mine: Vec<(&TraceEvent, &RequestOutcome)> = trace
            .requests
            .iter()
            .zip(outcomes)
            .filter(|(_, o)| tenant.is_none_or(|t| o.tenant == t))
            .collect();
        let served: Vec<f64> = mine
            .iter()
            .filter_map(|(r, o)| o.finished.map(|f| (f - r.arrival) as f64))
            .collect();
        let missed = mine
            .iter()
            .filter(|(r, o)| o.finished.zip(r.deadline).is_some_and(|(f, d)| f > d))
            .count();
        FlowStats {
            requests: mine.len() as u64,
            served: served.len() as u64,
            dropped: (mine.len() - served.len()) as u64,
            missed: missed as u64,
            latency: LatencySummary::of(&served),
            throughput: served.len() as f64 / mcycles,
        }
    }

    /// [`simulate_priced`] on the reference loop and the reference fold.
    fn oracle_replay(
        trace: &Trace,
        arch: &CimArchitecture,
        placement: &Placement,
        services: &[ServiceModel],
        config: &SimConfig,
    ) -> (TrafficReport, Vec<RequestOutcome>) {
        let tenant_partition: Vec<usize> = trace
            .spec
            .tenants
            .iter()
            .map(|t| placement.partition_of(&t.model).unwrap())
            .collect();
        let mut members = vec![Vec::new(); placement.partitions.len()];
        let mut tenant_requests = vec![0; trace.spec.tenants.len()];
        for (i, r) in trace.requests.iter().enumerate() {
            members[tenant_partition[r.tenant]].push(i);
            tenant_requests[r.tenant] += 1;
        }
        let loops: Vec<PartitionLoop> = members
            .iter()
            .zip(services)
            .map(|(m, s)| {
                let (b, h) = (config.batching, trace.spec.horizon);
                oracle_partition(&trace.requests, m, s, config.policy, b, h)
            })
            .collect();
        let (mut report, outcomes) = assemble(
            trace,
            arch,
            placement,
            config,
            &tenant_partition,
            &tenant_requests,
            &loops,
        );
        let mcycles = report.makespan as f64 / 1e6;
        for (idx, t) in report.tenants.iter_mut().enumerate() {
            t.flow = oracle_flow(trace, &outcomes, Some(idx), mcycles);
        }
        report.aggregate = oracle_flow(trace, &outcomes, None, mcycles);
        (report, outcomes)
    }

    /// Small specs up to heavily overloaded bursts (4 000-cycle service
    /// against arrivals every ~100 cycles), with and without deadlines.
    fn replays() -> impl Strategy<Value = (TraceSpec, SimConfig)> {
        (
            prop_oneof![
                Just(GeneratorKind::Poisson),
                Just(GeneratorKind::Bursty),
                Just(GeneratorKind::Mix),
            ],
            0u64..1_000,
            50_000u64..250_000,
            (100u32..4_000).prop_map(f64::from),
            1u32..200,
            (1_000u32..40_000).prop_map(f64::from),
            proptest::collection::vec(
                (
                    prop_oneof![Just("lenet5"), Just("mlp")],
                    0u32..4,
                    proptest::option::of(2_000u64..60_000),
                ),
                1..4,
            ),
            prop_oneof![
                Just(PolicyKind::Fifo),
                Just(PolicyKind::Priority),
                Just(PolicyKind::Edf),
            ],
            prop_oneof![Just(1usize), Just(4), Just(8)],
            prop_oneof![Just(0u64), 1u64..20_000],
        )
            .prop_map(
                |(kind, seed, horizon, mean_gap, burst_len, idle_gap, tenants, policy, b, w)| {
                    let spec = TraceSpec {
                        name: "oracle".into(),
                        kind,
                        seed,
                        horizon,
                        mean_gap,
                        burst_len,
                        idle_gap,
                        tenants: tenants
                            .into_iter()
                            .enumerate()
                            .map(|(idx, (model, priority, deadline))| TenantSpec {
                                name: format!("t{idx}"),
                                model: model.to_owned(),
                                weight: 1.0 + idx as f64,
                                priority,
                                deadline,
                            })
                            .collect(),
                    };
                    let batching = Batching {
                        max_batch: b,
                        max_wait: w,
                    };
                    (spec, SimConfig { policy, batching })
                },
            )
    }

    /// Hand-built, arrival-sorted traces on top of [`replays`]' specs
    /// and configs, whose requests draw their priority and deadline
    /// independently of their tenant (a generated trace stamps both from
    /// the tenant). Under `priority` and `edf` a partition then holds
    /// many runs at once, not one per tenant.
    fn mixed_key_replays() -> impl Strategy<Value = (Trace, SimConfig)> {
        (
            replays(),
            proptest::collection::vec(
                (
                    0u64..120,
                    0usize..3,
                    0u32..6,
                    proptest::option::of(500u64..40_000),
                ),
                1..400,
            ),
        )
            .prop_map(|((spec, config), draws)| {
                let mut arrival = 0;
                let requests = draws
                    .into_iter()
                    .enumerate()
                    .map(|(id, (gap, tenant, priority, deadline))| {
                        arrival += gap;
                        TraceEvent {
                            id: id as u64,
                            tenant: tenant % spec.tenants.len(),
                            arrival,
                            priority,
                            deadline: deadline.map(|d| arrival + d),
                        }
                    })
                    .collect();
                let trace = Trace {
                    schema_version: Trace::VERSION,
                    spec,
                    requests,
                };
                (trace, config)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn run_queue_matches_the_sorting_oracle(
            (trace, config) in prop_oneof![
                replays().prop_map(|(spec, config)| (spec.generate().unwrap(), config)),
                mixed_key_replays(),
            ]
        ) {
            let arch = presets::isaac_baseline();
            let placement = Placement::balanced(&arch, &trace.spec).unwrap();
            let services = vec![
                ServiceModel { latency_cycles: 4_000, interval_cycles: 400 };
                placement.partitions.len()
            ];
            let (report, outcomes) =
                simulate_priced(&trace, &arch, &placement, &services, &config, 2).unwrap();
            let (want, want_outcomes) = oracle_replay(&trace, &arch, &placement, &services, &config);
            prop_assert_eq!(outcomes, want_outcomes);
            prop_assert_eq!(report.comparable().to_json(), want.comparable().to_json());
        }
    }

    /// The engine against queueing theory: a single-tenant Poisson trace
    /// under fifo, one request per batch and a fixed `D`-cycle service
    /// is an M/D/1 queue, whose mean sojourn time is the
    /// Pollaczek–Khinchine value `D + ρD / (2(1 − ρ))`.
    ///
    /// Tolerance: 1.5 % of the closed form at ρ = 0.5 and 6.5 % at
    /// ρ = 0.8, over 200 k requests per load. Successive sojourn times
    /// are correlated, so the sample mean's standard error is far above
    /// the i.i.d. `σ/√n` and grows steeply with load (the queue's
    /// relaxation time scales as `1/(1 − ρ)²`), but still falls as
    /// `1/√n`. Measured over 20 seeds, the relative error of the mean
    /// had a standard deviation of 0.30 % (ρ = 0.5) and 1.3 % (ρ = 0.8)
    /// at 200 k requests, and 1.1 % / 5.1 % at 20 k, with the mean error
    /// within one standard error of zero: the integer-cycle arrival
    /// stamps and the empty start add no visible bias. Each tolerance
    /// is about five standard errors, so no seed fails it, while an
    /// engine that mistimes admission or service moves the mean by far
    /// more.
    #[test]
    fn fifo_single_server_matches_the_md1_closed_form() {
        const D: u64 = 1_000;
        const REQUESTS: f64 = 200_000.0;
        for (rho, tolerance) in [(0.5, 0.015), (0.8, 0.065)] {
            let mean_gap = D as f64 / rho;
            let spec = TraceSpec {
                name: "md1".into(),
                kind: GeneratorKind::Poisson,
                seed: 5,
                horizon: (REQUESTS * mean_gap) as u64,
                mean_gap,
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
            let services = [ServiceModel {
                latency_cycles: D,
                interval_cycles: 1,
            }];
            let cfg = SimConfig {
                policy: PolicyKind::Fifo,
                batching: Batching {
                    max_batch: 1,
                    max_wait: 0,
                },
            };
            let (report, _) =
                simulate_priced(&trace, &arch, &placement, &services, &cfg, 1).unwrap();
            let d = D as f64;
            let want = d + rho * d / (2.0 * (1.0 - rho));
            let got = report.aggregate.latency.mean;
            assert!(report.aggregate.served >= 190_000);
            assert!(
                (got - want).abs() <= tolerance * want,
                "ρ = {rho}: mean sojourn {got:.1} cycles vs M/D/1 {want:.1}"
            );
        }
    }

    /// A 200 k-request overloaded bursty replay, under every policy. The
    /// old sort-the-whole-queue loop took minutes on this trace (its
    /// queues run tens of thousands deep), so a return of the quadratic
    /// shows up as a test that does not finish.
    #[test]
    fn large_overloaded_replay_stays_linearithmic() {
        let tenant = |name: &str, model: &str, priority, deadline| TenantSpec {
            name: name.into(),
            model: model.into(),
            weight: 1.0,
            priority,
            deadline: Some(deadline),
        };
        let spec = TraceSpec {
            name: "overload".into(),
            kind: GeneratorKind::Bursty,
            seed: 7,
            horizon: 10_000_000,
            mean_gap: 190.0,
            burst_len: 500,
            idle_gap: 5_000.0,
            tenants: vec![
                tenant("interactive", "lenet5", 3, 600_000),
                tenant("batch", "lenet5", 0, 150_000),
                tenant("online", "mlp", 2, 600_000),
                tenant("offline", "mlp", 1, 150_000),
            ],
        };
        let trace = spec.generate().unwrap();
        assert!(trace.requests.len() >= 200_000, "{}", trace.requests.len());
        let arch = presets::isaac_baseline();
        let placement = Placement::balanced(&arch, &spec).unwrap();
        let services = vec![
            ServiceModel {
                latency_cycles: 1_000,
                interval_cycles: 100,
            };
            placement.partitions.len()
        ];
        for policy in PolicyKind::ALL {
            let (report, _) =
                simulate_priced(&trace, &arch, &placement, &services, &config(policy), 2).unwrap();
            let flow = &report.aggregate;
            assert_eq!(flow.requests as usize, trace.requests.len());
            assert_eq!(flow.served + flow.dropped, flow.requests, "{policy}");
            // The benchmark's overload bar, on the policy that never sheds.
            if policy == PolicyKind::Fifo {
                assert_eq!(flow.dropped, 0, "fifo never drops");
                let deepest = report.partitions.iter().map(|p| p.max_queue_depth).max();
                assert!(deepest > Some(5_000), "deepest fifo queue {deepest:?}");
            }
        }
    }

    /// A 200 k-request single-partition `edf` replay whose deadlines fall
    /// as arrivals rise: every request's key is below every queued one,
    /// so each opens its own run and the queue holds close to 200 k runs.
    /// Run selection that scanned the runs would go quadratic here, and
    /// show up as a test that does not finish.
    #[test]
    fn one_run_per_request_replay_stays_linearithmic() {
        const REQUESTS: u64 = 200_000;
        let spec = TraceSpec {
            name: "falling".into(),
            kind: GeneratorKind::Poisson,
            seed: 0,
            horizon: 10 * REQUESTS,
            mean_gap: 10.0,
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
        let requests: Vec<TraceEvent> = (0..REQUESTS)
            .map(|id| TraceEvent {
                id,
                tenant: 0,
                arrival: 10 * id,
                priority: 0,
                deadline: Some(100 * REQUESTS * 1_000 - id),
            })
            .collect();
        let mut queue = RunQueue::new(requests.len());
        for (k, r) in requests.iter().enumerate() {
            queue.push(k as u32, PolicyKind::Edf.key(r));
        }
        assert_eq!(
            queue.runs.len(),
            requests.len(),
            "every request opens a run"
        );

        let trace = Trace {
            schema_version: Trace::VERSION,
            spec,
            requests,
        };
        let arch = presets::isaac_baseline();
        let placement = Placement::balanced(&arch, &trace.spec).unwrap();
        let services = fixed_services(1);
        let (report, outcomes) = simulate_priced(
            &trace,
            &arch,
            &placement,
            &services,
            &config(PolicyKind::Edf),
            1,
        )
        .unwrap();
        let flow = &report.aggregate;
        assert_eq!(flow.requests, REQUESTS);
        assert_eq!(flow.served, REQUESTS, "every deadline is far off");
        assert!(report.partitions[0].max_queue_depth > 150_000);
        // The first request boards alone at once; after it, the newest
        // queued request has the earliest deadline and boards first.
        assert!(outcomes[1].dispatched > outcomes[REQUESTS as usize - 1].dispatched);
    }
}
