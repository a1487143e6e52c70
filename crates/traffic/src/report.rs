//! The schema-versioned traffic report: per-tenant and aggregate tail
//! latency, throughput, drops/misses, queue depths and partition
//! utilization. A [`TrafficReport`] is a [`Document`]: its version
//! window, JSON in/out and the timing-stripped
//! [`Document::comparable`] view CI compares byte-for-byte come from
//! [`cim_obs::doc`].
//!
//! # Version history
//!
//! * **1** — initial layout.

use cim_obs::{Document, LatencySummary, RunTiming};
use serde::{Deserialize, Serialize};

/// Request-outcome counters and latency summary for one request flow
/// (a tenant, or the whole run). Latencies are in cycles, over *served*
/// requests only; dropped requests appear in `dropped`, not in the
/// percentiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Requests that arrived.
    pub requests: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests dropped unserved (deadline already missed at dispatch,
    /// under a drop-on-miss policy).
    pub dropped: u64,
    /// Served requests that finished after their deadline.
    pub missed: u64,
    /// End-to-end latency summary of the served requests, in cycles.
    pub latency: LatencySummary,
    /// Served requests per million cycles of makespan.
    pub throughput: f64,
}

/// One tenant's slice of the outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant name (from the trace spec).
    pub tenant: String,
    /// Model the tenant runs.
    pub model: String,
    /// The tenant's request-flow outcome.
    pub flow: FlowStats,
}

/// One partition's occupancy outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionStats {
    /// Model resident in the partition.
    pub model: String,
    /// Cores the partition owns.
    pub cores: u32,
    /// Crossbars the partition owns (`cores × xb_count`).
    pub crossbars: u64,
    /// Busy fraction: service cycles over the partition's makespan.
    pub utilization: f64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean requests per batch (0 when no batch ran).
    pub mean_batch: f64,
    /// Requests served by the partition.
    pub served: u64,
    /// Deepest the partition's queue ever got.
    pub max_queue_depth: usize,
}

/// The machine-readable artifact of one `(trace, arch, placement,
/// policy)` simulation — what `cimc simulate --out` emits (one element
/// per policy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficReport {
    /// Document layout version ([`Document::VERSION`] when written).
    pub schema_version: u32,
    /// The toolchain that produced the report.
    pub toolchain: String,
    /// Trace name (from the spec).
    pub trace: String,
    /// Trace generator kind.
    pub generator: String,
    /// Trace seed.
    pub seed: u64,
    /// Trace horizon in cycles.
    pub horizon: u64,
    /// Makespan in cycles: the horizon, or the last service completion
    /// if the tail drained later.
    pub makespan: u64,
    /// Architecture the chip was carved from.
    pub arch: String,
    /// Scheduling policy name.
    pub policy: String,
    /// Batch-size limit the policy honored.
    pub max_batch: usize,
    /// Head-of-line wait limit in cycles.
    pub max_wait: u64,
    /// Per-tenant outcomes, in trace-spec tenant order.
    pub tenants: Vec<TenantStats>,
    /// Per-partition occupancy, in placement order.
    pub partitions: Vec<PartitionStats>,
    /// Whole-run outcome.
    pub aggregate: FlowStats,
    /// Wall-clock section (excluded from comparison).
    pub timing: RunTiming,
}

impl Document for TrafficReport {
    const KIND: &'static str = "traffic report";
    const VERSION: u32 = 1;
    const MIN_VERSION: u32 = 1;

    fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// The wall clock and thread count. Everything else is integer-cycle
    /// simulation, identical at any `--jobs` setting and cache state.
    fn strip_volatile(&mut self) {
        self.timing = RunTiming::default();
    }
}

impl TrafficReport {
    /// Renders a human-readable summary: headline aggregate numbers,
    /// the per-tenant table and the per-partition occupancy table.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simulation: trace `{}` ({}) on {} under `{}` \
             (max batch {}, max wait {})",
            self.trace, self.generator, self.arch, self.policy, self.max_batch, self.max_wait
        );
        let a = &self.aggregate;
        let _ = writeln!(
            out,
            "aggregate: {} request(s), {} served, {} dropped, {} missed; \
             p50 {:.0} p99 {:.0} max {:.0} cycles; {:.3} served/Mcycle",
            a.requests,
            a.served,
            a.dropped,
            a.missed,
            a.latency.p50,
            a.latency.p99,
            a.latency.max,
            a.throughput
        );
        let _ = writeln!(
            out,
            "{:<16} {:<12} {:>8} {:>8} {:>8} {:>8} {:>10} {:>10}",
            "tenant", "model", "requests", "served", "dropped", "missed", "p50(cyc)", "p99(cyc)"
        );
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "{:<16} {:<12} {:>8} {:>8} {:>8} {:>8} {:>10.0} {:>10.0}",
                t.tenant,
                t.model,
                t.flow.requests,
                t.flow.served,
                t.flow.dropped,
                t.flow.missed,
                t.flow.latency.p50,
                t.flow.latency.p99
            );
        }
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>10} {:>12} {:>8} {:>10} {:>10}",
            "partition", "cores", "crossbars", "utilization", "batches", "mean batch", "max queue"
        );
        for p in &self.partitions {
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>10} {:>11.1}% {:>8} {:>10.2} {:>10}",
                p.model,
                p.cores,
                p.crossbars,
                p.utilization * 100.0,
                p.batches,
                p.mean_batch,
                p.max_queue_depth
            );
        }
        out
    }

    /// Renders the ranked policy-comparison table for several reports
    /// of the same trace: sorted by aggregate p99 (ascending, ties by
    /// policy name), best first.
    #[must_use]
    pub fn render_ranked(reports: &[TrafficReport]) -> String {
        use std::fmt::Write as _;
        let mut order: Vec<usize> = (0..reports.len()).collect();
        order.sort_by(|&a, &b| {
            reports[a]
                .aggregate
                .latency
                .p99
                .total_cmp(&reports[b].aggregate.latency.p99)
                .then_with(|| reports[a].policy.cmp(&reports[b].policy))
        });
        let mut out = String::new();
        if let Some(first) = reports.first() {
            let _ = writeln!(
                out,
                "ranked policies on trace `{}` @ {} ({} tenant(s), {} request(s)):",
                first.trace,
                first.arch,
                first.tenants.len(),
                first.aggregate.requests
            );
        }
        let _ = writeln!(
            out,
            "{:>4} {:<10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>12}",
            "rank",
            "policy",
            "p50(cyc)",
            "p99(cyc)",
            "max(cyc)",
            "served",
            "dropped",
            "missed",
            "served/Mcyc"
        );
        for (rank, &i) in order.iter().enumerate() {
            let r = &reports[i];
            let a = &r.aggregate;
            let _ = writeln!(
                out,
                "{:>4} {:<10} {:>10.0} {:>10.0} {:>10.0} {:>8} {:>8} {:>8} {:>12.3}",
                rank + 1,
                r.policy,
                a.latency.p50,
                a.latency.p99,
                a.latency.max,
                a.served,
                a.dropped,
                a.missed,
                a.throughput
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(p99: f64) -> FlowStats {
        FlowStats {
            requests: 10,
            served: 9,
            dropped: 1,
            missed: 2,
            latency: LatencySummary {
                count: 9,
                p50: p99 / 2.0,
                p99,
                max: p99 * 1.5,
                mean: p99 / 2.0,
            },
            throughput: 1.25,
        }
    }

    fn report(policy: &str, p99: f64) -> TrafficReport {
        TrafficReport {
            schema_version: TrafficReport::VERSION,
            toolchain: "test".into(),
            trace: "t".into(),
            generator: "poisson".into(),
            seed: 42,
            horizon: 1_000_000,
            makespan: 1_000_000,
            arch: "isaac".into(),
            policy: policy.into(),
            max_batch: 8,
            max_wait: 0,
            tenants: vec![TenantStats {
                tenant: "a".into(),
                model: "lenet5".into(),
                flow: flow(p99),
            }],
            partitions: vec![PartitionStats {
                model: "lenet5".into(),
                cores: 4,
                crossbars: 384,
                utilization: 0.5,
                batches: 3,
                mean_batch: 3.0,
                served: 9,
                max_queue_depth: 5,
            }],
            aggregate: flow(p99),
            timing: RunTiming {
                total_ms: 12.5,
                threads: 4,
            },
        }
    }

    #[test]
    fn ranked_table_orders_by_p99() {
        let reports = vec![
            report("fifo", 900.0),
            report("edf", 100.0),
            report("priority", 500.0),
        ];
        let table = TrafficReport::render_ranked(&reports);
        let edf = table.find("edf").unwrap();
        let prio = table.find("priority").unwrap();
        let fifo = table.find("fifo").unwrap();
        assert!(edf < prio && prio < fifo, "{table}");
        assert!(table.contains("rank"), "{table}");
    }

    #[test]
    fn render_mentions_headline_numbers() {
        let text = report("fifo", 100.0).render();
        assert!(text.contains("trace `t`"), "{text}");
        assert!(text.contains("9 served"), "{text}");
        assert!(text.contains("lenet5"), "{text}");
        assert!(text.contains("partition"), "{text}");
    }
}
