//! Versioned, machine-readable load-test reports for `cimc serve`.
//!
//! A [`LoadtestReport`] is the JSON artifact `cimc loadtest --out`
//! emits after replaying a scripted request mix against a running
//! server: outcome counts (ok / error / overloaded / deadline-exceeded /
//! protocol errors), end-to-end latency percentiles, throughput,
//! warm-cache hit rates, and a per-request-key table ranked by median
//! latency — the cbp-experiments style of reporting, adapted to compile
//! service traffic.
//!
//! The driver that produces the samples lives in the facade
//! (`cim_mlc::loadtest`); this module owns the layout, versioned next to
//! [`crate::report`]'s through the one envelope in [`crate::doc`].
//!
//! # Version history
//!
//! * **1** — initial layout.

use crate::doc::Document;
use crate::stats::LatencySummary;
use serde::{Deserialize, Serialize};

/// How one replayed request concluded, as classified by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SampleClass {
    /// The server returned the request's success outcome.
    Ok,
    /// The server returned a structured error response.
    Error,
    /// The server rejected the request at admission (queue full).
    Overloaded,
    /// The request's deadline elapsed before (or while) it ran.
    DeadlineExceeded,
    /// The response could not be parsed, carried the wrong id, or the
    /// connection failed mid-request — a protocol violation, never
    /// acceptable in a healthy run.
    Protocol,
}

/// One replayed request's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSample {
    /// Stable grouping key for the scripted request (e.g.
    /// `compile lenet5@isaac`).
    pub key: String,
    /// How the request concluded.
    pub class: SampleClass,
    /// End-to-end latency observed by the client, in milliseconds.
    pub latency_ms: f64,
    /// For cache-eligible successes: whether every cacheable pass was
    /// served from the shared cache (`Some(true)` = fully warm).
    /// `None` when the request type carries no cache evidence.
    pub warm: Option<bool>,
}

/// Aggregated latency row for one request key, ranked into
/// [`LoadtestReport::entries`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadtestEntry {
    /// The request grouping key.
    pub key: String,
    /// Requests replayed under this key.
    pub count: usize,
    /// Successful responses under this key.
    pub ok: usize,
    /// Median end-to-end latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency, ms.
    pub p99_ms: f64,
    /// Worst end-to-end latency, ms.
    pub max_ms: f64,
    /// Mean end-to-end latency, ms.
    pub mean_ms: f64,
}

/// The schema-versioned load-test report document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadtestReport {
    /// Layout version ([`Document::VERSION`] when written by this
    /// toolchain).
    pub schema_version: u32,
    /// The toolchain that produced the report.
    pub toolchain: String,
    /// Requests replayed.
    pub requests: usize,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Wall-clock duration of the whole replay, ms.
    pub total_ms: f64,
    /// Completed requests per second over the whole replay.
    pub throughput_rps: f64,
    /// Successful responses.
    pub ok: usize,
    /// Structured error responses.
    pub errors: usize,
    /// Admission-control rejections.
    pub overloaded: usize,
    /// Deadline-exceeded responses.
    pub deadline_exceeded: usize,
    /// Protocol violations (unparseable/mismatched responses).
    pub protocol_errors: usize,
    /// Successes that carried cache evidence.
    pub warm_eligible: usize,
    /// Of those, how many ran fully warm (every cacheable pass hit).
    pub warm_hits: usize,
    /// `warm_hits / warm_eligible` (0 when nothing was eligible).
    pub warm_hit_rate: f64,
    /// Median latency across all samples, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency across all samples, ms.
    pub p99_ms: f64,
    /// Worst latency across all samples, ms.
    pub max_ms: f64,
    /// Per-key rows, ranked by median latency (fastest first).
    pub entries: Vec<LoadtestEntry>,
}

impl LoadtestReport {
    /// Aggregates raw driver samples into a report, stamping the schema
    /// version and toolchain. `total_ms` is the replay's wall clock.
    #[must_use]
    pub fn from_samples(samples: &[LoadSample], concurrency: usize, total_ms: f64) -> Self {
        let all_ms: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let all = LatencySummary::of(&all_ms);

        let count_class = |class: SampleClass| samples.iter().filter(|s| s.class == class).count();
        let ok = count_class(SampleClass::Ok);
        let warm_eligible = samples.iter().filter(|s| s.warm.is_some()).count();
        let warm_hits = samples.iter().filter(|s| s.warm == Some(true)).count();

        // Group by key in first-seen order, then rank by median latency.
        let mut keys: Vec<&str> = Vec::new();
        for s in samples {
            if !keys.contains(&s.key.as_str()) {
                keys.push(&s.key);
            }
        }
        let mut entries: Vec<LoadtestEntry> = keys
            .into_iter()
            .map(|key| {
                let ms: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.key == key)
                    .map(|s| s.latency_ms)
                    .collect();
                let summary = LatencySummary::of(&ms);
                LoadtestEntry {
                    key: key.to_owned(),
                    count: ms.len(),
                    ok: samples
                        .iter()
                        .filter(|s| s.key == key && s.class == SampleClass::Ok)
                        .count(),
                    p50_ms: summary.p50,
                    p99_ms: summary.p99,
                    max_ms: summary.max,
                    mean_ms: summary.mean,
                }
            })
            .collect();
        entries.sort_by(|a, b| a.p50_ms.total_cmp(&b.p50_ms));

        LoadtestReport {
            schema_version: Self::VERSION,
            toolchain: concat!("cim-bench ", env!("CARGO_PKG_VERSION")).to_owned(),
            requests: samples.len(),
            concurrency,
            total_ms,
            throughput_rps: if total_ms > 0.0 {
                samples.len() as f64 / (total_ms / 1000.0)
            } else {
                0.0
            },
            ok,
            errors: count_class(SampleClass::Error),
            overloaded: count_class(SampleClass::Overloaded),
            deadline_exceeded: count_class(SampleClass::DeadlineExceeded),
            protocol_errors: count_class(SampleClass::Protocol),
            warm_eligible,
            warm_hits,
            warm_hit_rate: if warm_eligible > 0 {
                warm_hits as f64 / warm_eligible as f64
            } else {
                0.0
            },
            p50_ms: all.p50,
            p99_ms: all.p99,
            max_ms: all.max,
            entries,
        }
    }

    /// Renders the report as the aligned text summary `cimc loadtest`
    /// prints: totals, outcome counts, warm-cache rate, overall latency
    /// percentiles and the ranked per-key table.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadtest: {} request(s) at concurrency {} in {:.0} ms ({:.1} req/s)",
            self.requests, self.concurrency, self.total_ms, self.throughput_rps
        );
        let _ = writeln!(
            out,
            "outcomes: {} ok, {} error(s), {} overloaded, {} deadline-exceeded, \
             {} protocol error(s)",
            self.ok, self.errors, self.overloaded, self.deadline_exceeded, self.protocol_errors
        );
        let _ = writeln!(
            out,
            "warm: {}/{} cache-eligible request(s) fully warm ({:.1}%)",
            self.warm_hits,
            self.warm_eligible,
            self.warm_hit_rate * 100.0
        );
        let _ = writeln!(
            out,
            "latency: p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
            self.p50_ms, self.p99_ms, self.max_ms
        );
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>6} {:>9} {:>9} {:>9}",
            "key", "count", "ok", "p50(ms)", "p99(ms)", "max(ms)"
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:<28} {:>6} {:>6} {:>9.2} {:>9.2} {:>9.2}",
                e.key, e.count, e.ok, e.p50_ms, e.p99_ms, e.max_ms
            );
        }
        out
    }
}

impl Document for LoadtestReport {
    const KIND: &'static str = "load-test report";
    const VERSION: u32 = 1;
    const MIN_VERSION: u32 = 1;

    fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// Every wall-clock latency and rate; the counts stay.
    fn strip_volatile(&mut self) {
        self.total_ms = 0.0;
        self.throughput_rps = 0.0;
        self.p50_ms = 0.0;
        self.p99_ms = 0.0;
        self.max_ms = 0.0;
        for e in &mut self.entries {
            e.p50_ms = 0.0;
            e.p99_ms = 0.0;
            e.max_ms = 0.0;
            e.mean_ms = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(key: &str, class: SampleClass, latency_ms: f64, warm: Option<bool>) -> LoadSample {
        LoadSample {
            key: key.to_owned(),
            class,
            latency_ms,
            warm,
        }
    }

    #[test]
    fn aggregation_counts_classes_and_ranks_keys_by_median() {
        let samples = vec![
            sample("slow", SampleClass::Ok, 20.0, Some(true)),
            sample("slow", SampleClass::Ok, 30.0, Some(false)),
            sample("fast", SampleClass::Ok, 1.0, Some(true)),
            sample("fast", SampleClass::Ok, 2.0, Some(true)),
            sample("fast", SampleClass::Overloaded, 0.5, None),
            sample("slow", SampleClass::DeadlineExceeded, 5.0, None),
            sample("slow", SampleClass::Error, 4.0, None),
            sample("slow", SampleClass::Protocol, 3.0, None),
        ];
        let report = LoadtestReport::from_samples(&samples, 4, 2000.0);
        assert_eq!(report.requests, 8);
        assert_eq!(
            (
                report.ok,
                report.errors,
                report.overloaded,
                report.deadline_exceeded,
                report.protocol_errors
            ),
            (4, 1, 1, 1, 1)
        );
        assert_eq!((report.warm_eligible, report.warm_hits), (4, 3));
        assert!((report.warm_hit_rate - 0.75).abs() < 1e-12);
        assert!((report.throughput_rps - 4.0).abs() < 1e-12);
        // Ranked fastest-median first.
        assert_eq!(report.entries[0].key, "fast");
        assert_eq!(report.entries[1].key, "slow");
        assert_eq!(report.entries[0].count, 3);
        assert_eq!(report.entries[0].ok, 2);
        assert_eq!(report.entries[1].max_ms, 30.0);
    }

    #[test]
    fn render_mentions_every_headline_number() {
        let samples = vec![
            sample("compile lenet5@isaac", SampleClass::Ok, 3.0, Some(true)),
            sample("compile lenet5@isaac", SampleClass::Overloaded, 0.5, None),
        ];
        let text = LoadtestReport::from_samples(&samples, 2, 50.0).render();
        assert!(text.contains("2 request(s) at concurrency 2"), "{text}");
        assert!(text.contains("1 ok"), "{text}");
        assert!(text.contains("1 overloaded"), "{text}");
        assert!(text.contains("0 protocol error(s)"), "{text}");
        assert!(text.contains("1/1 cache-eligible"), "{text}");
        assert!(text.contains("compile lenet5@isaac"), "{text}");
    }
}
