//! Response rendering: turns [`ResponseBody`](super::ResponseBody)
//! payloads back into the exact text (and exit code) the pre-API `cimc`
//! printed, so the CLI shims stay byte-compatible.

use std::fmt::Write as _;

use cim_bench::BenchReport;
use cim_compiler::{CacheStats, CompileMetrics, PassTimeline, PerfReport};
use cim_dse::DseReport;
use cim_traffic::TrafficReport;
use serde::Serialize;

use super::{ApiError, CompileOutcome, ErrorKind, RecompileOutcome};

/// Version of the `cimc compile --json` document layout.
///
/// History: **4** added the top-level `region_hits`/`region_misses`
/// summary and the per-record `region_hits`/`region_misses` columns
/// inside `timeline` (per-region reuse counters of incremental
/// recompilation; zero on cold compiles); **3** added the per-record
/// `scratch_peak_bytes` column inside `timeline` (per pass and scratch
/// element kind, the bytes of the longest buffer one lease returned,
/// summed over kinds); **2** added `cache_stats` and the
/// per-record `cache` column inside `timeline` (mirroring the bench
/// report's v2 bump); **1** was the initial layout.
pub const COMPILE_DOC_VERSION: u32 = 4;

/// The machine-readable document `cimc compile --json` emits (analogous
/// to `cimc bench --out`'s report).
#[derive(Serialize)]
struct CompileDoc {
    schema_version: u32,
    model: String,
    arch: String,
    mode: String,
    level: String,
    reports: Vec<PerfReport>,
    metrics: CompileMetrics,
    timeline: PassTimeline,
    cache_stats: Option<CacheStats>,
    verified: Option<bool>,
    region_hits: u64,
    region_misses: u64,
}

impl CompileDoc {
    fn of(outcome: &CompileOutcome) -> CompileDoc {
        let (region_hits, region_misses) = outcome.timeline.region_stats();
        CompileDoc {
            schema_version: COMPILE_DOC_VERSION,
            model: outcome.model.clone(),
            arch: outcome.arch.clone(),
            mode: outcome.mode.clone(),
            level: outcome.level.clone(),
            reports: outcome.reports.clone(),
            metrics: outcome.metrics.clone(),
            timeline: outcome.timeline.clone(),
            cache_stats: outcome.cache_stats,
            verified: outcome.verified,
            region_hits,
            region_misses,
        }
    }
}

/// The machine-readable document `cimc recompile --json` emits: the
/// incrementality evidence plus the incremental compile's full
/// document.
#[derive(Serialize)]
struct RecompileDoc {
    schema_version: u32,
    cold_ms: Option<f64>,
    incremental_ms: f64,
    region_hits: u64,
    region_misses: u64,
    equivalent: Option<bool>,
    incremental: CompileDoc,
}

/// The deterministic subset of a compile outcome that
/// `cimc recompile --out-incremental`/`--out-fresh` write: no
/// wall-clock, no counters — two equivalent compiles produce
/// byte-identical files, so CI can `cmp` them directly.
#[derive(Serialize)]
struct ComparableDoc {
    schema_version: u32,
    model: String,
    arch: String,
    mode: String,
    level: String,
    reports: Vec<PerfReport>,
    metrics: CompileMetrics,
    schedule: Option<String>,
}

/// Renders the byte-comparable document of a compile outcome: the
/// schedule-bearing, timing-free subset used to check incremental/fresh
/// equivalence at the file level.
#[must_use]
#[allow(clippy::missing_panics_doc)] // infallible serialization
pub fn render_comparable(outcome: &CompileOutcome) -> String {
    let doc = ComparableDoc {
        schema_version: COMPILE_DOC_VERSION,
        model: outcome.model.clone(),
        arch: outcome.arch.clone(),
        mode: outcome.mode.clone(),
        level: outcome.level.clone(),
        reports: outcome.reports.clone(),
        metrics: outcome.metrics.clone(),
        schedule: outcome.schedule.clone(),
    };
    let mut doc = serde_json::to_string_pretty(&doc).expect("compile reports always serialize");
    doc.push('\n');
    doc
}

/// What a CLI shim prints and how it exits. `code` 2 means "argument
/// error": the binary appends usage to stderr after `stderr`.
#[derive(Debug, Clone, Default)]
pub struct Rendered {
    /// Text for stdout (already newline-terminated).
    pub stdout: String,
    /// Text for stderr (already newline-terminated).
    pub stderr: String,
    /// Process exit code: 0 success, 1 failure, 2 argument error.
    pub code: u8,
}

/// Renders a failed request the way the old CLI did: message on stderr,
/// exit 2 for argument errors (the binary appends usage), 1 otherwise.
#[must_use]
pub fn render_error(error: &ApiError) -> Rendered {
    Rendered {
        stdout: String::new(),
        stderr: format!("{}\n", error.message),
        code: match error.kind {
            ErrorKind::Argument => 2,
            _ => 1,
        },
    }
}

/// Renders a compile outcome exactly as `cimc compile` printed it:
/// dumps (in pass order), per-level report lines, `--timings`, the
/// schedule, the flow head, the verification verdict, and the `--json`
/// document.
#[must_use]
#[allow(clippy::missing_panics_doc)] // infallible String writes
pub fn render_compile(outcome: &CompileOutcome, json: bool, timings: bool) -> Rendered {
    let mut out = String::new();
    let mut err = String::new();
    let mut code = 0u8;
    for dump in &outcome.dumps {
        let _ = writeln!(out, "{dump}");
    }
    if !json {
        for report in &outcome.reports {
            let _ = writeln!(
                out,
                "level {:<12} latency {:>14.0} cycles   peak power {:>10.1}   energy {:>14.1}   segments {}",
                report.level,
                report.latency_cycles,
                report.peak_power,
                report.energy.total(),
                report.segments
            );
        }
        if timings {
            let _ = writeln!(out, "\n{}", outcome.timeline.render());
            if let Some(stats) = &outcome.cache_stats {
                let _ = writeln!(out, "cache: {}", stats.render());
            }
            let (region_hits, region_misses) = outcome.timeline.region_stats();
            if region_hits + region_misses > 0 {
                let _ = writeln!(
                    out,
                    "regions: {region_hits} hit(s), {region_misses} miss(es)"
                );
            }
        }
    }
    if let Some(schedule) = &outcome.schedule {
        let _ = writeln!(out, "\n{schedule}");
    }
    if let Some(stats) = &outcome.flow_stats {
        out.push('\n');
        for line in &outcome.flow_head {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "... ({} meta-operators: {} cim reads, {} cim writes, {} dcom, {} mov)",
            stats.total, stats.cim_reads, stats.cim_writes, stats.dcom, stats.mov
        );
    }
    match outcome.verified {
        Some(true) if !json => {
            let _ = writeln!(
                out,
                "\nfunctional verification: PASS (flow == reference, {} outputs)",
                outcome.verified_outputs
            );
        }
        Some(false) => {
            err.push_str("\nfunctional verification: FAIL\n");
            code = 1;
        }
        _ => {}
    }
    if json {
        let mut doc = serde_json::to_string_pretty(&CompileDoc::of(outcome))
            .expect("compile reports always serialize");
        doc.push('\n');
        out.push_str(&doc);
    }
    Rendered {
        stdout: out,
        stderr: err,
        code,
    }
}

/// Renders a recompile outcome: the incremental compile's report lines,
/// `--timings`, and the one-line incrementality summary (cold vs
/// incremental wall clock, per-region reuse counters, equivalence
/// verdict). A one-shot recompile whose incremental result *differs*
/// from the fresh compile exits 1 — that is the regression the request
/// exists to catch.
#[must_use]
#[allow(clippy::missing_panics_doc)] // infallible String writes
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // ms → integer display
pub fn render_recompile(outcome: &RecompileOutcome, json: bool, timings: bool) -> Rendered {
    let mut out = String::new();
    let mut err = String::new();
    let mut code = 0u8;
    let inc = &outcome.incremental;
    if !json {
        for report in &inc.reports {
            let _ = writeln!(
                out,
                "level {:<12} latency {:>14.0} cycles   peak power {:>10.1}   energy {:>14.1}   segments {}",
                report.level,
                report.latency_cycles,
                report.peak_power,
                report.energy.total(),
                report.segments
            );
        }
        if timings {
            let _ = writeln!(out, "\n{}", inc.timeline.render());
        }
        let hits = outcome.region_hits;
        let misses = outcome.region_misses;
        // Three decimals: a one-layer edit of a zoo model recompiles in
        // well under a millisecond, which whole milliseconds print as 0.
        let inc_ms = outcome.incremental_ms;
        match outcome.cold_ms {
            Some(cold_ms) => {
                let pct = if cold_ms > 0.0 {
                    (outcome.incremental_ms / cold_ms * 100.0).round() as u64
                } else {
                    100
                };
                let verdict = match outcome.equivalent {
                    Some(true) => "yes",
                    Some(false) => "NO",
                    None => "unchecked",
                };
                let _ = writeln!(
                    out,
                    "recompile: cold {cold_ms:.3} ms, incremental {inc_ms:.3} ms ({pct}% of cold), \
                     regions {hits} hit(s) / {misses} miss(es), equivalent: {verdict}"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "recompile: incremental {inc_ms:.3} ms, regions {hits} hit(s) / {misses} \
                     miss(es)"
                );
            }
        }
    }
    if outcome.equivalent == Some(false) {
        err.push_str("recompile: incremental result differs from a fresh compile\n");
        code = 1;
    }
    if json {
        let doc = RecompileDoc {
            schema_version: COMPILE_DOC_VERSION,
            cold_ms: outcome.cold_ms,
            incremental_ms: outcome.incremental_ms,
            region_hits: outcome.region_hits,
            region_misses: outcome.region_misses,
            equivalent: outcome.equivalent,
            incremental: CompileDoc::of(inc),
        };
        let mut doc = serde_json::to_string_pretty(&doc).expect("compile reports always serialize");
        doc.push('\n');
        out.push_str(&doc);
    }
    Rendered {
        stdout: out,
        stderr: err,
        code,
    }
}

/// Renders a bench report's result table, failure lines, sweep summary
/// and cache line — the fixed stdout block of
/// `cimc bench` (the `--out`/`--baseline` tail stays in the shim, which
/// owns file IO).
#[must_use]
pub fn render_bench(report: &BenchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:<11} {:<11} {:>14} {:>14} {:>10} {:>6}",
        "model", "arch", "mode", "level", "latency(cyc)", "energy", "peak pwr", "util"
    );
    for job in &report.jobs {
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:<11} {:<11} {:>14.0} {:>14.1} {:>10.1} {:>6.3}",
            job.model,
            job.arch,
            job.mode,
            job.metrics.level,
            job.metrics.latency_cycles,
            job.metrics.energy_total,
            job.metrics.peak_power,
            job.metrics.utilization
        );
    }
    for failure in &report.failures {
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:<11} FAILED: {}",
            failure.model, failure.arch, failure.mode, failure.error
        );
    }
    let _ = writeln!(
        out,
        "sweep: {} job(s) ({} ok, {} failed) on {} thread(s) in {:.0} ms",
        report.jobs.len() + report.failures.len(),
        report.jobs.len(),
        report.failures.len(),
        report.timing.threads,
        report.timing.total_ms
    );
    if let Some(stats) = &report.cache_stats {
        let _ = writeln!(out, "cache: {}", stats.render());
    }
    out
}

/// Renders an exploration report's fixed stdout block: the Pareto-front
/// report, the timing summary and the cache line.
#[must_use]
pub fn render_explore(report: &DseReport) -> String {
    let mut out = report.render();
    let _ = writeln!(
        out,
        "explored on {} thread(s) in {:.0} ms",
        report.timing.threads, report.timing.total_ms
    );
    if let Some(stats) = &report.cache_stats {
        let _ = writeln!(out, "cache: {}", stats.render());
    }
    out
}

/// Renders a trace response: the human-readable description (the
/// generated trace itself goes to `--out`, which stays in the shim).
#[must_use]
pub fn render_trace(description: &str) -> String {
    description.to_owned()
}

/// Renders a simulate response: each policy's full report, then — when
/// more than one policy ran — the ranked comparison table.
#[must_use]
pub fn render_simulate(reports: &[TrafficReport]) -> String {
    let mut out = String::new();
    for (idx, report) in reports.iter().enumerate() {
        if idx > 0 {
            out.push('\n');
        }
        out.push_str(&report.render());
    }
    if reports.len() > 1 {
        out.push('\n');
        out.push_str(&TrafficReport::render_ranked(reports));
    }
    out
}

/// Renders a vocabulary listing, one value per line.
#[must_use]
pub fn render_list(names: &[String]) -> String {
    let mut out = String::new();
    for name in names {
        let _ = writeln!(out, "{name}");
    }
    out
}
