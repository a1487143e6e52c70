//! `cim-obs` — unified tracing, metrics, and profiling for the CIM-MLC
//! stack.
//!
//! One observability layer shared by the staged compiler, the serve
//! loop, the benchmark harness, the traffic simulator, and the DSE
//! engine:
//!
//! * **Spans** — [`span()`] opens an RAII [`SpanGuard`] that records a
//!   begin/end event pair into a per-thread buffer; [`complete_span`]
//!   records a pre-measured interval (e.g. a queue wait stamped across
//!   threads). Buffers drain into the global [`Collector`].
//! * **Clock** — [`TraceClock`] is the single monotonic epoch every
//!   timestamp in the process shares; [`stopwatch`] replaces the
//!   ad-hoc `Instant`-based timing the subsystems used to duplicate.
//! * **Metrics** — [`metrics()`] returns the global [`MetricsRegistry`]
//!   of counters, gauges, and log-linear histograms, snapshotted into
//!   a schema-versioned serde [`MetricsSnapshot`] (scraped over the
//!   wire by `Request::Metrics`).
//! * **Exporters** — [`chrome_trace_json`] (loads in Perfetto /
//!   `chrome://tracing`), [`profile_tree`] (inclusive/exclusive wall
//!   time), [`metrics_text`] (grep-friendly lines), and
//!   [`validate_chrome_trace`] (schema self-check).
//! * **Documents** — [`doc`] is the one versioned JSON envelope
//!   ([`Document`]) of every report and trace file; [`stats`] holds the
//!   one nearest-rank quantile and the [`LatencySummary`] reports quote.
//!
//! # The disabled-cost contract
//!
//! Tracing and metrics are **off by default** and every recording
//! entry point ([`span()`], [`complete_span`], the gated
//! [`MetricsRegistry`] methods) first performs exactly **one relaxed
//! atomic load** and returns if its gate is off — no allocation, no
//! clock read, no lock. Instrumented hot paths therefore cost one
//! predicted branch when observability is not in use. The enabled path
//! is budgeted too: `crates/core/tests/alloc_budget.rs` caps the span
//! events and the allocations the collector adds to three reference
//! compiles, so it stays cheap enough for production serving.
//!
//! The other hard invariant: observability never changes results. The
//! `comparable()` views of every report (compile doc, bench, traffic,
//! DSE) are byte-identical with tracing on vs. off — pinned by
//! proptests in the facade crate and the `obs-smoke` CI job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod collector;
pub mod doc;
mod export;
mod metrics;
mod span;
pub mod stats;

pub use clock::{Stopwatch, TraceClock};
pub use collector::{collector, Collector, Trace};
pub use doc::{DocError, Document, RunTiming};
pub use export::{
    chrome_trace_json, metrics_text, profile_tree, validate_chrome_trace, ChromeTraceSummary,
};
pub use metrics::{
    bucket_floor, bucket_index, metrics, BucketSnapshot, Counter, CounterSnapshot, Gauge,
    GaugeSnapshot, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    METRICS_SCHEMA_VERSION,
};
pub use span::{complete_span, keys, span, ArgValue, Key, Phase, SpanGuard, TraceEvent};
pub use stats::{percentile, LatencySummary};

/// Enables span recording *and* gated metrics recording — the whole
/// layer on, as `cimc --trace-out/--profile` and `CIM_OBS=1` do.
pub fn enable() {
    collector().enable();
    metrics().enable();
}

/// Disables span and gated metrics recording (buffered events and
/// accumulated metric values are kept).
pub fn disable() {
    collector().disable();
    metrics().disable();
}

/// Whether span recording is on (one relaxed atomic load).
#[must_use]
pub fn enabled() -> bool {
    collector().is_enabled()
}

/// Drains every thread's buffered events; see [`Collector::drain`].
#[must_use]
pub fn drain() -> Trace {
    collector().drain()
}

/// A stopwatch on the global [`TraceClock`] — the shared replacement
/// for the per-crate `Instant::now()` timing patterns.
#[must_use]
pub fn stopwatch() -> Stopwatch<'static> {
    TraceClock::global().stopwatch()
}

/// Adds `n` to the global counter `name`; a no-op (one relaxed load)
/// unless metrics are enabled.
pub fn count(name: &'static str, n: u64) {
    metrics().count(name, n);
}

/// Sets the global gauge `name`; a no-op (one relaxed load) unless
/// metrics are enabled.
pub fn gauge_set(name: &'static str, v: i64) {
    metrics().gauge_set(name, v);
}

/// Records `us` into the global histogram `name`; a no-op (one relaxed
/// load) unless metrics are enabled.
pub fn observe_us(name: &'static str, us: u64) {
    metrics().observe_us(name, us);
}
