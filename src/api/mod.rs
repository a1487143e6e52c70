//! The typed request/response API behind `cimc` — one schema-versioned
//! [`Request`] variant per subcommand, a [`Handler`] that executes them,
//! and the JSON-lines wire format `cimc serve` speaks.
//!
//! Every `cimc` subcommand is a thin shim over this module: the CLI
//! parses flags into a [`Request`], hands it to a [`Handler`], and
//! renders the resulting [`ResponseBody`] (see [`render`]). The server
//! (`cim_mlc::serve`) speaks the exact same types over stdio or TCP, so
//! a request behaves identically whether it arrives as argv or as a
//! JSON line — provably the same code path.
//!
//! # Wire format
//!
//! One JSON object per line. A client sends a [`RequestEnvelope`]:
//!
//! ```json
//! {"protocol_version": 1, "id": 7, "deadline_ms": null,
//!  "request": {"compile": {"model": "lenet5", "arch": "isaac", ...}}}
//! ```
//!
//! and receives a [`Response`] with the same `id`, the server-side wall
//! clock, and an externally-tagged [`ResponseBody`]:
//!
//! ```json
//! {"protocol_version": 1, "id": 7, "elapsed_ms": 3.2,
//!  "body": {"compile": {...}}}
//! ```
//!
//! Each message is sent as **one** `write` of the whole line, newline
//! included ([`write_line`]), on a socket with `TCP_NODELAY` set: a line
//! split over two small writes is held back by Nagle's algorithm until
//! the peer's delayed ACK, 40 ms per leg. A request line may be at most
//! [`MAX_LINE_BYTES`] long.
//!
//! The protocol is versioned like the bench-report schema:
//! [`PROTOCOL_VERSION`] stamps outgoing messages, and envelopes outside
//! [`MIN_PROTOCOL_VERSION`]`..=`[`PROTOCOL_VERSION`] are rejected with a
//! structured [`ErrorKind::Protocol`] error instead of being misread.

pub mod args;
mod handler;
pub mod render;

pub use handler::Handler;

use cim_bench::BenchReport;
use cim_compiler::{CacheStats, CompileMetrics, OptLevel, PassTimeline, PerfReport};
use cim_dse::{DesignSpace, DseReport};
use cim_graph::GraphDelta;
use cim_traffic::{Partition, Trace, TraceSpec, TrafficReport};
use serde::{Deserialize, Serialize};

/// Version of the wire protocol (requests *and* responses). Bump on any
/// backwards-incompatible change to the types in this module.
///
/// Purely *additive* changes — a new [`Request`]/[`ResponseBody`]
/// variant, a new `#[serde(default)]` field — do **not** bump the
/// version: old clients never produce the new shapes, and old servers
/// answer them with a parse-level [`ErrorKind::Protocol`] error rather
/// than misreading them.
///
/// # History
///
/// * **1** — initial protocol. Later extended in place (additively) with
///   [`Request::Recompile`] / [`ResponseBody::Recompiled`] and the
///   `session` pinning field on [`CompileRequest`].
pub const PROTOCOL_VERSION: u32 = 1;

/// Oldest protocol version this toolchain still accepts.
pub const MIN_PROTOCOL_VERSION: u32 = 1;

/// Longest request line (newline excluded) a server reads. A robustness
/// bound: lines are buffered and parsed on the connection's reader
/// thread, so the cap limits what one client can make the server hold.
/// A longer line is discarded and answered with an
/// [`ErrorKind::Protocol`] error.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Sends one wire message: `json` plus its newline in a single
/// `write_all`, then a flush. Every writer of the protocol — server and
/// client — goes through here, so no line is ever split across writes
/// (see the module docs). Render `json` before taking a shared writer's
/// lock; only the copy to the socket needs it.
///
/// # Errors
/// Propagates the writer's failure.
pub fn write_line(out: &mut impl std::io::Write, mut json: String) -> std::io::Result<()> {
    json.push('\n');
    out.write_all(json.as_bytes())?;
    out.flush()
}

/// Classification of an [`ApiError`], deciding both the wire shape and
/// how the CLI exits: [`Argument`](ErrorKind::Argument) errors render
/// usage and exit 2, everything else exits 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ErrorKind {
    /// The request's parameters are invalid (bad flag value, unknown
    /// strategy, invalid sweep spec…). CLI: message + usage, exit 2.
    Argument,
    /// The request was well-formed but could not be executed: unknown
    /// model/preset, unreadable cache dir, compile or simulation
    /// failure. CLI: message, exit 1.
    Input,
    /// The envelope itself was unusable: unparseable JSON or an
    /// unsupported protocol version. Only servers emit this.
    Protocol,
    /// The server is draining and no longer admits work.
    Unavailable,
}

/// A structured error response, carrying the exact message the CLI
/// would have printed to stderr.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiError {
    /// What went wrong, at the granularity exit codes care about.
    pub kind: ErrorKind,
    /// Human-readable message (identical to the CLI's stderr line).
    pub message: String,
}

impl ApiError {
    /// An [`ErrorKind::Argument`] error.
    #[must_use]
    pub fn argument(message: impl Into<String>) -> Self {
        ApiError {
            kind: ErrorKind::Argument,
            message: message.into(),
        }
    }

    /// An [`ErrorKind::Input`] error.
    #[must_use]
    pub fn input(message: impl Into<String>) -> Self {
        ApiError {
            kind: ErrorKind::Input,
            message: message.into(),
        }
    }

    /// An [`ErrorKind::Protocol`] error.
    #[must_use]
    pub fn protocol(message: impl Into<String>) -> Self {
        ApiError {
            kind: ErrorKind::Protocol,
            message: message.into(),
        }
    }

    /// An [`ErrorKind::Unavailable`] error.
    #[must_use]
    pub fn unavailable(message: impl Into<String>) -> Self {
        ApiError {
            kind: ErrorKind::Unavailable,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ApiError {}

/// Which compile cache a request runs against.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CachePolicy {
    /// The handler's default: the server's shared process-wide cache
    /// when one exists, otherwise the subcommand's historical default
    /// (no cache for `compile`, a fresh in-memory cache for `bench` and
    /// `explore`).
    #[default]
    Default,
    /// No cache at all (`--no-cache`).
    Off,
    /// A [`DiskCache`](cim_compiler::DiskCache) rooted at `dir`
    /// (`--cache-dir`).
    Disk {
        /// The cache directory.
        dir: String,
    },
}

/// Computing-mode override (`--mode`), mirroring
/// [`ComputingMode`](cim_arch::ComputingMode) on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ModeArg {
    /// Whole-crossbar mode.
    Cm,
    /// Crossbar-slice mode.
    Xbm,
    /// Wordline mode.
    Wlm,
}

impl From<ModeArg> for cim_arch::ComputingMode {
    fn from(m: ModeArg) -> Self {
        match m {
            ModeArg::Cm => cim_arch::ComputingMode::Cm,
            ModeArg::Xbm => cim_arch::ComputingMode::Xbm,
            ModeArg::Wlm => cim_arch::ComputingMode::Wlm,
        }
    }
}

/// Optimization-level override (`--level`), mirroring
/// [`OptLevel`] on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum LevelArg {
    /// CG-grained scheduling only.
    Cg,
    /// CG + MVM-grained scheduling.
    Mvm,
    /// CG + MVM + VVM-grained scheduling.
    Vvm,
}

impl From<LevelArg> for cim_compiler::OptLevel {
    fn from(l: LevelArg) -> Self {
        match l {
            LevelArg::Cg => cim_compiler::OptLevel::Cg,
            LevelArg::Mvm => cim_compiler::OptLevel::CgMvm,
            LevelArg::Vvm => cim_compiler::OptLevel::CgMvmVvm,
        }
    }
}

/// Stage selector for `--dump-stage`, mirroring
/// [`StageKind`](cim_compiler::StageKind) on the wire (only the
/// dumpable stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StageArg {
    /// The CG-grained schedule.
    Cg,
    /// The MVM-grained refinement.
    Mvm,
    /// The VVM-grained refinement.
    Vvm,
}

impl From<StageArg> for cim_compiler::StageKind {
    fn from(s: StageArg) -> Self {
        match s {
            StageArg::Cg => cim_compiler::StageKind::Cg,
            StageArg::Mvm => cim_compiler::StageKind::Mvm,
            StageArg::Vvm => cim_compiler::StageKind::Vvm,
        }
    }
}

/// `cimc compile` as a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileRequest {
    /// Zoo model name or `.json` graph path.
    pub model: String,
    /// Preset name or `.json` architecture path.
    pub arch: String,
    /// Computing-mode override.
    #[serde(default)]
    pub mode: Option<ModeArg>,
    /// Optimization-level override.
    #[serde(default)]
    pub level: Option<LevelArg>,
    /// Ignored; kept for protocol-v1 compatibility (one compile runs on
    /// one thread).
    #[serde(default)]
    pub jobs: usize,
    /// Render the per-stage schedule into the outcome.
    #[serde(default)]
    pub schedule: bool,
    /// Generate code and include the first `n` flow lines.
    #[serde(default)]
    pub flow: Option<usize>,
    /// Functionally verify the generated flow against the reference
    /// executor.
    #[serde(default)]
    pub verify: bool,
    /// Include the rendered intermediate artifact of this stage.
    #[serde(default)]
    pub dump_stage: Option<StageArg>,
    /// Which cache to compile against.
    #[serde(default)]
    pub cache: CachePolicy,
    /// Pin the finished compile session under this name so later
    /// [`Request::Recompile`]s can edit it incrementally. Only
    /// meaningful against a persistent handler (`cimc serve`); one-shot
    /// CLI handlers accept and ignore it.
    #[serde(default)]
    pub session: Option<String>,
}

/// `cimc recompile` as a request: apply a typed
/// [`GraphDelta`] to an existing compile session
/// and re-run only the scheduling work whose per-region fingerprints
/// changed.
///
/// Two addressing modes, exactly one of which must be set:
///
/// * `session` — edit a session previously pinned by a
///   [`CompileRequest`] with `session: Some(name)` on the same server.
/// * `compile` — one-shot: cold-compile the embedded request first,
///   then recompile with the delta, and additionally compile the
///   mutated graph from scratch to report byte-level `equivalent`ness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecompileRequest {
    /// Name of a pinned server-side session to edit in place.
    #[serde(default)]
    pub session: Option<String>,
    /// One-shot mode: the cold compile to run (and time) before the
    /// incremental recompile.
    #[serde(default)]
    pub compile: Option<CompileRequest>,
    /// The typed edit batch to apply.
    pub delta: GraphDelta,
}

/// `cimc bench` as a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRequest {
    /// Use the quick spec instead of the full matrix.
    #[serde(default)]
    pub quick: bool,
    /// Model-axis override.
    #[serde(default)]
    pub models: Option<Vec<String>>,
    /// Architecture-axis override.
    #[serde(default)]
    pub archs: Option<Vec<String>>,
    /// Mode-axis override.
    #[serde(default)]
    pub modes: Option<Vec<OptLevel>>,
    /// Worker threads; 0 means all available cores.
    #[serde(default)]
    pub jobs: usize,
    /// Which cache the sweep's worker pool shares.
    #[serde(default)]
    pub cache: CachePolicy,
}

/// `cimc explore` as a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExploreRequest {
    /// Zoo model name or `.json` graph path (default `lenet5`).
    #[serde(default)]
    pub model: Option<String>,
    /// Inline design space (the CLI loads `--space <file>` into this;
    /// absent means [`DesignSpace::default_space`]).
    #[serde(default)]
    pub space: Option<DesignSpace>,
    /// Strategy name (default `hill-climb`); validated by the handler
    /// so CLI and server reject unknown names identically.
    #[serde(default)]
    pub strategy: Option<String>,
    /// Objective expression (default `latency`).
    #[serde(default)]
    pub objective: Option<String>,
    /// Evaluation budget (default 200).
    #[serde(default)]
    pub budget: Option<usize>,
    /// Strategy seed (default 0).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Worker threads; 0 means all available cores.
    #[serde(default)]
    pub jobs: usize,
    /// Which cache candidate evaluation shares.
    #[serde(default)]
    pub cache: CachePolicy,
    /// Pre-generated trace candidates are simulated under when the
    /// objective includes a traffic metric (`p99_latency`, `throughput`,
    /// `miss_rate`). Mutually exclusive with `trace_spec`.
    #[serde(default)]
    pub trace: Option<Trace>,
    /// Trace spec to generate the workload from (alternative to
    /// `trace`). When both are absent and the objective needs traffic,
    /// a fixed built-in two-tenant spec is used.
    #[serde(default)]
    pub trace_spec: Option<TraceSpec>,
    /// Scheduling policy for traffic evaluation (default `edf`).
    #[serde(default)]
    pub policy: Option<String>,
}

/// `cimc trace` as a request: generate a trace from an inline spec, or
/// describe an existing trace. Exactly one of `spec`/`trace` must be
/// set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRequest {
    /// Spec to generate from (the generated trace is returned).
    #[serde(default)]
    pub spec: Option<TraceSpec>,
    /// An existing trace to describe.
    #[serde(default)]
    pub trace: Option<Trace>,
}

/// `cimc simulate` as a request: replay a trace against an architecture
/// under one or more scheduling policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulateRequest {
    /// The trace to replay. Mutually exclusive with `spec`; exactly one
    /// must be set.
    #[serde(default)]
    pub trace: Option<Trace>,
    /// Spec to generate the trace from (alternative to `trace`).
    #[serde(default)]
    pub spec: Option<TraceSpec>,
    /// Preset name or `.json` architecture path (default `isaac`).
    #[serde(default)]
    pub arch: Option<String>,
    /// Explicit per-model partitions; absent means a balanced carve
    /// derived from the trace's tenant weights.
    #[serde(default)]
    pub placement: Option<Vec<Partition>>,
    /// Policy names to simulate, in report order (default all
    /// built-ins).
    #[serde(default)]
    pub policies: Option<Vec<String>>,
    /// Largest batch one dispatch may carry (default 8).
    #[serde(default)]
    pub max_batch: Option<usize>,
    /// Longest head-of-line wait before a partial batch dispatches, in
    /// cycles (default 0: dispatch as soon as free).
    #[serde(default)]
    pub max_wait: Option<u64>,
    /// Worker threads; 0 means all available cores.
    #[serde(default)]
    pub jobs: usize,
    /// Which cache partition pricing compiles against.
    #[serde(default)]
    pub cache: CachePolicy,
}

/// `cimc list` as a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ListRequest {
    /// One of `models`, `archs`, `modes`, `strategies`, `objectives`,
    /// `policies`, `traces`, `exporters`.
    pub category: String,
}

/// A diagnostic request that occupies a worker for `ms` milliseconds —
/// the deterministic way to exercise admission control and deadlines in
/// tests and load scripts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SleepRequest {
    /// How long to sleep, in milliseconds.
    pub ms: f64,
}

/// Every operation the stack exposes, one variant per `cimc`
/// subcommand plus the server control/diagnostic requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
// An ExploreRequest can carry an inline DesignSpace; boxing it would
// push the indirection onto every client constructing requests.
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// Compile one model for one architecture.
    Compile(CompileRequest),
    /// Incrementally recompile a session after a typed graph edit.
    Recompile(RecompileRequest),
    /// Run a benchmark sweep.
    Bench(BenchRequest),
    /// Run a design-space exploration.
    Explore(ExploreRequest),
    /// Generate or describe a request trace.
    Trace(TraceRequest),
    /// Replay a trace against an architecture under scheduling
    /// policies.
    Simulate(SimulateRequest),
    /// List a vocabulary (models, archs, modes, strategies, objectives,
    /// policies, traces, exporters).
    List(ListRequest),
    /// Liveness probe.
    Ping,
    /// Occupy a worker for a fixed duration (diagnostics only).
    Sleep(SleepRequest),
    /// Scrape the server's live metrics snapshot. Answered inline (not
    /// through the worker pool), so the scrape itself never appears in
    /// the request counters it reads. Additive since protocol v2 — old
    /// servers reject it as an unknown request, which is the standard
    /// additive-variant compatibility story, so no version bump.
    Metrics,
    /// Ask the server to stop accepting work and drain gracefully.
    Shutdown,
}

impl Request {
    /// Stable grouping key for load-test reporting (e.g.
    /// `compile lenet5@isaac`).
    #[must_use]
    pub fn key(&self) -> String {
        match self {
            Request::Compile(c) => format!("compile {}@{}", c.model, c.arch),
            Request::Recompile(r) => match (&r.session, &r.compile) {
                (Some(name), _) => format!("recompile session {name}"),
                (None, Some(c)) => format!("recompile {}@{}", c.model, c.arch),
                (None, None) => "recompile ?".to_owned(),
            },
            Request::Bench(b) => {
                if b.quick {
                    "bench quick".to_owned()
                } else if b.models.is_some() || b.archs.is_some() || b.modes.is_some() {
                    "bench custom".to_owned()
                } else {
                    "bench full".to_owned()
                }
            }
            Request::Explore(e) => format!(
                "explore {} {}",
                e.strategy.as_deref().unwrap_or("hill-climb"),
                e.model.as_deref().unwrap_or("lenet5")
            ),
            Request::Trace(t) => {
                let name = t
                    .spec
                    .as_ref()
                    .map(|s| s.name.as_str())
                    .or_else(|| t.trace.as_ref().map(|t| t.spec.name.as_str()))
                    .unwrap_or("?");
                format!("trace {name}")
            }
            Request::Simulate(s) => {
                let name = s
                    .trace
                    .as_ref()
                    .map(|t| t.spec.name.as_str())
                    .or_else(|| s.spec.as_ref().map(|sp| sp.name.as_str()))
                    .unwrap_or("?");
                format!("simulate {name}@{}", s.arch.as_deref().unwrap_or("isaac"))
            }
            Request::List(l) => format!("list {}", l.category),
            Request::Ping => "ping".to_owned(),
            Request::Sleep(s) => format!("sleep {}ms", s.ms),
            Request::Metrics => "metrics".to_owned(),
            Request::Shutdown => "shutdown".to_owned(),
        }
    }
}

fn default_protocol_version() -> u32 {
    PROTOCOL_VERSION
}

/// One JSON line from client to server: the request plus its
/// correlation id, protocol version and optional deadline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version the client speaks (defaults to the current one
    /// when omitted).
    #[serde(default = "default_protocol_version")]
    pub protocol_version: u32,
    /// Client-chosen correlation id, echoed verbatim in the response.
    #[serde(default)]
    pub id: u64,
    /// Per-request deadline in milliseconds. Work still queued (or
    /// finishing) past the deadline is answered with
    /// [`ResponseBody::DeadlineExceeded`] instead of its result.
    #[serde(default)]
    pub deadline_ms: Option<f64>,
    /// The operation to perform.
    pub request: Request,
}

impl RequestEnvelope {
    /// Wraps a request with the current protocol version and no
    /// deadline.
    #[must_use]
    pub fn new(id: u64, request: Request) -> Self {
        RequestEnvelope {
            protocol_version: PROTOCOL_VERSION,
            id,
            deadline_ms: None,
            request,
        }
    }

    /// Serializes the envelope as one compact JSON line (no newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("request envelopes always serialize")
    }

    /// Parses an envelope from one JSON line.
    ///
    /// # Errors
    /// Returns the JSON parser's message on malformed input. Protocol
    /// version checking happens in [`Handler::respond`], not here, so
    /// the error can be answered with a structured response.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// Summary of a generated meta-operator flow (the `... (N
/// meta-operators: …)` line of `cimc compile --flow`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowSummary {
    /// Total meta-operators.
    pub total: usize,
    /// CIM read operations.
    pub cim_reads: usize,
    /// CIM write operations.
    pub cim_writes: usize,
    /// Digital-compute operations.
    pub dcom: usize,
    /// Data-movement operations.
    pub mov: usize,
}

/// Everything a successful compile request produced — enough for the
/// CLI to reproduce its pre-API output byte for byte, and for clients
/// to inspect results structurally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileOutcome {
    /// Model name as compiled.
    pub model: String,
    /// Architecture name as compiled.
    pub arch: String,
    /// Computing-mode name actually used.
    pub mode: String,
    /// Deepest scheduling level that ran.
    pub level: String,
    /// Per-level performance reports.
    pub reports: Vec<PerfReport>,
    /// The full metrics block.
    pub metrics: CompileMetrics,
    /// Per-pass instrumentation.
    pub timeline: PassTimeline,
    /// Cache counters accumulated by this request (present when a cache
    /// was in play).
    pub cache_stats: Option<CacheStats>,
    /// Functional-verification verdict (when requested).
    pub verified: Option<bool>,
    /// Output elements compared during verification.
    #[serde(default)]
    pub verified_outputs: usize,
    /// Rendered per-stage schedule (when requested).
    #[serde(default)]
    pub schedule: Option<String>,
    /// First `n` rendered flow lines (when requested).
    #[serde(default)]
    pub flow_head: Vec<String>,
    /// Flow statistics (when a flow was generated for display).
    #[serde(default)]
    pub flow_stats: Option<FlowSummary>,
    /// Rendered intermediate artifacts (when `dump_stage` matched).
    #[serde(default)]
    pub dumps: Vec<String>,
}

impl CompileOutcome {
    /// Whether this compile ran fully warm: every cacheable pass was
    /// served from the cache (per the timeline's per-pass records, which
    /// are immune to concurrent requests touching the shared counters).
    ///
    /// Incremental recompiles reuse work at *region* granularity instead
    /// of whole-pass granularity, so when no pass-level cache was in
    /// play the verdict falls back to the per-region counters: warm
    /// means every region was served from the session's memo. `None`
    /// when neither level recorded any traffic.
    #[must_use]
    pub fn warm(&self) -> Option<bool> {
        let stats = self.timeline.cache_stats();
        if stats.lookups() == 0 {
            let (hits, misses) = self.timeline.region_stats();
            if hits + misses == 0 {
                None
            } else {
                Some(misses == 0 && hits > 0)
            }
        } else {
            Some(stats.misses == 0 && stats.hits > 0)
        }
    }
}

/// Everything a successful recompile request produced.
///
/// The `incremental` outcome is shaped exactly like a fresh
/// [`CompileOutcome`] (same reports, metrics and timeline), so every
/// existing renderer works on it unchanged; the extra fields carry the
/// incrementality evidence (timings, per-region counters, equivalence).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecompileOutcome {
    /// The cold compile that seeded the session (one-shot mode only;
    /// pinned-session recompiles edit an already-compiled session).
    #[serde(default)]
    pub cold: Option<Box<CompileOutcome>>,
    /// The incremental recompile's outcome after applying the delta.
    pub incremental: CompileOutcome,
    /// A from-scratch compile of the mutated graph (one-shot mode only)
    /// — the ground truth `equivalent` was judged against, returned so
    /// clients can diff or byte-compare the two outcomes themselves.
    #[serde(default)]
    pub fresh: Option<Box<CompileOutcome>>,
    /// Whether the incremental schedules, reports and metrics are
    /// identical to the fresh compile of the mutated graph (one-shot
    /// mode only — checking it requires the fresh compile to compare
    /// against).
    #[serde(default)]
    pub equivalent: Option<bool>,
    /// Wall-clock of the cold compile, milliseconds (one-shot mode).
    #[serde(default)]
    pub cold_ms: Option<f64>,
    /// Wall-clock of the incremental recompile, milliseconds.
    pub incremental_ms: f64,
    /// Scheduling regions served from the session's memo.
    pub region_hits: u64,
    /// Scheduling regions that had to be recomputed.
    pub region_misses: u64,
}

/// Every way a request can conclude, externally tagged on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
#[allow(clippy::large_enum_variant)]
pub enum ResponseBody {
    /// A compile request's result.
    Compile(CompileOutcome),
    /// A recompile request's result.
    Recompiled(RecompileOutcome),
    /// A bench request's result.
    Bench {
        /// The sweep report.
        report: BenchReport,
    },
    /// An explore request's result.
    Explore {
        /// The exploration report.
        report: DseReport,
    },
    /// A trace request's result.
    Trace {
        /// The generated trace (present when a spec was given;
        /// describing an existing trace echoes nothing back).
        trace: Option<Trace>,
        /// Human-readable per-tenant description table.
        description: String,
    },
    /// A simulate request's result.
    Simulate {
        /// One report per requested policy, in request order.
        reports: Vec<TrafficReport>,
    },
    /// A list request's result.
    List {
        /// The vocabulary, one entry per line in CLI output order.
        names: Vec<String>,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Sleep`].
    Slept {
        /// How long the worker slept, in milliseconds.
        ms: f64,
    },
    /// Answer to [`Request::Metrics`]: the server's live counters,
    /// gauges and latency histograms.
    Metrics {
        /// The snapshot, schema-versioned (see
        /// [`cim_obs::METRICS_SCHEMA_VERSION`]).
        metrics: cim_obs::MetricsSnapshot,
    },
    /// Answer to [`Request::Shutdown`]: the server stops admitting work
    /// and drains.
    ShuttingDown {
        /// Jobs still queued at shutdown time (they will complete).
        pending: usize,
    },
    /// Admission control rejected the request: the bounded queue was
    /// full. Retry later or reduce concurrency.
    Overloaded {
        /// Jobs queued when the request was rejected.
        queue_depth: usize,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The request's deadline elapsed before (or while) it ran; any
    /// late result was abandoned.
    DeadlineExceeded {
        /// The deadline that was missed, in milliseconds.
        deadline_ms: f64,
    },
    /// The request failed; the message matches the CLI's stderr.
    Error(ApiError),
}

/// One JSON line from server to client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version the server speaks.
    pub protocol_version: u32,
    /// The request envelope's `id`, echoed (0 for unparseable input).
    pub id: u64,
    /// Server-side wall clock from admission to response, milliseconds.
    pub elapsed_ms: f64,
    /// How the request concluded.
    pub body: ResponseBody,
}

impl Response {
    /// Assembles a response stamped with the current protocol version.
    #[must_use]
    pub fn new(id: u64, elapsed_ms: f64, body: ResponseBody) -> Self {
        Response {
            protocol_version: PROTOCOL_VERSION,
            id,
            elapsed_ms,
            body,
        }
    }

    /// Serializes the response as one compact JSON line (no newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("responses always serialize")
    }

    /// Parses a response from one JSON line.
    ///
    /// # Errors
    /// Returns the JSON parser's message on malformed input, or a
    /// version-window violation.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let response: Response = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&response.protocol_version) {
            return Err(format!(
                "unsupported protocol version {} (supported {}..={})",
                response.protocol_version, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION
            ));
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the size of every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_issues_one_write_per_line() {
        let small = Response::new(1, 0.0, ResponseBody::Pong).to_json();
        // The size of a `schedule` + `flow: 200` compile body.
        let big = Response::new(
            2,
            0.0,
            ResponseBody::List {
                names: vec!["x".repeat(100); 140],
            },
        )
        .to_json();
        assert!(big.len() > 14_000);
        let mut out = CountingWriter::default();
        write_line(&mut out, small.clone()).unwrap();
        write_line(&mut out, big.clone()).unwrap();
        assert_eq!(out.writes, [small.len() + 1, big.len() + 1]);
        assert_eq!(out.bytes, format!("{small}\n{big}\n").into_bytes());
    }
}
