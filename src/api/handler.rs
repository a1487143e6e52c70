//! Request execution: one [`Handler`] owns the (optional) shared compile
//! cache and turns [`Request`]s into [`ResponseBody`]s.
//!
//! Every error message produced here is byte-identical to what the
//! pre-API `cimc` printed to stderr, because the CLI now renders these
//! responses verbatim — there is exactly one copy of each message.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cim_arch::{presets, CimArchitecture};
use cim_bench::{run_sweep_cached, BenchReport, Document, RunTiming, SweepSpec};
use cim_compiler::cache::fingerprint_graph;
use cim_compiler::{
    Artifact, CodegenPass, CompileCache, CompileOptions, DiskCache, Fingerprint, MemoryCache,
    OptLevel, Pipeline, Session, StageKind,
};
use cim_dse::{DesignSpace, DseReport, Explorer, Metric, Objective, StrategyKind, TrafficWorkload};
use cim_graph::{zoo, Graph, GraphDelta};
use cim_mop::FlowStats;
use cim_sim::{reference, Machine, WeightStore};
use cim_traffic::{
    simulate_priced, Batching, GeneratorKind, Placement, PolicyKind, SimConfig, TenantSpec, Trace,
    TraceSpec, TrafficReport,
};

use super::{
    ApiError, BenchRequest, CachePolicy, CompileOutcome, CompileRequest, ExploreRequest,
    FlowSummary, ListRequest, RecompileOutcome, RecompileRequest, Request, RequestEnvelope,
    Response, ResponseBody, SimulateRequest, TraceRequest, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use crate::Error;

/// Loads an architecture description file, wrapping failures in the
/// unified [`Error`] so the whole cause chain reaches the message.
fn load_arch_file(path: &str) -> Result<CimArchitecture, Error> {
    let json = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    Ok(cim_arch::from_json(&json)?)
}

/// Loads a model graph file, wrapping failures in the unified [`Error`].
fn load_model_file(path: &str) -> Result<Graph, Error> {
    let json = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    Ok(cim_graph::from_json(&json)?)
}

/// Resolves an architecture operand: preset name or `.json` path.
fn preset(name: &str) -> Result<CimArchitecture, String> {
    if let Some(arch) = presets::by_name(name) {
        return Ok(arch);
    }
    match name {
        path if path.ends_with(".json") => load_arch_file(path).map_err(|e| e.render_chain()),
        other => Err(format!(
            "unknown preset `{other}` (try `cimc archs` or a .json path)"
        )),
    }
}

/// Resolves a model operand: zoo name or `.json` path.
fn model(name: &str) -> Result<Graph, String> {
    if let Some(graph) = zoo::by_name(name) {
        return Ok(graph);
    }
    match name {
        path if path.ends_with(".json") => load_model_file(path).map_err(|e| e.render_chain()),
        other => Err(format!(
            "unknown model `{other}` (try `cimc models` or a .json path)"
        )),
    }
}

/// Validates a trace that arrived pre-deserialized through the typed
/// API (so it skipped [`Document::from_json`]'s checks), returning a clone.
fn revalidated(trace: &Trace) -> Result<Trace, ApiError> {
    trace
        .validate()
        .map_err(|e| ApiError::argument(e.to_string()))?;
    Ok(trace.clone())
}

/// Resolves the distinct models a trace's tenants reference, in first-
/// appearance order — the `(name, graph)` list placement pricing needs.
fn trace_models(spec: &TraceSpec) -> Result<Vec<(String, Graph)>, ApiError> {
    let mut models: Vec<(String, Graph)> = Vec::new();
    for tenant in &spec.tenants {
        if models.iter().any(|(name, _)| *name == tenant.model) {
            continue;
        }
        let graph = model(&tenant.model).map_err(ApiError::input)?;
        models.push((tenant.model.clone(), graph));
    }
    Ok(models)
}

/// The fixed built-in workload `cimc explore --objective p99_latency`
/// uses when no trace is supplied: two tenants (a deadline-bound lenet5
/// flow and a background mlp flow) under a seeded Poisson process.
/// Fixed parameters keep explore runs reproducible by construction.
fn default_explore_spec() -> TraceSpec {
    TraceSpec {
        name: "builtin-explore".to_owned(),
        kind: GeneratorKind::Poisson,
        seed: 42,
        horizon: 1_000_000,
        mean_gap: 5_000.0,
        burst_len: 8,
        idle_gap: 10.0,
        tenants: vec![
            TenantSpec {
                name: "interactive".to_owned(),
                model: "lenet5".to_owned(),
                weight: 2.0,
                priority: 1,
                deadline: Some(200_000),
            },
            TenantSpec {
                name: "batch".to_owned(),
                model: "mlp".to_owned(),
                weight: 1.0,
                priority: 0,
                deadline: None,
            },
        ],
    }
}

/// Executes [`Request`]s against an optional process-wide shared cache.
///
/// The CLI constructs a cacheless handler per invocation
/// ([`Handler::new`]); `cimc serve` constructs one handler for the whole
/// process with a shared memory(+disk) cache
/// ([`Handler::with_shared_cache`]) so every request after the first
/// compiles warm.
///
/// Handlers also hold the *pinned sessions* incremental recompilation
/// edits: a [`CompileRequest`] with `session: Some(name)` keeps its
/// finished [`Session`] alive under that name, and subsequent
/// [`Request::Recompile`]s address it to reuse its per-region
/// scheduling memo. Pinning is only useful on a long-lived handler
/// (`cimc serve`) — a one-shot CLI handler drops pinned sessions when
/// the process exits.
#[derive(Default)]
pub struct Handler {
    shared_cache: Option<Arc<dyn CompileCache>>,
    sessions: Mutex<HashMap<String, Session<'static>>>,
    /// Zoo models compile requests have named, with their
    /// [`fingerprint_graph`]: a zoo name denotes one immutable graph, so
    /// it is built and hashed once per handler, not once per request.
    zoo: Mutex<HashMap<String, (Arc<Graph>, Fingerprint)>>,
}

impl Handler {
    /// A handler without a shared cache: every request gets the
    /// subcommand's historical default (no cache for compile, a fresh
    /// in-memory cache for bench/explore) — exactly the old one-shot
    /// CLI behavior.
    #[must_use]
    pub fn new() -> Self {
        Handler::default()
    }

    /// A handler whose [`CachePolicy::Default`] requests share `cache`.
    #[must_use]
    pub fn with_shared_cache(cache: Arc<dyn CompileCache>) -> Self {
        Handler {
            shared_cache: Some(cache),
            ..Handler::default()
        }
    }

    /// Resolves a zoo model name through the handler's memo; `None` for
    /// anything else (a `.json` path is loaded and hashed per request —
    /// files change). A poisoned memo is recovered: it only ever holds
    /// fully built entries.
    fn zoo_model(&self, name: &str) -> Option<(Arc<Graph>, Fingerprint)> {
        let mut zoo = self.zoo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = zoo.get(name) {
            return Some(entry.clone());
        }
        let graph = zoo::by_name(name)?;
        let fingerprint = fingerprint_graph(&graph);
        let entry = (Arc::new(graph), fingerprint);
        zoo.insert(name.to_owned(), entry.clone());
        Some(entry)
    }

    /// The pinned sessions. A job that panicked holding the map (inside
    /// [`Session::recompile`], say) may have left a session half
    /// updated, so a poisoned map is cleared, not trusted: requests
    /// naming its sessions get the structured unknown-session error.
    fn sessions(&self) -> MutexGuard<'_, HashMap<String, Session<'static>>> {
        self.sessions.lock().unwrap_or_else(|poisoned| {
            let mut sessions = poisoned.into_inner();
            sessions.clear();
            self.sessions.clear_poison();
            sessions
        })
    }

    /// The shared cache, when this handler has one.
    #[must_use]
    pub fn shared_cache(&self) -> Option<&Arc<dyn CompileCache>> {
        self.shared_cache.as_ref()
    }

    /// Resolves a request's cache policy against this handler's shared
    /// cache, falling back to the subcommand default when unshared.
    fn resolve_cache(
        &self,
        policy: &CachePolicy,
        default: impl FnOnce() -> Option<Arc<dyn CompileCache>>,
    ) -> Result<Option<Arc<dyn CompileCache>>, ApiError> {
        match policy {
            CachePolicy::Off => Ok(None),
            CachePolicy::Disk { dir } => match DiskCache::open(dir) {
                Ok(cache) => Ok(Some(Arc::new(cache))),
                Err(e) => Err(ApiError::input(format!(
                    "cannot open cache dir `{dir}`: {e}"
                ))),
            },
            CachePolicy::Default => match &self.shared_cache {
                Some(cache) => Ok(Some(Arc::clone(cache))),
                None => Ok(default()),
            },
        }
    }

    /// Executes one request. Never panics on bad input — failures come
    /// back as [`ResponseBody::Error`].
    #[must_use]
    pub fn handle(&self, request: &Request) -> ResponseBody {
        match request {
            Request::Compile(req) => match self.compile(req) {
                Ok(outcome) => ResponseBody::Compile(outcome),
                Err(e) => ResponseBody::Error(e),
            },
            Request::Recompile(req) => match self.recompile(req) {
                Ok(outcome) => ResponseBody::Recompiled(outcome),
                Err(e) => ResponseBody::Error(e),
            },
            Request::Bench(req) => match self.bench(req) {
                Ok(report) => ResponseBody::Bench { report },
                Err(e) => ResponseBody::Error(e),
            },
            Request::Explore(req) => match self.explore(req) {
                Ok(report) => ResponseBody::Explore { report },
                Err(e) => ResponseBody::Error(e),
            },
            Request::Trace(req) => match Self::trace(req) {
                Ok((trace, description)) => ResponseBody::Trace { trace, description },
                Err(e) => ResponseBody::Error(e),
            },
            Request::Simulate(req) => match self.simulate(req) {
                Ok(reports) => ResponseBody::Simulate { reports },
                Err(e) => ResponseBody::Error(e),
            },
            Request::List(req) => match Self::list(req) {
                Ok(names) => ResponseBody::List { names },
                Err(e) => ResponseBody::Error(e),
            },
            Request::Ping => ResponseBody::Pong,
            Request::Metrics => ResponseBody::Metrics {
                metrics: cim_obs::metrics().snapshot(),
            },
            Request::Sleep(req) => match std::time::Duration::try_from_secs_f64(req.ms / 1000.0) {
                Ok(duration) => {
                    std::thread::sleep(duration);
                    ResponseBody::Slept { ms: req.ms }
                }
                Err(e) => ResponseBody::Error(ApiError::argument(format!(
                    "cannot sleep {:?} ms: {e}",
                    req.ms
                ))),
            },
            // A server intercepts Shutdown before execution; handled
            // directly (CLI/tests), there is nothing to drain.
            Request::Shutdown => ResponseBody::ShuttingDown { pending: 0 },
        }
    }

    /// Executes one envelope: protocol-version gate, then
    /// [`Handler::handle`], stamping the correlation id and wall clock.
    /// (Deadlines and admission control live in the server, which owns
    /// the queue.)
    #[must_use]
    pub fn respond(&self, envelope: &RequestEnvelope) -> Response {
        let start = cim_obs::stopwatch();
        let body = if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&envelope.protocol_version)
        {
            self.handle(&envelope.request)
        } else {
            ResponseBody::Error(ApiError::protocol(format!(
                "unsupported protocol version {} (supported {}..={})",
                envelope.protocol_version, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION
            )))
        };
        Response::new(envelope.id, start.elapsed_ms(), body)
    }

    /// The `cimc compile` core: staged pipeline, optional codegen, and
    /// every inspection surface (schedule, flow head, dumps, verify).
    fn compile(&self, req: &CompileRequest) -> Result<CompileOutcome, ApiError> {
        let (graph, graph_fingerprint) = match self.zoo_model(&req.model) {
            Some((graph, fingerprint)) => (graph, Some(fingerprint)),
            None => (Arc::new(model(&req.model).map_err(ApiError::input)?), None),
        };
        let mut arch = preset(&req.arch).map_err(ApiError::input)?;
        if let Some(m) = req.mode {
            arch = arch.with_mode(m.into());
        }
        // `req.jobs` is ignored: one compile runs on one thread.
        let options = CompileOptions {
            level: req.level.map(Into::into).unwrap_or_default(),
            ..CompileOptions::default()
        };

        // A single one-shot compile has no intra-run reuse, so the
        // unshared default is no cache (unlike bench/explore, whose
        // matrices share one).
        let cache = self.resolve_cache(&req.cache, || None)?;
        // Per-request deltas, so concurrent requests against the shared
        // server cache each report only their own traffic. For the
        // one-shot CLI the snapshot is zero and this equals `stats()`.
        let cache_before = cache.as_ref().map(|c| c.stats());

        let mut pipeline = Pipeline::plan(&options, &arch);
        match (req.flow, req.verify) {
            // Verification executes the flow, so it needs all of it.
            (_, true) => {
                pipeline.push(Box::new(CodegenPass::default()));
            }
            // A head of `n` lines needs at most `n` statements (each
            // renders to at least one line). The counting step walks the
            // whole flow once per schedule (the cache banks its counts);
            // the head step then generates only what it keeps. It keeps
            // at least one statement, so it stays the `codegen` step.
            (Some(n), false) => {
                pipeline.push(Box::new(CodegenPass::keeping(0)));
                pipeline.push(Box::new(CodegenPass::keeping(n.max(1))));
            }
            (None, false) => {}
        }
        let mut session = pipeline.session(&graph, &arch, options);
        if let Some(cache) = &cache {
            session = session.with_cache_keyed(Arc::clone(cache), graph_fingerprint);
        }

        let compile_error = |e| ApiError::input(format!("compile error: {e}"));
        let mut dumps = Vec::new();
        if let Some(kind) = req.dump_stage.map(StageKind::from) {
            // Step pass by pass so the intermediate artifact can be
            // rendered the moment it exists.
            while session.step().map_err(compile_error)? {
                if session.artifact().kind() == kind {
                    dumps.push(session.artifact().render());
                }
            }
            if dumps.is_empty() {
                return Err(ApiError::input(format!(
                    "stage `{}` did not run for this target (deepest stage: {})",
                    kind.name(),
                    session.artifact().kind().name()
                )));
            }
        } else {
            // One cache lookup serves every pass up to the deepest
            // artifact the cache holds.
            session.run().map_err(compile_error)?;
        }

        // Pinning keeps the finished session (and its per-region memo)
        // alive for later `Recompile` requests, so the outcome is built
        // from clones instead of consuming it.
        let (artifact, timeline) = match &req.session {
            Some(name) => {
                let parts = (session.artifact().clone(), session.timeline().clone());
                self.sessions().insert(name.clone(), session.into_owned());
                parts
            }
            None => session.into_parts(),
        };
        let (compiled, flow_pack) = match artifact {
            Artifact::Codegenned(c) => {
                let c = *c;
                (c.compiled, Some((c.flow, c.layout)))
            }
            other => (
                other
                    .into_compiled(graph.name(), arch.name(), options)
                    .map_err(compile_error)?,
                None,
            ),
        };

        let mut flow_head = Vec::new();
        let mut flow_stats = None;
        if let Some(n) = req.flow {
            let (flow, _) = flow_pack.as_ref().expect("codegen pass ran");
            flow_head = flow.head(n);
            let stats = FlowStats::of(flow);
            flow_stats = Some(FlowSummary {
                total: stats.total(),
                cim_reads: stats.cim_reads(),
                cim_writes: stats.cim_writes(),
                dcom: stats.dcom,
                mov: stats.mov,
            });
        }

        let mut verified = None;
        let mut verified_outputs = 0;
        if req.verify {
            let (flow, layout) = flow_pack.as_ref().expect("codegen pass ran");
            if let Err(e) = flow.validate(&arch) {
                return Err(ApiError::input(format!("flow validation failed: {e}")));
            }
            let store = WeightStore::for_flow(flow);
            let mut machine = Machine::new(&arch);
            machine.load_inputs(&graph, layout);
            if let Err(e) = machine.execute(flow, &store) {
                return Err(ApiError::input(format!(
                    "functional simulation failed: {e}"
                )));
            }
            let expected = reference::execute(&graph);
            let out = graph.outputs()[0];
            let want = &expected[&out];
            let got = machine.read_l0(layout.offset(out), want.len());
            verified = Some(&got == want);
            verified_outputs = want.len();
        }

        Ok(CompileOutcome {
            model: compiled.model().to_owned(),
            arch: compiled.arch_name().to_owned(),
            mode: arch.mode().name().to_owned(),
            level: compiled.report().level.to_owned(),
            reports: compiled.reports().into_iter().cloned().collect(),
            metrics: compiled.metrics(&arch),
            timeline,
            cache_stats: cache.as_ref().map(|c| {
                let before = cache_before.as_ref().expect("snapshot taken with cache");
                c.stats().since(before)
            }),
            verified,
            verified_outputs,
            schedule: req.schedule.then(|| compiled.render_schedule()),
            flow_head,
            flow_stats,
            dumps,
        })
    }

    /// The `cimc recompile` core: route to the pinned-session or
    /// one-shot flavor, rejecting ambiguous addressing.
    fn recompile(&self, req: &RecompileRequest) -> Result<RecompileOutcome, ApiError> {
        match (&req.session, &req.compile) {
            (Some(_), Some(_)) => Err(ApiError::argument(
                "a recompile request takes `session` or `compile`, not both",
            )),
            (Some(name), None) => self.recompile_pinned(name, &req.delta),
            (None, Some(compile)) => Self::recompile_oneshot(compile, &req.delta),
            (None, None) => Err(ApiError::argument(
                "a recompile request needs exactly one of `session` (a pinned session) or \
                 `compile` (a one-shot cold compile)",
            )),
        }
    }

    /// Applies a delta to a session pinned by an earlier compile
    /// request, reusing its per-region scheduling memo in place.
    fn recompile_pinned(
        &self,
        name: &str,
        delta: &GraphDelta,
    ) -> Result<RecompileOutcome, ApiError> {
        let mut sessions = self.sessions();
        let session = sessions.get_mut(name).ok_or_else(|| {
            ApiError::input(format!(
                "unknown session `{name}` (pin one with a compile request's `session` field)"
            ))
        })?;
        let started = cim_obs::stopwatch();
        session
            .recompile(delta)
            .map_err(|e| ApiError::input(format!("compile error: {e}")))?;
        let incremental_ms = started.elapsed_ms();
        let incremental = Self::session_outcome(session, false)?;
        let (region_hits, region_misses) = incremental.timeline.region_stats();
        Ok(RecompileOutcome {
            cold: None,
            incremental,
            fresh: None,
            equivalent: None,
            cold_ms: None,
            incremental_ms,
            region_hits,
            region_misses,
        })
    }

    /// One-shot incremental recompilation: cold-compile the embedded
    /// request, recompile with the delta against the still-warm
    /// per-region memo, then compile the mutated graph from scratch and
    /// judge equivalence — the full evidence chain in one request.
    fn recompile_oneshot(
        req: &CompileRequest,
        delta: &GraphDelta,
    ) -> Result<RecompileOutcome, ApiError> {
        if req.flow.is_some() || req.verify || req.dump_stage.is_some() {
            return Err(ApiError::argument(
                "a recompile request's embedded compile does not support `flow`, `verify` or \
                 `dump_stage`",
            ));
        }
        let graph = model(&req.model).map_err(ApiError::input)?;
        let mut arch = preset(&req.arch).map_err(ApiError::input)?;
        if let Some(m) = req.mode {
            arch = arch.with_mode(m.into());
        }
        let options = CompileOptions {
            level: req.level.map(Into::into).unwrap_or_default(),
            ..CompileOptions::default()
        };

        let pipeline = Pipeline::plan(&options, &arch);
        let mut session = pipeline.session(&graph, &arch, options);
        let cold_started = cim_obs::stopwatch();
        session
            .run()
            .map_err(|e| ApiError::input(format!("compile error: {e}")))?;
        let cold_ms = cold_started.elapsed_ms();
        let cold = Self::session_outcome(&session, req.schedule)?;

        let started = cim_obs::stopwatch();
        session
            .recompile(delta)
            .map_err(|e| ApiError::input(format!("compile error: {e}")))?;
        let incremental_ms = started.elapsed_ms();
        // The incremental/fresh outcomes always carry the rendered
        // schedule so `equivalent` (and clients byte-comparing the two)
        // covers the full per-stage plans, not just the summary reports.
        let incremental = Self::session_outcome(&session, true)?;
        let (region_hits, region_misses) = incremental.timeline.region_stats();

        let mutated = delta
            .apply(&graph)
            .map_err(|e| ApiError::input(format!("invalid graph delta: {e}")))?;
        let mut fresh_session = Pipeline::plan(&options, &arch).session(&mutated, &arch, options);
        fresh_session
            .run()
            .map_err(|e| ApiError::input(format!("compile error: {e}")))?;
        let fresh = Self::session_outcome(&fresh_session, true)?;

        let equivalent = incremental.model == fresh.model
            && incremental.level == fresh.level
            && incremental.reports == fresh.reports
            && incremental.metrics == fresh.metrics
            && incremental.schedule == fresh.schedule;
        Ok(RecompileOutcome {
            cold: Some(Box::new(cold)),
            incremental,
            fresh: Some(Box::new(fresh)),
            equivalent: Some(equivalent),
            cold_ms: Some(cold_ms),
            incremental_ms,
            region_hits,
            region_misses,
        })
    }

    /// Builds the [`CompileOutcome`] surface of an already-run session
    /// without consuming it (recompilation needs the session alive).
    fn session_outcome(session: &Session<'_>, schedule: bool) -> Result<CompileOutcome, ApiError> {
        let compiled = session
            .compiled()
            .map_err(|e| ApiError::input(format!("compile error: {e}")))?;
        let arch = session.arch();
        Ok(CompileOutcome {
            model: compiled.model().to_owned(),
            arch: compiled.arch_name().to_owned(),
            mode: arch.mode().name().to_owned(),
            level: compiled.report().level.to_owned(),
            reports: compiled.reports().into_iter().cloned().collect(),
            metrics: compiled.metrics(arch),
            timeline: session.timeline().clone(),
            cache_stats: None,
            verified: None,
            verified_outputs: 0,
            schedule: schedule.then(|| compiled.render_schedule()),
            flow_head: Vec::new(),
            flow_stats: None,
            dumps: Vec::new(),
        })
    }

    /// The `cimc bench` core: validate the sweep spec, then run it on the
    /// worker pool against the resolved cache.
    fn bench(&self, req: &BenchRequest) -> Result<BenchReport, ApiError> {
        let mut spec = if req.quick {
            SweepSpec::quick()
        } else {
            SweepSpec::full()
        };
        if let Some(m) = &req.models {
            spec.models = m.clone();
        }
        if let Some(a) = &req.archs {
            spec.archs = a.clone();
        }
        if let Some(m) = &req.modes {
            spec.modes = m.clone();
        }
        if let Err(e) = spec.validate() {
            return Err(ApiError::argument(e.to_string()));
        }
        let threads = if req.jobs == 0 {
            available_parallelism()
        } else {
            req.jobs
        };
        // The worker pool shares one cache: in-memory per request by
        // default (jobs with a common pipeline prefix reuse artifacts
        // within this run), or the server's process-wide cache when one
        // is shared (warm across requests).
        let cache = self.resolve_cache(&req.cache, || {
            Some(Arc::new(MemoryCache::new()) as Arc<dyn CompileCache>)
        })?;
        Ok(run_sweep_cached(&spec, threads, cache).expect("spec was validated above"))
    }

    /// The `cimc explore` core: validate strategy/objective/space, then
    /// run the explorer against the resolved cache.
    fn explore(&self, req: &ExploreRequest) -> Result<DseReport, ApiError> {
        let Some(kind) = StrategyKind::parse(req.strategy.as_deref().unwrap_or("hill-climb"))
        else {
            return Err(ApiError::argument(format!(
                "unknown strategy `{}` (known: {})",
                req.strategy.clone().unwrap_or_default(),
                StrategyKind::NAMES.join(", ")
            )));
        };
        let objective = Objective::parse(req.objective.as_deref().unwrap_or("latency"))
            .map_err(|e| ApiError::argument(e.to_string()))?;
        let space = match &req.space {
            Some(space) => space.clone(),
            None => DesignSpace::default_space(),
        };
        // Space *content* errors are argument errors too: name the
        // offending axis value, same as any bad flag.
        if let Err(e) = space.validate() {
            return Err(ApiError::argument(e.to_string()));
        }
        let graph = model(req.model.as_deref().unwrap_or("lenet5")).map_err(ApiError::input)?;
        let threads = if req.jobs == 0 {
            available_parallelism()
        } else {
            req.jobs
        };
        // Like bench: memoize in-process per request by default (local
        // searches revisit points constantly), or share the server's
        // cache when one exists.
        let cache = self.resolve_cache(&req.cache, || {
            Some(Arc::new(MemoryCache::new()) as Arc<dyn CompileCache>)
        })?;

        let seed = req.seed.unwrap_or(0);
        let budget = req.budget.unwrap_or(200);
        let mut explorer = Explorer::new().with_threads(threads);
        if let Some(cache) = &cache {
            explorer = explorer.with_cache(Arc::clone(cache));
        }
        // Traffic objectives (and any explicitly supplied trace) attach
        // a fixed serving workload: every candidate is additionally
        // simulated under it, making `p99_latency`/`throughput`/
        // `miss_rate` optimizable. With no trace given, a fixed
        // built-in two-tenant spec keeps `--objective p99_latency`
        // usable out of the box — fixed, so runs stay reproducible.
        if objective.needs_traffic() || req.trace.is_some() || req.trace_spec.is_some() {
            explorer = explorer.with_traffic(Self::explore_workload(req)?);
        }
        let mut strategy = kind.build(seed);
        explorer
            .explore(&graph, &space, strategy.as_mut(), &objective, seed, budget)
            // Space/budget problems are argument errors (exit 2); both
            // were pre-validated above, so anything here is unexpected.
            .map_err(|e| ApiError::argument(e.to_string()))
    }

    /// Resolves an explore request's traffic workload: explicit trace,
    /// generated spec, or the fixed built-in default.
    fn explore_workload(req: &ExploreRequest) -> Result<TrafficWorkload, ApiError> {
        let trace = match (&req.trace, &req.trace_spec) {
            (Some(_), Some(_)) => {
                return Err(ApiError::argument(
                    "an explore request takes `trace` or `trace_spec`, not both",
                ));
            }
            (Some(trace), None) => revalidated(trace)?,
            (None, Some(spec)) => spec
                .generate()
                .map_err(|e| ApiError::argument(e.to_string()))?,
            (None, None) => default_explore_spec()
                .generate()
                .expect("the built-in explore spec is valid"),
        };
        let policy_name = req.policy.as_deref().unwrap_or("edf");
        let Some(policy) = PolicyKind::parse(policy_name) else {
            return Err(ApiError::argument(format!(
                "unknown policy `{policy_name}` (known: {})",
                PolicyKind::NAMES.join(", ")
            )));
        };
        let models = trace_models(&trace.spec)?;
        Ok(TrafficWorkload {
            trace,
            models,
            policy,
            batching: Batching::default(),
        })
    }

    /// The `cimc trace` core: generate from a spec, or describe an
    /// existing trace.
    fn trace(req: &TraceRequest) -> Result<(Option<Trace>, String), ApiError> {
        match (&req.spec, &req.trace) {
            (Some(spec), None) => {
                let trace = spec
                    .generate()
                    .map_err(|e| ApiError::argument(e.to_string()))?;
                let description = trace.describe();
                Ok((Some(trace), description))
            }
            (None, Some(trace)) => {
                let trace = revalidated(trace)?;
                Ok((None, trace.describe()))
            }
            _ => Err(ApiError::argument(
                "a trace request needs exactly one of `spec` (generate) or `trace` (describe)",
            )),
        }
    }

    /// The `cimc simulate` core: resolve trace, architecture, placement
    /// and policies, price the partitions once (through the resolved
    /// cache), and replay the trace once per policy.
    fn simulate(&self, req: &SimulateRequest) -> Result<Vec<TrafficReport>, ApiError> {
        let trace = match (&req.trace, &req.spec) {
            (Some(trace), None) => revalidated(trace)?,
            (None, Some(spec)) => spec
                .generate()
                .map_err(|e| ApiError::argument(e.to_string()))?,
            _ => {
                return Err(ApiError::argument(
                    "a simulate request needs exactly one of `trace` or `spec`",
                ));
            }
        };
        let arch = preset(req.arch.as_deref().unwrap_or("isaac")).map_err(ApiError::input)?;
        let placement = match &req.placement {
            Some(partitions) => {
                let placement = Placement {
                    partitions: partitions.clone(),
                };
                placement
                    .validate(&arch)
                    .map_err(|e| ApiError::argument(e.to_string()))?;
                placement
            }
            None => Placement::balanced(&arch, &trace.spec)
                .map_err(|e| ApiError::input(e.to_string()))?,
        };
        let policies: Vec<PolicyKind> = match &req.policies {
            None => PolicyKind::ALL.to_vec(),
            Some(names) => names
                .iter()
                .map(|name| {
                    PolicyKind::parse(name).ok_or_else(|| {
                        ApiError::argument(format!(
                            "unknown policy `{name}` (known: {})",
                            PolicyKind::NAMES.join(", ")
                        ))
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        if policies.is_empty() {
            return Err(ApiError::argument("no policies to simulate"));
        }
        let batching = Batching {
            max_batch: req.max_batch.unwrap_or(8),
            max_wait: req.max_wait.unwrap_or(0),
        };
        if batching.max_batch == 0 {
            return Err(ApiError::argument("--max-batch must be at least 1"));
        }
        let models = trace_models(&trace.spec)?;
        let threads = if req.jobs == 0 {
            available_parallelism()
        } else {
            req.jobs
        };
        // Pricing compiles each placed model once; an in-memory cache by
        // default lets partitions with shared pipeline prefixes reuse
        // artifacts, like bench/explore.
        let cache = self.resolve_cache(&req.cache, || {
            Some(Arc::new(MemoryCache::new()) as Arc<dyn CompileCache>)
        })?;
        let services =
            cim_traffic::price_placement(&arch, &placement, &models, cache.as_ref(), threads)
                .map_err(|e| ApiError::input(e.to_string()))?;
        policies
            .iter()
            .map(|&policy| {
                let started = cim_obs::stopwatch();
                let config = SimConfig { policy, batching };
                let (mut report, _) =
                    simulate_priced(&trace, &arch, &placement, &services, &config, threads)
                        .map_err(|e| ApiError::input(e.to_string()))?;
                report.timing = RunTiming {
                    total_ms: started.elapsed_ms(),
                    threads,
                };
                Ok(report)
            })
            .collect()
    }

    /// The `cimc list` core: the discoverable vocabularies, one value
    /// per entry in CLI output order.
    fn list(req: &ListRequest) -> Result<Vec<String>, ApiError> {
        let names: Vec<&str> = match req.category.as_str() {
            "models" => zoo::NAMES.to_vec(),
            "archs" => presets::NAMES.to_vec(),
            "modes" => OptLevel::ALL.iter().map(|m| m.name()).collect(),
            "strategies" => StrategyKind::NAMES.to_vec(),
            "objectives" => Metric::NAMES.to_vec(),
            "policies" => PolicyKind::NAMES.to_vec(),
            "traces" => GeneratorKind::NAMES.to_vec(),
            "exporters" => vec!["chrome_trace", "profile", "metrics_json"],
            other => {
                return Err(ApiError::argument(format!(
                    "unknown list category `{other}` (expected models, archs, modes, strategies, \
                     objectives, policies, traces or exporters)"
                )));
            }
        };
        Ok(names.into_iter().map(str::to_owned).collect())
    }
}

/// All available cores (the bench/explore `--jobs` default).
fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl std::fmt::Debug for Handler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handler")
            .field("shared_cache", &self.shared_cache.is_some())
            .field("sessions", &self.sessions().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_zoo_memo_still_serves_compiles() {
        let handler = Handler::new();
        let compile = Request::Compile(CompileRequest {
            model: "lenet5".into(),
            arch: "isaac".into(),
            mode: None,
            level: None,
            jobs: 0,
            schedule: false,
            flow: None,
            verify: false,
            dump_stage: None,
            cache: CachePolicy::Off,
            session: None,
        });
        let first = handler.handle(&compile);
        assert!(matches!(first, ResponseBody::Compile(_)), "{first:?}");
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _zoo = handler.zoo.lock();
                panic!("poisoning the zoo memo");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(handler.zoo.is_poisoned());
        // A memoized name and a new one both compile, and the new one
        // joins the memo.
        let again = handler.handle(&compile);
        assert!(matches!(again, ResponseBody::Compile(_)), "{again:?}");
        let mut mlp = compile.clone();
        if let Request::Compile(req) = &mut mlp {
            req.model = "mlp".into();
        }
        let second = handler.handle(&mlp);
        assert!(matches!(second, ResponseBody::Compile(_)), "{second:?}");
        let zoo = handler.zoo.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(zoo.len(), 2);
    }

    #[test]
    fn a_poisoned_session_map_is_cleared_and_still_pins() {
        let handler = Handler::new();
        let pinned = |session: &str| {
            Request::Compile(CompileRequest {
                model: "lenet5".into(),
                arch: "isaac".into(),
                mode: None,
                level: None,
                jobs: 0,
                schedule: false,
                flow: None,
                verify: false,
                dump_stage: None,
                cache: CachePolicy::Off,
                session: Some(session.into()),
            })
        };
        let recompile = |session: &str| {
            Request::Recompile(RecompileRequest {
                session: Some(session.into()),
                compile: None,
                delta: GraphDelta::default(),
            })
        };
        let first = handler.handle(&pinned("a"));
        assert!(matches!(first, ResponseBody::Compile(_)), "{first:?}");
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _sessions = handler.sessions.lock();
                panic!("poisoning the session map mid-recompile");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(handler.sessions.is_poisoned());
        // Debug, a recompile and a new pin all answer instead of
        // panicking; the possibly half-updated session is gone.
        assert!(format!("{handler:?}").contains("sessions: 0"));
        assert!(!handler.sessions.is_poisoned());
        match handler.handle(&recompile("a")) {
            ResponseBody::Error(e) => assert!(e.message.contains("unknown session `a`"), "{e:?}"),
            other => panic!("a cleared session recompiled: {other:?}"),
        }
        let again = handler.handle(&pinned("b"));
        assert!(matches!(again, ResponseBody::Compile(_)), "{again:?}");
        let edited = handler.handle(&recompile("b"));
        assert!(matches!(edited, ResponseBody::Recompiled(_)), "{edited:?}");
    }
}
