//! `cimc` — the CIM-MLC command-line compiler driver.
//!
//! ```text
//! cimc archs                          # list/describe the published accelerator presets
//! cimc models                         # list the model zoo
//! cimc compile --model resnet18 --arch isaac            # schedule report
//! cimc compile --model lenet5 --arch table2 --schedule  # per-stage plan
//! cimc compile --model lenet5 --arch isaac --flow 20    # meta-operator flow head
//! cimc compile --model lenet5 --arch jain --verify      # functional check
//! cimc compile --model path/to/graph.json --arch puma --mode wlm
//! cimc serve --tcp 127.0.0.1:7171     # persistent compile service (JSON lines)
//! cimc loadtest --addr 127.0.0.1:7171 # replay a script against a running server
//! cimc help                           # every subcommand and flag
//! ```
//!
//! Every subcommand is a thin shim: [`main`] parses argv once against
//! the subcommand's flag table ([`cim_mlc::api::args`]), the `cmd_*`
//! function reads typed values into a [`Request`], a [`Handler`]
//! executes it, and the response renders back to text
//! ([`cim_mlc::api::render`]) — the exact same code path `cimc serve`
//! runs for requests arriving as JSON lines. Errors travel as
//! [`CliError`], so a shim is straight-line code with `?`.

#![warn(clippy::too_many_lines)]

use cim_mlc::api::args::{cache_policy, command, parse, reject_trailing, usage, Parsed, COMMANDS};
use cim_mlc::api::{
    render, ApiError, BenchRequest, CompileRequest, ErrorKind, ExploreRequest, Handler,
    ListRequest, RecompileRequest, Request, ResponseBody, SimulateRequest, TraceRequest,
};
use cim_mlc::compiler::TieredCache;
use cim_mlc::loadtest::{fetch_metrics, run_loadtest, send_shutdown, LoadtestOptions};
use cim_mlc::prelude::*;
use cim_mlc::serve::{run_stdio, run_tcp, ServeOptions};
use std::fmt::Display;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use CliError::{Fail, Usage};

/// Why a subcommand stopped: `Usage` prints the message and the usage
/// text and exits 2, `Fail` prints the message and exits 1.
enum CliError {
    Usage(String),
    Fail(String),
}

type Cli = Result<ExitCode, CliError>;

impl From<ApiError> for CliError {
    fn from(error: ApiError) -> Self {
        match error.kind {
            ErrorKind::Argument => Usage(error.message),
            _ => Fail(error.message),
        }
    }
}

impl From<Error> for CliError {
    fn from(error: Error) -> Self {
        Fail(error.render_chain())
    }
}

fn usage_error<T>(message: &str) -> Result<T, CliError> {
    Err(Usage(message.to_owned()))
}

/// Emits a [`render::Rendered`] block; its code (0 or 1) is the exit.
fn finish(rendered: &render::Rendered) -> ExitCode {
    print!("{}", rendered.stdout);
    eprint!("{}", rendered.stderr);
    ExitCode::from(rendered.code)
}

/// Reads `path` and parses it with `parse`; `noun` names the document
/// kind in the error.
fn load<T, E: Display>(
    path: &str,
    noun: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, CliError> {
    let json = std::fs::read_to_string(path).map_err(|e| Error::io(path, e))?;
    parse(&json).map_err(|e| Fail(format!("invalid {noun} `{path}`: {e}")))
}

/// Loads a `--baseline` bench report; one from another schema version
/// names the script that regenerates it.
fn load_baseline(path: &str) -> Result<BenchReport, CliError> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| Fail(format!("cannot read baseline `{path}`: {e}")))?;
    BenchReport::from_json(&json).map_err(|e| {
        let hint = match e {
            DocError::SchemaVersion { .. } => {
                " (regenerate the baseline with scripts/refresh-baseline.sh)"
            }
            DocError::Parse { .. } => "",
        };
        Fail(format!("baseline `{path}`: {e}{hint}"))
    })
}

/// Every file the binary writes goes through here: temp file + rename,
/// so an interrupted run never leaves a truncated document behind.
fn write_out(path: &str, noun: &str, bytes: &[u8]) -> Result<(), CliError> {
    write_atomic(Path::new(path), bytes)
        .map_err(|e| Fail(format!("cannot write {noun} to `{path}`: {e}")))
}

/// `--out`: the JSON document plus a trailing newline, then a
/// confirmation line on stdout.
fn write_doc(path: &str, noun: &str, mut json: String) -> Result<(), CliError> {
    json.push('\n');
    write_out(path, noun, json.as_bytes())?;
    println!("{noun} written to {path}");
    Ok(())
}

/// The `--no-cache`/`--cache-dir` pair of the subcommands that have it.
fn cache(flags: &Parsed) -> Result<CachePolicy, CliError> {
    cache_policy(flags.has("--no-cache"), flags.text("--cache-dir")).map_err(Usage)
}

/// A choice flag's word as its wire enum (`cm` → `ModeArg::Cm`).
fn choice<T: serde::Deserialize>(flags: &Parsed, name: &str) -> Option<T> {
    let word = flags.text(name)?;
    Some(serde_json::from_str(&format!("\"{word}\"")).expect("table choices are the wire names"))
}

/// Drains the trace collector into the exports `compile`, `bench`,
/// `explore` and `simulate` offer: `--trace-out <file>` writes a Chrome
/// trace-event document (load it in Perfetto or chrome://tracing),
/// `--profile` prints a hot-path tree to stderr. The Chrome document is
/// validated against the trace-event schema before it is written, so an
/// exporter bug fails the command loudly instead of producing a file
/// the viewer rejects.
fn export_trace(trace_out: Option<&str>, profile: bool) -> Result<(), CliError> {
    cim_obs::disable();
    let trace = cim_obs::drain();
    if let Some(path) = trace_out {
        let json = cim_obs::chrome_trace_json(&trace);
        let summary = cim_obs::validate_chrome_trace(&json).map_err(|e| {
            Fail(format!(
                "internal error: exported an invalid chrome trace: {e}"
            ))
        })?;
        write_out(path, "trace", json.as_bytes())?;
        let (events, spans) = (summary.events, summary.complete);
        eprintln!("trace: {events} events ({spans} spans) written to {path}");
    }
    if profile {
        eprint!("{}", cim_obs::profile_tree(&trace));
    }
    Ok(())
}

/// Runs `request` on a one-shot [`Handler`]. `obs` is the flags of a
/// subcommand that takes `--trace-out`/`--profile`: either turns the
/// trace collector on for exactly the span of the request.
fn execute(request: &Request, obs: Option<&Parsed>) -> Result<ResponseBody, CliError> {
    let trace_out = obs.and_then(|flags| flags.text("--trace-out"));
    let profile = obs.is_some_and(|flags| flags.has("--profile"));
    let active = trace_out.is_some() || profile;
    if active {
        cim_obs::enable();
    }
    let response = Handler::new().handle(request);
    if active {
        export_trace(trace_out.as_deref(), profile)?;
    }
    match response {
        ResponseBody::Error(e) => Err(e.into()),
        body => Ok(body),
    }
}

fn cmd_archs(args: &[String]) -> Cli {
    reject_trailing("archs", args).map_err(Usage)?;
    for arch in presets::all() {
        println!("{}", arch.describe());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_models(args: &[String]) -> Cli {
    reject_trailing("models", args).map_err(Usage)?;
    println!(
        "{:<12} {:>7} {:>9} {:>14} {:>14}",
        "model", "nodes", "CIM ops", "weights", "MACs"
    );
    for g in zoo::all() {
        println!(
            "{:<12} {:>7} {:>9} {:>14} {:>14}",
            g.name(),
            g.len(),
            g.cim_nodes().len(),
            g.total_weights(),
            g.total_macs()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `cimc list <category>` — the discoverable vocabularies of the sweep
/// and exploration axes, one value per line (machine-friendly: pipe
/// into `xargs`/scripts instead of reading source).
fn cmd_list(args: &[String]) -> Cli {
    let Some((category, rest)) = args.split_first() else {
        return usage_error(
            "`cimc list` needs a category (models, archs, modes, strategies, objectives, \
             policies, traces or exporters)",
        );
    };
    reject_trailing(&format!("list {category}"), rest).map_err(Usage)?;
    let request = Request::List(ListRequest {
        category: category.clone(),
    });
    let ResponseBody::List { names } = execute(&request, None)? else {
        unreachable!("list requests yield listings")
    };
    print!("{}", render::render_list(&names));
    Ok(ExitCode::SUCCESS)
}

/// The `--mode`/`--level` core `compile` and `recompile` share;
/// everything else is off.
fn compile_request(flags: &Parsed, model: String, arch: String) -> CompileRequest {
    CompileRequest {
        model,
        arch,
        mode: choice(flags, "--mode"),
        level: choice(flags, "--level"),
        jobs: 0,
        schedule: false,
        flow: None,
        verify: false,
        dump_stage: None,
        cache: CachePolicy::Off,
        session: None,
    }
}

fn cmd_compile(flags: &Parsed) -> Cli {
    let (Some(model), Some(arch)) = (flags.text("--model"), flags.text("--arch")) else {
        return usage_error("`cimc compile` needs both --model and --arch");
    };
    let json = flags.has("--json");
    let schedule = flags.has("--schedule");
    let flow = flags.number("--flow");
    let dump_stage = choice(flags, "--dump-stage");
    if json && (schedule || flow.is_some() || dump_stage.is_some()) {
        return usage_error("--json cannot be combined with --schedule, --flow or --dump-stage");
    }
    let request = Request::Compile(CompileRequest {
        schedule,
        flow,
        verify: flags.has("--verify"),
        dump_stage,
        cache: cache(flags)?,
        ..compile_request(flags, model, arch)
    });
    let ResponseBody::Compile(outcome) = execute(&request, Some(flags))? else {
        unreachable!("compile requests yield compile outcomes")
    };
    let timings = flags.has("--timings");
    Ok(finish(&render::render_compile(&outcome, json, timings)))
}

/// `cimc recompile` — the one-shot incremental-recompilation shim: cold
/// compile, apply `--delta` through [`Session::recompile`], fresh
/// compile of the mutated graph, and report timings, per-region reuse,
/// and equivalence. `--out-incremental`/`--out-fresh` write the two
/// byte-comparable result documents for external diffing (CI `cmp`s
/// them).
fn cmd_recompile(flags: &Parsed) -> Cli {
    let (Some(model), Some(arch), Some(delta_path)) = (
        flags.text("--model"),
        flags.text("--arch"),
        flags.text("--delta"),
    ) else {
        return usage_error("`cimc recompile` needs --model, --arch and --delta");
    };
    let request = Request::Recompile(RecompileRequest {
        session: None,
        compile: Some(compile_request(flags, model, arch)),
        delta: load(&delta_path, "graph delta", serde_json::from_str)?,
    });
    let ResponseBody::Recompiled(outcome) = execute(&request, None)? else {
        unreachable!("recompile requests yield recompile outcomes")
    };
    if let Some(path) = flags.text("--out-incremental") {
        let doc = render::render_comparable(&outcome.incremental);
        write_out(&path, "report", doc.as_bytes())?;
    }
    if let Some(path) = flags.text("--out-fresh") {
        let Some(fresh) = &outcome.fresh else {
            return Err(Fail(
                "--out-fresh needs a one-shot recompile (no fresh compile ran)".into(),
            ));
        };
        write_out(&path, "report", render::render_comparable(fresh).as_bytes())?;
    }
    let (json, timings) = (flags.has("--json"), flags.has("--timings"));
    Ok(finish(&render::render_recompile(&outcome, json, timings)))
}

fn cmd_explore(flags: &Parsed) -> Cli {
    let cache = cache(flags)?;
    let space = match flags.text("--space") {
        Some(path) => Some(load(&path, "design space", serde_json::from_str)?),
        None => None,
    };
    let trace = match flags.text("--trace") {
        Some(path) => Some(load(&path, "trace", Trace::from_json)?),
        None => None,
    };
    let request = Request::Explore(ExploreRequest {
        model: flags.text("--model"),
        space,
        strategy: flags.text("--strategy"),
        objective: flags.text("--objective"),
        trace,
        trace_spec: None,
        policy: flags.text("--policy"),
        budget: flags.number("--budget"),
        seed: flags.number("--seed"),
        jobs: flags.number("--jobs").unwrap_or(0),
        cache,
    });
    let ResponseBody::Explore { report } = execute(&request, Some(flags))? else {
        unreachable!("explore requests yield exploration reports")
    };
    print!("{}", render::render_explore(&report));
    if let Some(path) = flags.text("--out") {
        let json = if flags.has("--comparable") {
            report.comparable().to_json()
        } else {
            report.to_json()
        };
        write_doc(&path, "report", json)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The [`TraceSpec`] the inline generation flags describe.
fn inline_spec(flags: &Parsed, models: Vec<String>) -> TraceSpec {
    let kind = flags.text("--kind").and_then(|k| GeneratorKind::parse(&k));
    let mean_gap = flags.number("--mean-gap").unwrap_or(5_000.0);
    let burst_len = flags.number::<u64>("--burst-len").unwrap_or(8);
    let deadline = flags.number("--deadline");
    // Earlier-listed tenants get higher priority so the `priority`
    // policy is meaningful on inline-generated traces; full per-tenant
    // control lives in `--spec`.
    let count = models.len();
    let tenant = |(idx, model)| TenantSpec {
        name: format!("tenant{idx}"),
        model,
        weight: 1.0,
        priority: u32::try_from(count - 1 - idx).unwrap_or(0),
        deadline,
    };
    TraceSpec {
        name: flags.text("--name").unwrap_or_else(|| "trace".to_owned()),
        kind: kind.unwrap_or(GeneratorKind::Poisson),
        seed: flags.number("--seed").unwrap_or(42),
        horizon: flags.number("--horizon").unwrap_or(1_000_000),
        mean_gap,
        burst_len: u32::try_from(burst_len).unwrap_or(u32::MAX),
        // Bursty streams idle an order of magnitude longer than they
        // burst unless told otherwise.
        idle_gap: flags.number("--idle-gap").unwrap_or(mean_gap * 10.0),
        tenants: models.into_iter().enumerate().map(tenant).collect(),
    }
}

/// `cimc trace` — generate a seeded request trace (or describe an
/// existing one with `--describe`). Flags build a [`TraceSpec`] inline;
/// `--spec` loads one from JSON for full per-tenant control.
fn cmd_trace(flags: &Parsed) -> Cli {
    // Every other `trace` flag shapes the inline-generated spec.
    let generation = flags
        .given()
        .any(|name| !matches!(name, "--spec" | "--describe" | "--out"));
    let (spec_path, out) = (flags.text("--spec"), flags.text("--out"));
    let (spec, trace) = if let Some(path) = flags.text("--describe") {
        if generation || spec_path.is_some() || out.is_some() {
            return usage_error(
                "--describe cannot be combined with generation flags, --spec or --out",
            );
        }
        (None, Some(load(&path, "trace", Trace::from_json)?))
    } else if let Some(path) = spec_path {
        if generation {
            return usage_error("--spec cannot be combined with inline generation flags");
        }
        (Some(load(&path, "trace spec", serde_json::from_str)?), None)
    } else {
        let Some(models) = flags.list("--models") else {
            return usage_error("`cimc trace` needs --models <a,b,..> (or --spec / --describe)");
        };
        (Some(inline_spec(flags, models)), None)
    };
    let request = Request::Trace(TraceRequest { spec, trace });
    let ResponseBody::Trace { trace, description } = execute(&request, None)? else {
        unreachable!("trace requests yield trace responses")
    };
    print!("{}", render::render_trace(&description));
    if let Some(path) = out {
        let Some(trace) = trace else {
            return usage_error("--out needs a generated trace");
        };
        write_doc(&path, "trace", trace.to_json())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `cimc simulate` — replay a trace against a chip partitioned across
/// the trace's models, once per scheduling policy, and rank the
/// policies. `--out` writes the JSON report array; `--comparable`
/// zeroes the wall clocks so committed baselines only change when
/// metrics do.
fn cmd_simulate(flags: &Parsed) -> Cli {
    let cache = cache(flags)?;
    let (trace, spec) = match (flags.text("--trace"), flags.text("--spec")) {
        (Some(_), Some(_)) => return usage_error("--trace cannot be combined with --spec"),
        (Some(path), None) => (Some(load(&path, "trace", Trace::from_json)?), None),
        (None, Some(path)) => (None, Some(load(&path, "trace spec", serde_json::from_str)?)),
        (None, None) => {
            return usage_error("`cimc simulate` needs --trace <file.json> or --spec <file.json>");
        }
    };
    let request = Request::Simulate(SimulateRequest {
        trace,
        spec,
        arch: flags.text("--arch"),
        placement: None,
        policies: flags.list("--policies"),
        max_batch: flags.number("--max-batch"),
        max_wait: flags.number("--max-wait"),
        jobs: flags.number("--jobs").unwrap_or(0),
        cache,
    });
    let ResponseBody::Simulate { mut reports } = execute(&request, Some(flags))? else {
        unreachable!("simulate requests yield traffic reports")
    };
    print!("{}", render::render_simulate(&reports));
    if let Some(path) = flags.text("--out") {
        if flags.has("--comparable") {
            reports = reports.iter().map(TrafficReport::comparable).collect();
        }
        let json =
            serde_json::to_string_pretty(&reports).expect("traffic reports always serialize");
        write_doc(&path, "report", json)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench(flags: &Parsed) -> Cli {
    let modes = flags.list("--modes").map(|names| {
        let parse = |name: &String| OptLevel::parse(name).expect("the table lists the modes");
        names.iter().map(parse).collect()
    });
    let request = Request::Bench(BenchRequest {
        quick: flags.has("--quick"),
        models: flags.list("--models"),
        archs: flags.list("--archs"),
        modes,
        jobs: flags.number("--jobs").unwrap_or(0),
        cache: cache(flags)?,
    });
    let ResponseBody::Bench { report } = execute(&request, Some(flags))? else {
        unreachable!("bench requests yield bench reports")
    };
    print!("{}", render::render_bench(&report));
    if let Some(path) = flags.text("--out") {
        // `--comparable` strips the run-specific fields (wall clocks,
        // cache stats) so committed baselines only change when the
        // metrics do.
        let json = if flags.has("--comparable") {
            report.comparable().to_json()
        } else {
            report.to_json()
        };
        write_doc(&path, "report", json)?;
    }
    let fail_on_regression = flags.has("--fail-on-regression");
    if let Some(path) = flags.text("--baseline") {
        let baseline = load_baseline(&path)?;
        let tolerance = flags.number::<f64>("--tolerance");
        let tol =
            tolerance.map_or_else(Tolerances::default, |pct| Tolerances::uniform(pct / 100.0));
        let diff = compare(&baseline, &report, &tol);
        print!("\n{}", diff.render());
        if fail_on_regression && !diff.passes() {
            return Ok(ExitCode::FAILURE);
        }
    } else if fail_on_regression {
        return usage_error("--fail-on-regression needs --baseline <file.json>");
    }
    Ok(ExitCode::SUCCESS)
}

/// `cimc serve` — the persistent compile service (see
/// [`cim_mlc::serve`]). One handler, one shared cache, one bounded
/// worker pool; requests arrive as JSON lines on stdin (default) or TCP.
fn cmd_serve(flags: &Parsed) -> Cli {
    let tcp = flags.text("--tcp");
    if flags.has("--stdio") && tcp.is_some() {
        return usage_error("--stdio cannot be combined with --tcp");
    }
    // The whole point of serving: one process-wide cache, so every
    // request after the first compiles warm. In-memory by default;
    // memory+disk under `--cache-dir` (warm across restarts too).
    let handler = match cache(flags)? {
        CachePolicy::Off => Handler::new(),
        CachePolicy::Default => Handler::with_shared_cache(Arc::new(MemoryCache::new())),
        CachePolicy::Disk { dir } => {
            let cache = TieredCache::open(&dir)
                .map_err(|e| Fail(format!("cannot open cache dir `{dir}`: {e}")))?;
            Handler::with_shared_cache(Arc::new(cache))
        }
    };
    let options = ServeOptions {
        workers: flags.number("--workers").unwrap_or(0),
        queue_capacity: flags.number("--queue").unwrap_or(64),
        default_deadline_ms: flags.number("--deadline-ms"),
        metrics: flags.has("--metrics"),
    };
    let result = if let Some(addr) = tcp {
        let listener = std::net::TcpListener::bind(&addr)
            .map_err(|e| Fail(format!("cannot bind `{addr}`: {e}")))?;
        match listener.local_addr() {
            Ok(local) => println!("cimc serve: listening on {local}"),
            Err(_) => println!("cimc serve: listening on {addr}"),
        }
        // Scripts parse the line above to discover the bound port
        // (`--tcp 127.0.0.1:0`); make sure it is out before serving.
        let _ = std::io::stdout().flush();
        run_tcp(handler, &listener, &options)
    } else {
        eprintln!("cimc serve: reading JSON-lines requests on stdin");
        run_stdio(handler, &options)
    };
    result.map_err(|e| Fail(format!("serve error: {e}")))?;
    Ok(ExitCode::SUCCESS)
}

/// `--metrics`: scrape the server's snapshot and print it.
fn print_metrics(addr: &str) -> Result<(), CliError> {
    let snapshot = fetch_metrics(addr)?;
    print!("{}", cim_obs::metrics_text(&snapshot));
    Ok(())
}

/// `--shutdown`: ask the server to drain and exit.
fn shutdown(addr: &str) -> Result<(), CliError> {
    send_shutdown(addr)?;
    println!("shutdown sent to {addr}");
    Ok(())
}

/// `cimc loadtest` — replay a request script against a running server
/// (see [`cim_mlc::loadtest`]) and report latency percentiles,
/// throughput, outcome counts and the warm-cache hit rate.
fn cmd_loadtest(flags: &Parsed) -> Cli {
    let Some(addr) = flags.text("--addr") else {
        return usage_error("`cimc loadtest` needs --addr <host:port>");
    };
    let (requests, metrics) = (flags.number("--requests"), flags.has("--metrics"));
    // `--shutdown` without an explicit request count is a pure shutdown
    // message — the idiom CI uses to stop the server it started.
    if flags.has("--shutdown") && requests.is_none() {
        if metrics {
            print_metrics(&addr)?;
        }
        shutdown(&addr)?;
        return Ok(ExitCode::SUCCESS);
    }
    let mut options = LoadtestOptions::new(addr.clone());
    options.requests = requests.unwrap_or(options.requests);
    options.concurrency = flags.number("--concurrency").unwrap_or(options.concurrency);
    options.deadline_ms = flags.number("--deadline-ms");
    if let Some(path) = flags.text("--script") {
        let json = std::fs::read_to_string(&path)
            .map_err(|e| Fail(format!("cannot read script `{path}`: {e}")))?;
        options.script = serde_json::from_str(&json)
            .map_err(|e| Fail(format!("invalid loadtest script `{path}`: {e}")))?;
    }
    let report = run_loadtest(&options)?;
    print!("{}", report.render());
    if let Some(path) = flags.text("--out") {
        write_doc(&path, "report", report.to_json())?;
    }
    if metrics {
        // Scrape before shutting the server down — afterwards there is
        // nothing left to answer.
        print_metrics(&addr)?;
    }
    if flags.has("--shutdown") {
        shutdown(&addr)?;
    }
    if report.protocol_errors > 0 {
        return Err(Fail(format!(
            "loadtest: {} protocol error(s) — see the report above",
            report.protocol_errors
        )));
    }
    Ok(ExitCode::SUCCESS)
}

/// Routes `args` to its subcommand, parsing flags on the way.
fn run(args: &[String]) -> Cli {
    let Some((name, rest)) = args.split_first() else {
        return usage_error("");
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    }
    let Some(cmd) = command(name) else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        let expected = names.join(", ");
        return usage_error(&format!(
            "unknown subcommand `{name}` (expected {expected} or help)"
        ));
    };
    let shim: fn(&Parsed) -> Cli = match cmd.name {
        "archs" => return cmd_archs(rest),
        "models" => return cmd_models(rest),
        "list" => return cmd_list(rest),
        "compile" => cmd_compile,
        "recompile" => cmd_recompile,
        "bench" => cmd_bench,
        "explore" => cmd_explore,
        "trace" => cmd_trace,
        "simulate" => cmd_simulate,
        "serve" => cmd_serve,
        "loadtest" => cmd_loadtest,
        other => unreachable!("`{other}` is in COMMANDS but has no shim"),
    };
    let Some(flags) = parse(cmd, rest).map_err(Usage)? else {
        println!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    };
    shim(&flags)
}

fn main() -> ExitCode {
    // CIM_OBS=1 turns tracing and metrics on for any subcommand without
    // touching its flags.
    if std::env::var("CIM_OBS").is_ok_and(|v| v == "1") {
        cim_obs::enable();
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(Fail(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
        Err(Usage(message)) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
