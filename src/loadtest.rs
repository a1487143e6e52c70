//! `cimc loadtest` — a scripted replay client for `cimc serve`.
//!
//! Opens [`LoadtestOptions::concurrency`] TCP connections, replays
//! [`LoadtestOptions::requests`] requests drawn round-robin from a
//! script (each stamped with a unique correlation id), classifies every
//! response, and aggregates the samples into a schema-versioned
//! [`LoadtestReport`] (p50/p99/max latency per request key, throughput,
//! outcome counts, warm-cache hit rate).
//!
//! Warmth is judged per response from the compile outcome's own pass
//! timeline ([`CompileOutcome::warm`](crate::api::CompileOutcome::warm)),
//! not from the server's shared counters, so concurrent requests cannot
//! blur each other's classification.

use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};

use cim_bench::{LoadSample, LoadtestReport, SampleClass};

use crate::api::{write_line, ApiError, Request, RequestEnvelope, Response, ResponseBody};
use crate::Error;

/// What to replay and how hard.
#[derive(Debug, Clone)]
pub struct LoadtestOptions {
    /// The server's `host:port`.
    pub addr: String,
    /// Total requests to replay (default 1000).
    pub requests: usize,
    /// Concurrent client connections (default 8).
    pub concurrency: usize,
    /// Deadline stamped on every envelope (absent = none).
    pub deadline_ms: Option<f64>,
    /// The request script, cycled round-robin across the run.
    pub script: Vec<Request>,
}

impl LoadtestOptions {
    /// Defaults: 1000 requests on 8 connections replaying
    /// [`default_script`].
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        LoadtestOptions {
            addr: addr.into(),
            requests: 1000,
            concurrency: 8,
            deadline_ms: None,
            script: default_script(),
        }
    }
}

/// The stock replay script: compile requests over a small model×arch
/// matrix, all against the server's shared cache — after each pair's
/// first compile, every repeat should run fully warm.
#[must_use]
pub fn default_script() -> Vec<Request> {
    let mut script = Vec::new();
    for model in ["lenet5", "mlp"] {
        for arch in ["isaac", "jain"] {
            script.push(Request::Compile(crate::api::CompileRequest {
                model: model.to_owned(),
                arch: arch.to_owned(),
                mode: None,
                level: None,
                jobs: 0,
                schedule: false,
                flow: None,
                verify: false,
                dump_stage: None,
                cache: crate::api::CachePolicy::Default,
                session: None,
            }));
        }
    }
    script
}

/// Opens a client connection with `TCP_NODELAY` set — the client half of
/// the wire contract in [`crate::api`].
fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Replays the script against a running server and aggregates the
/// samples into a [`LoadtestReport`].
///
/// # Errors
/// Returns [`Error::Api`] when the options are vacuous (no requests, an
/// empty script, zero concurrency) and [`Error::Io`] when a connection
/// cannot be established. Failures *after* connection setup are data,
/// not errors: they land in the report as protocol-error samples.
pub fn run_loadtest(options: &LoadtestOptions) -> Result<LoadtestReport, Error> {
    if options.requests == 0 {
        return Err(ApiError::argument("loadtest needs at least one request").into());
    }
    if options.script.is_empty() {
        return Err(ApiError::argument("loadtest script is empty").into());
    }
    if options.concurrency == 0 {
        return Err(ApiError::argument("loadtest needs at least one connection").into());
    }
    // Fail fast on an unreachable server before spawning the fleet.
    let probe = TcpStream::connect(&options.addr).map_err(|e| Error::io(&options.addr, e))?;
    drop(probe);

    let next = AtomicUsize::new(0);
    let started = cim_obs::stopwatch();
    let mut samples: Vec<LoadSample> = Vec::with_capacity(options.requests);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.concurrency)
            .map(|_| scope.spawn(|| replay_connection(options, &next)))
            .collect();
        for handle in handles {
            samples.extend(handle.join().expect("loadtest connection thread panicked"));
        }
    });
    let total_ms = started.elapsed_ms();
    Ok(LoadtestReport::from_samples(
        &samples,
        options.concurrency,
        total_ms,
    ))
}

/// One connection's replay loop: pull the next global request index,
/// send, await the matching response, classify.
fn replay_connection(options: &LoadtestOptions, next: &AtomicUsize) -> Vec<LoadSample> {
    let mut samples = Vec::new();
    let Ok(stream) = connect(&options.addr) else {
        // The pre-flight probe succeeded, so a refused connection here
        // is a server defect — surface it as a protocol sample per
        // request this connection would have carried.
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index < options.requests {
            samples.push(LoadSample {
                key: options.script[index % options.script.len()].key(),
                class: SampleClass::Protocol,
                latency_ms: 0.0,
                warm: None,
            });
        }
        return samples;
    };
    let Ok(read_half) = stream.try_clone() else {
        return samples;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= options.requests {
            return samples;
        }
        let request = options.script[index % options.script.len()].clone();
        let key = request.key();
        let mut envelope = RequestEnvelope::new(index as u64 + 1, request);
        envelope.deadline_ms = options.deadline_ms;
        let sent_at = cim_obs::stopwatch();
        if write_line(&mut writer, envelope.to_json()).is_err() {
            samples.push(protocol_sample(key, sent_at));
            return samples;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                samples.push(protocol_sample(key, sent_at));
                return samples;
            }
        }
        let latency_ms = sent_at.elapsed_ms();
        let (class, warm) = match Response::from_json(&line) {
            Ok(response) if response.id == envelope.id => match &response.body {
                ResponseBody::Overloaded { .. } => (SampleClass::Overloaded, None),
                ResponseBody::DeadlineExceeded { .. } => (SampleClass::DeadlineExceeded, None),
                ResponseBody::Error(_) => (SampleClass::Error, None),
                ResponseBody::Compile(outcome) => (SampleClass::Ok, outcome.warm()),
                _ => (SampleClass::Ok, None),
            },
            // Unparseable or mis-correlated responses are protocol
            // violations, never acceptable in a healthy run.
            _ => (SampleClass::Protocol, None),
        };
        samples.push(LoadSample {
            key,
            class,
            latency_ms,
            warm,
        });
    }
}

fn protocol_sample(key: String, sent_at: cim_obs::Stopwatch<'_>) -> LoadSample {
    LoadSample {
        key,
        class: SampleClass::Protocol,
        latency_ms: sent_at.elapsed_ms(),
        warm: None,
    }
}

/// Scrapes a running server's live metrics snapshot
/// ([`Request::Metrics`]). The scrape is answered inline by the server
/// (it never occupies a worker), so it works even under full queues.
///
/// # Errors
/// Returns [`Error::Io`] when the server cannot be reached and
/// [`Error::Api`] when it answers with anything but a metrics body
/// (e.g. an old server that predates the request).
pub fn fetch_metrics(addr: &str) -> Result<cim_obs::MetricsSnapshot, Error> {
    let mut stream = connect(addr).map_err(|e| Error::io(addr, e))?;
    let envelope = RequestEnvelope::new(0, Request::Metrics);
    write_line(&mut stream, envelope.to_json()).map_err(|e| Error::io(addr, e))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| Error::io(addr, e))?;
    let response = Response::from_json(&line)
        .map_err(|e| Error::from(ApiError::protocol(format!("invalid metrics response: {e}"))))?;
    match response.body {
        ResponseBody::Metrics { metrics } => Ok(metrics),
        ResponseBody::Error(e) => Err(e.into()),
        other => Err(ApiError::protocol(format!(
            "unexpected response to a metrics request: {other:?}"
        ))
        .into()),
    }
}

/// Asks a running server to shut down gracefully (best effort: the
/// response is awaited but its content ignored).
///
/// # Errors
/// Returns [`Error::Io`] when the server cannot be reached or the
/// request cannot be written.
pub fn send_shutdown(addr: &str) -> Result<(), Error> {
    let mut stream = connect(addr).map_err(|e| Error::io(addr, e))?;
    let envelope = RequestEnvelope::new(0, Request::Shutdown);
    write_line(&mut stream, envelope.to_json()).map_err(|e| Error::io(addr, e))?;
    let mut line = String::new();
    let _ = BufReader::new(stream).read_line(&mut line);
    Ok(())
}
