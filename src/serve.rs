//! `cimc serve` — a persistent compile service speaking the
//! [`api`](crate::api) JSON-lines protocol over stdio or TCP.
//!
//! One process, one [`Handler`] (usually with a shared memory+disk
//! cache), one bounded-queue worker [`Pool`]: every line read is parsed
//! into a [`RequestEnvelope`], admitted onto the pool (or rejected with
//! a structured [`ResponseBody::Overloaded`]), executed, and answered
//! with one [`Response`] line carrying the request's id and timing.
//! Responses may interleave across requests — clients correlate by id.
//!
//! # Robustness
//!
//! * **Admission control** — the queue is bounded
//!   ([`ServeOptions::queue_capacity`]); a full queue answers
//!   `overloaded` immediately instead of buffering without limit.
//! * **Deadlines** — a request whose `deadline_ms` elapses while it is
//!   still queued (or while it runs) is answered with
//!   `deadline_exceeded` instead of a stale result.
//! * **Graceful drain** — on [`Request::Shutdown`]
//!   (or stdin EOF), the server stops admitting work, finishes every
//!   queued job, flushes the answers and joins its workers.
//! * **Malformed input** — an unparseable line gets an `error` response
//!   with kind `protocol` (id 0); the connection stays usable.
//!
//! # Observability
//!
//! With [`ServeOptions::metrics`] (CLI: `cimc serve --metrics`) the
//! server keeps live counters — `requests_total` (pool-executed
//! requests answered `ok` or `error`), `responses_ok_total`,
//!   `responses_error_total`, `overloaded_total`,
//! `deadline_exceeded_total` — plus a `queue_depth` gauge, scrapeable
//! over the wire with [`Request::Metrics`] (answered inline, never
//! through the pool, so the scrape cannot count itself). When the trace
//! collector is enabled, every request is decomposed into
//! `serve:parse` → `serve:queue` → `serve:execute` → `serve:render`
//! spans.

use std::io::{self, BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cim_compiler::pool::Pool;
use cim_obs::{keys, TraceClock};

use crate::api::{
    ApiError, Handler, Request, RequestEnvelope, Response, ResponseBody, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};

/// How often blocked accept/read loops wake up to observe draining.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Tuning knobs for [`run_stdio`]/[`run_tcp`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads; 0 means all available cores (clamped either way).
    pub workers: usize,
    /// Bounded queue: jobs admitted but not yet started. Beyond this,
    /// requests are answered `overloaded`.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<f64>,
    /// Reset and enable the process-wide metrics registry at startup,
    /// making [`Request::Metrics`] scrapes return live counters.
    pub metrics: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            queue_capacity: 64,
            default_deadline_ms: None,
            metrics: false,
        }
    }
}

impl ServeOptions {
    fn worker_threads(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// State shared between the transport loops and the worker pool.
struct ServerState {
    handler: Handler,
    draining: AtomicBool,
    default_deadline_ms: Option<f64>,
}

type Respond = Arc<dyn Fn(Response) + Send + Sync>;

/// Bumps the response-class counters: `requests_total` counts requests
/// that produced an `ok` or `error` body (what a load generator counts
/// as completed work), admission and deadline rejections get their own
/// counters, and control-plane answers (shutdown, metrics) count
/// nothing. No-ops entirely while the registry is disabled.
fn record_response(body: &ResponseBody) {
    match body {
        ResponseBody::Overloaded { .. } => cim_obs::count("overloaded_total", 1),
        ResponseBody::DeadlineExceeded { .. } => cim_obs::count("deadline_exceeded_total", 1),
        ResponseBody::Error(_) => {
            cim_obs::count("requests_total", 1);
            cim_obs::count("responses_error_total", 1);
        }
        ResponseBody::ShuttingDown { .. } | ResponseBody::Metrics { .. } => {}
        _ => {
            cim_obs::count("requests_total", 1);
            cim_obs::count("responses_ok_total", 1);
        }
    }
}

/// Microseconds-to-milliseconds on the shared [`TraceClock`] timeline.
fn ms_since(start_us: u64, end_us: u64) -> f64 {
    end_us.saturating_sub(start_us) as f64 / 1e3
}

/// Parses and dispatches one input line. Returns `false` when the line
/// asked the server to shut down.
fn handle_line(state: &Arc<ServerState>, pool: &Pool, line: &str, respond: &Respond) -> bool {
    let line = line.trim();
    if line.is_empty() {
        return true;
    }
    let parsed = {
        let _parse = cim_obs::span("serve", "parse");
        RequestEnvelope::from_json(line)
    };
    let envelope = match parsed {
        Ok(envelope) => envelope,
        Err(e) => {
            let body = ResponseBody::Error(ApiError::protocol(format!("invalid request: {e}")));
            record_response(&body);
            respond(Response::new(0, 0.0, body));
            return true;
        }
    };
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&envelope.protocol_version) {
        let body = ResponseBody::Error(ApiError::protocol(format!(
            "unsupported protocol version {} (supported {}..={})",
            envelope.protocol_version, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION
        )));
        record_response(&body);
        respond(Response::new(envelope.id, 0.0, body));
        return true;
    }
    // Control-plane requests are answered inline, never through the
    // pool: a metrics scrape must not occupy a worker (or count itself
    // in the request counters), and shutdown must work under overload.
    if matches!(envelope.request, Request::Metrics) {
        cim_obs::gauge_set("queue_depth", pool.depth() as i64);
        respond(Response::new(
            envelope.id,
            0.0,
            ResponseBody::Metrics {
                metrics: cim_obs::metrics().snapshot(),
            },
        ));
        return true;
    }
    if matches!(envelope.request, Request::Shutdown) {
        state.draining.store(true, Ordering::SeqCst);
        respond(Response::new(
            envelope.id,
            0.0,
            ResponseBody::ShuttingDown {
                pending: pool.depth(),
            },
        ));
        return false;
    }
    if state.draining.load(Ordering::SeqCst) {
        let body = ResponseBody::Error(ApiError::unavailable("server is draining"));
        record_response(&body);
        respond(Response::new(envelope.id, 0.0, body));
        return true;
    }

    let received_us = TraceClock::global().now_us();
    let deadline_ms = envelope.deadline_ms.or(state.default_deadline_ms);
    let id = envelope.id;
    let request = envelope.request;
    let job_state = Arc::clone(state);
    let job_respond = Arc::clone(respond);
    let job = Box::new(move || {
        let dequeued_us = TraceClock::global().now_us();
        cim_obs::complete_span("serve", "queue", received_us, dequeued_us, Vec::new());
        let expired =
            |now_us: u64| deadline_ms.is_some_and(|ms| ms_since(received_us, now_us) > ms);
        // Check the deadline both at dequeue (the request may have sat in
        // the queue past it — skip the work entirely) and after running
        // (a late answer is as useless as none).
        let body = if expired(dequeued_us) {
            ResponseBody::DeadlineExceeded {
                deadline_ms: deadline_ms.expect("expired implies a deadline"),
            }
        } else {
            let body = {
                let mut span = cim_obs::span("serve", "execute");
                span.set(keys::KIND, request.key());
                job_state.handler.handle(&request)
            };
            if expired(TraceClock::global().now_us()) {
                ResponseBody::DeadlineExceeded {
                    deadline_ms: deadline_ms.expect("expired implies a deadline"),
                }
            } else {
                body
            }
        };
        record_response(&body);
        let _render = cim_obs::span("serve", "render");
        job_respond(Response::new(
            id,
            ms_since(received_us, TraceClock::global().now_us()),
            body,
        ));
    });
    if let Err(full) = pool.try_submit(job) {
        let body = ResponseBody::Overloaded {
            queue_depth: full.depth,
            capacity: full.capacity,
        };
        record_response(&body);
        respond(Response::new(
            id,
            ms_since(received_us, TraceClock::global().now_us()),
            body,
        ));
    }
    true
}

/// Serves the JSON-lines protocol on stdin/stdout until EOF or a
/// `shutdown` request, then drains gracefully.
///
/// # Errors
/// Propagates stdin read failures. Write failures on stdout are
/// swallowed (the peer is gone; nothing useful can be reported to it).
pub fn run_stdio(handler: Handler, options: &ServeOptions) -> io::Result<()> {
    if options.metrics {
        cim_obs::metrics().reset();
        cim_obs::metrics().enable();
    }
    let state = Arc::new(ServerState {
        handler,
        draining: AtomicBool::new(false),
        default_deadline_ms: options.default_deadline_ms,
    });
    let pool = Pool::new(options.worker_threads(), options.queue_capacity);
    let stdout: Arc<Mutex<io::Stdout>> = Arc::new(Mutex::new(io::stdout()));
    let respond: Respond = Arc::new(move |response: Response| {
        let mut out = stdout.lock().expect("stdout writer poisoned");
        let _ = writeln!(out, "{}", response.to_json());
        let _ = out.flush();
    });
    for line in io::stdin().lock().lines() {
        let line = line?;
        if !handle_line(&state, &pool, &line, &respond) {
            break;
        }
    }
    pool.drain();
    Ok(())
}

/// Serves the JSON-lines protocol on a TCP listener (one reader thread
/// per connection, responses written under a per-connection lock) until
/// a `shutdown` request arrives on any connection, then drains
/// gracefully.
///
/// # Errors
/// Propagates listener configuration and accept failures. Per-connection
/// IO failures terminate only that connection.
pub fn run_tcp(handler: Handler, listener: &TcpListener, options: &ServeOptions) -> io::Result<()> {
    if options.metrics {
        cim_obs::metrics().reset();
        cim_obs::metrics().enable();
    }
    let state = Arc::new(ServerState {
        handler,
        draining: AtomicBool::new(false),
        default_deadline_ms: options.default_deadline_ms,
    });
    let pool = Pool::new(options.worker_threads(), options.queue_capacity);
    // Non-blocking accept so the loop can observe draining promptly.
    listener.set_nonblocking(true)?;
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            if state.draining.load(Ordering::SeqCst) {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&state);
                    let pool = &pool;
                    std::thread::Builder::new()
                        .name("cimc-serve-conn".to_owned())
                        .spawn_scoped(scope, move || serve_connection(&state, pool, stream))
                        .expect("spawning a connection thread failed");
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) => return Err(e),
            }
        }
    })?;
    pool.drain();
    Ok(())
}

/// Reads envelopes off one TCP connection until it closes, the server
/// drains, or the connection itself requests shutdown.
fn serve_connection(state: &Arc<ServerState>, pool: &Pool, stream: TcpStream) {
    // The stream inherited the listener's non-blocking flag; switch to
    // blocking reads with a timeout so the loop can observe draining.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
    {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer));
    let respond: Respond = Arc::new(move |response: Response| {
        let mut out = writer.lock().expect("connection writer poisoned");
        let _ = writeln!(out, "{}", response.to_json());
        let _ = out.flush();
    });
    let mut reader = io::BufReader::new(stream);
    let mut line = String::new();
    loop {
        if state.draining.load(Ordering::SeqCst) {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                let keep_going = handle_line(state, pool, &line, &respond);
                line.clear();
                if !keep_going {
                    return;
                }
            }
            // A read timeout may leave a partial line buffered; keep it
            // and continue appending on the next round.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return,
        }
    }
}
