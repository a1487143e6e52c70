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
//! * **Malformed input** — an unparseable line, or one longer than
//!   [`MAX_LINE_BYTES`], gets an `error` response with kind `protocol`
//!   (id 0, or the line's own `id` if it is a JSON object with an
//!   unsigned one); the connection stays usable.
//! * **Panics** — a request whose handling panics is answered with an
//!   `input` error naming the panic, under its own id.
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
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cim_compiler::pool::{panic_text, Pool};
use cim_obs::{keys, TraceClock};

use crate::api::{
    write_line, ApiError, Handler, Request, RequestEnvelope, Response, ResponseBody,
    MAX_LINE_BYTES, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};

/// How often blocked connection reads wake up to observe draining.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Bounds on the shutdown wake-up connect (see [`wake_accept`]).
const WAKE_ATTEMPTS: u32 = 5;
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

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
    /// The TCP listener's address: connecting to it unblocks `accept`
    /// once `draining` is set. `None` on stdio.
    wake: Option<SocketAddr>,
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

/// Unblocks `run_tcp`'s `accept` once `draining` is set, by connecting
/// to the listener. Should no attempt land (a firewalled bound address,
/// say), the accept loop exits at the next client connection instead,
/// so say that the process is waiting for one.
fn wake_accept(listener: SocketAddr) {
    for _ in 0..WAKE_ATTEMPTS {
        if TcpStream::connect_timeout(&listener, WAKE_TIMEOUT).is_ok() {
            return;
        }
    }
    eprintln!(
        "cimc serve: cannot reach {listener} to stop accepting; exiting at the next connection"
    );
}

/// Answers a line that never became an envelope: a `protocol` error
/// with `id`.
fn reject_line(respond: &Respond, id: u64, message: String) {
    let body = ResponseBody::Error(ApiError::protocol(message));
    record_response(&body);
    respond(Response::new(id, 0.0, body));
}

/// The `id` of a line that is not an envelope: the object's unsigned
/// `id` field if it is a JSON object with one (an unknown or retired
/// request kind), else 0.
fn line_id(line: &str) -> u64 {
    #[derive(serde::Deserialize)]
    struct Id {
        id: u64,
    }
    serde_json::from_str::<Id>(line).map_or(0, |line| line.id)
}

/// Runs `handle`, turning a panic into an `input` error that names the
/// panic's text, so the request is answered even then.
fn answer_even_on_panic(handle: impl FnOnce() -> ResponseBody) -> ResponseBody {
    catch_unwind(AssertUnwindSafe(handle)).unwrap_or_else(|payload| {
        let text = panic_text(&*payload);
        ResponseBody::Error(ApiError::input(format!("request panicked: {text}")))
    })
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
            reject_line(respond, line_id(line), format!("invalid request: {e}"));
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
        if let Some(listener) = state.wake {
            wake_accept(listener);
        }
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
                answer_even_on_panic(|| job_state.handler.handle(&request))
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

/// A [`Respond`] that renders each response outside `out`'s lock and
/// sends it with [`write_line`]. Write failures are swallowed (the peer
/// is gone; nothing useful can be reported to it).
fn responder(out: impl Write + Send + 'static) -> Respond {
    let out = Mutex::new(out);
    Arc::new(move |response: Response| {
        let json = response.to_json();
        let mut out = out.lock().expect("response writer poisoned");
        let _ = write_line(&mut *out, json);
    })
}

/// Reads request lines off `reader` and dispatches them until EOF, a
/// `shutdown` request on this stream, or the server draining. A line
/// longer than [`MAX_LINE_BYTES`] is answered with a `protocol` error
/// and discarded up to its newline, and one that is not UTF-8 with a
/// `protocol` error too, so hostile input costs one error response.
///
/// A read timeout (TCP only) is not an error: the partial line stays in
/// the buffer and the next round appends to it.
fn serve_lines(
    state: &Arc<ServerState>,
    pool: &Pool,
    mut reader: impl BufRead,
    respond: &Respond,
) -> io::Result<()> {
    let mut line = Vec::new();
    // True while skipping the rest of an over-long line.
    let mut discarding = false;
    loop {
        if state.draining.load(Ordering::SeqCst) {
            return Ok(());
        }
        let read = if discarding {
            reader.skip_until(b'\n')
        } else {
            let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
            io::Read::take(&mut reader, room).read_until(b'\n', &mut line)
        };
        match read {
            Ok(0) => return Ok(()),
            Ok(_) if discarding => discarding = false,
            Ok(_) if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                line.clear();
                discarding = true;
                reject_line(
                    respond,
                    0,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
            }
            Ok(_) => {
                let keep_going = match std::str::from_utf8(&line) {
                    Ok(text) => handle_line(state, pool, text, respond),
                    Err(e) => {
                        reject_line(respond, 0, format!("invalid request: {e}"));
                        true
                    }
                };
                line.clear();
                if !keep_going {
                    return Ok(());
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Serves the JSON-lines protocol on stdin/stdout until EOF or a
/// `shutdown` request, then drains gracefully.
///
/// # Errors
/// Propagates stdin read failures.
pub fn run_stdio(handler: Handler, options: &ServeOptions) -> io::Result<()> {
    if options.metrics {
        cim_obs::metrics().reset();
        cim_obs::metrics().enable();
    }
    let state = Arc::new(ServerState {
        handler,
        draining: AtomicBool::new(false),
        wake: None,
        default_deadline_ms: options.default_deadline_ms,
    });
    let pool = Pool::new(options.worker_threads(), options.queue_capacity);
    serve_lines(&state, &pool, io::stdin().lock(), &responder(io::stdout()))?;
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
    // `accept` blocks, so a connection's first line is read at once;
    // shutdown unblocks it by connecting to the listener itself.
    listener.set_nonblocking(false)?;
    let mut wake = listener.local_addr()?;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let state = Arc::new(ServerState {
        handler,
        draining: AtomicBool::new(false),
        wake: Some(wake),
        default_deadline_ms: options.default_deadline_ms,
    });
    let pool = Pool::new(options.worker_threads(), options.queue_capacity);
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            let (stream, _peer) = listener.accept()?;
            // The wake-up connection, or a client too late to be served.
            if state.draining.load(Ordering::SeqCst) {
                return Ok(());
            }
            let state = Arc::clone(&state);
            let pool = &pool;
            std::thread::Builder::new()
                .name("cimc-serve-conn".to_owned())
                .spawn_scoped(scope, move || serve_connection(&state, pool, stream))
                .expect("spawning a connection thread failed");
        }
    })?;
    pool.drain();
    Ok(())
}

/// Reads envelopes off one TCP connection until it closes, the server
/// drains, or the connection itself requests shutdown.
fn serve_connection(state: &Arc<ServerState>, pool: &Pool, stream: TcpStream) {
    // Reads time out so the loop can observe draining.
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let _ = serve_lines(state, pool, io::BufReader::new(stream), &responder(writer));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ErrorKind;

    #[test]
    fn a_panicking_handler_is_answered_with_an_input_error() {
        match answer_even_on_panic(|| panic!("no plan for stage {}", 7)) {
            ResponseBody::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Input);
                assert!(e.message.contains("no plan for stage 7"), "{e}");
            }
            other => panic!("expected an input error, got {other:?}"),
        }
        assert!(matches!(
            answer_even_on_panic(|| ResponseBody::Pong),
            ResponseBody::Pong
        ));
    }

    #[test]
    fn a_line_that_is_not_an_envelope_keeps_its_readable_id() {
        assert_eq!(line_id(r#"{"id": 5, "request": {"compile_perf": {}}}"#), 5);
        for line in [
            "{this is not json",
            r#"{"request": "frobnicate"}"#,
            r#"{"id": -1}"#,
            "[5]",
        ] {
            assert_eq!(line_id(line), 0, "{line}");
        }
    }
}
