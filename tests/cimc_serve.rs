//! End-to-end tests of `cimc serve`: a real server process on an
//! ephemeral TCP port, driven by real clients over the JSON-lines
//! protocol. Covers response isolation under concurrency, admission
//! control, deadlines, warm-cache repeats, malformed and over-long input,
//! round-trip latency, and the `cimc loadtest` client against a live
//! server; and one answer checked over `--stdio`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use cim_mlc::api::{
    write_line, CachePolicy, CompileRequest, ErrorKind, Request, RequestEnvelope, Response,
    ResponseBody, SleepRequest, MAX_LINE_BYTES,
};
use cim_mlc::loadtest::{run_loadtest, LoadtestOptions};

/// Half the 40 ms delayed-ACK timer a line split over two writes (or a
/// socket without `TCP_NODELAY`) waits for, and ~40x a warm round trip.
const ROUND_TRIP_BUDGET_MS: f64 = 20.0;

/// A `cimc serve --tcp 127.0.0.1:0` child process, shut down (or killed)
/// on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(extra_args: &[&str]) -> Server {
        Server::start_on("127.0.0.1:0", extra_args)
    }

    fn start_on(bind: &str, extra_args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cimc"))
            .arg("serve")
            .args(["--tcp", bind])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("cimc serve starts");
        // The first stdout line announces the bound address.
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("server announces its address");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in the announcement")
            .to_owned();
        assert!(
            line.contains("listening on"),
            "unexpected announcement: {line}"
        );
        Server { child, addr }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(&self.addr).expect("server accepts connections");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client {
            writer: stream,
            reader,
        }
    }

    fn shutdown(mut self) {
        let mut client = self.connect();
        client.send_line(&RequestEnvelope::new(999, Request::Shutdown).to_json());
        let _ = client.read_response();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Belt and braces: if a test failed before the graceful path,
        // don't leak the process.
        if self.child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn send_line(&mut self, line: &str) {
        write_line(&mut self.writer, line.to_owned()).expect("request writes");
    }

    fn read_response(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("response reads");
        assert!(n > 0, "server closed the connection unexpectedly");
        Response::from_json(&line).expect("response parses")
    }

    fn roundtrip(&mut self, envelope: &RequestEnvelope) -> Response {
        self.send_line(&envelope.to_json());
        self.read_response()
    }
}

fn compile_request(model: &str, arch: &str) -> Request {
    Request::Compile(CompileRequest {
        model: model.to_owned(),
        arch: arch.to_owned(),
        mode: None,
        level: None,
        jobs: 0,
        schedule: false,
        flow: None,
        verify: false,
        dump_stage: None,
        cache: CachePolicy::Default,
        session: None,
    })
}

#[test]
fn concurrent_clients_get_isolated_correctly_correlated_responses() {
    let server = Server::start(&[]);
    let models = ["lenet5", "mlp", "lenet5", "mlp"];
    std::thread::scope(|scope| {
        let handles: Vec<_> = models
            .iter()
            .enumerate()
            .map(|(i, model)| {
                let mut client = server.connect();
                scope.spawn(move || {
                    let id = i as u64 * 100 + 1;
                    let response = client
                        .roundtrip(&RequestEnvelope::new(id, compile_request(model, "isaac")));
                    (id, model, response)
                })
            })
            .collect();
        for handle in handles {
            let (id, model, response) = handle.join().expect("client thread");
            assert_eq!(response.id, id, "response correlates to its request");
            match &response.body {
                ResponseBody::Compile(outcome) => {
                    assert_eq!(&outcome.model, model, "each client gets its own result");
                    assert!(response.elapsed_ms >= 0.0);
                }
                other => panic!("expected a compile outcome, got {other:?}"),
            }
        }
    });
    server.shutdown();
}

#[test]
fn a_burst_beyond_queue_capacity_is_rejected_structurally_not_hung() {
    // One worker, a queue of one: a burst of long sleeps must overflow.
    let server = Server::start(&["--workers", "1", "--queue", "1"]);
    let mut client = server.connect();
    let burst = 8;
    for i in 0..burst {
        let envelope = RequestEnvelope::new(i + 1, Request::Sleep(SleepRequest { ms: 200.0 }));
        client.send_line(&envelope.to_json());
    }
    let mut overloaded = 0;
    let mut slept = 0;
    for _ in 0..burst {
        let response = client.read_response();
        match response.body {
            ResponseBody::Overloaded {
                queue_depth,
                capacity,
            } => {
                assert_eq!(capacity, 1);
                assert!(queue_depth >= capacity, "rejected only when full");
                overloaded += 1;
            }
            ResponseBody::Slept { ms } => {
                assert!((ms - 200.0).abs() < f64::EPSILON);
                slept += 1;
            }
            other => panic!("expected slept or overloaded, got {other:?}"),
        }
    }
    assert!(overloaded > 0, "the burst must overflow the queue");
    assert!(slept > 0, "admitted work still completes");
    server.shutdown();
}

#[test]
fn a_tiny_deadline_yields_deadline_exceeded() {
    // One worker so the second request queues behind a long sleep and
    // its 1 ms deadline lapses while it waits.
    let server = Server::start(&["--workers", "1", "--queue", "8"]);
    let mut client = server.connect();
    client
        .send_line(&RequestEnvelope::new(1, Request::Sleep(SleepRequest { ms: 300.0 })).to_json());
    let mut doomed = RequestEnvelope::new(2, Request::Ping);
    doomed.deadline_ms = Some(1.0);
    client.send_line(&doomed.to_json());
    let mut saw_deadline = false;
    for _ in 0..2 {
        let response = client.read_response();
        if response.id == 2 {
            match response.body {
                ResponseBody::DeadlineExceeded { deadline_ms } => {
                    assert!((deadline_ms - 1.0).abs() < f64::EPSILON);
                    saw_deadline = true;
                }
                other => panic!("expected deadline_exceeded, got {other:?}"),
            }
        }
    }
    assert!(saw_deadline);
    server.shutdown();
}

#[test]
fn repeats_against_the_shared_cache_run_warm() {
    let server = Server::start(&[]);
    let mut client = server.connect();
    let cold = client.roundtrip(&RequestEnvelope::new(1, compile_request("lenet5", "jain")));
    let ResponseBody::Compile(cold) = cold.body else {
        panic!("expected a compile outcome, got {:?}", cold.body);
    };
    assert_eq!(
        cold.warm(),
        Some(false),
        "first compile misses the fresh shared cache"
    );
    // …even from a different connection: the cache is process-wide.
    let mut other = server.connect();
    let warm = other.roundtrip(&RequestEnvelope::new(2, compile_request("lenet5", "jain")));
    let ResponseBody::Compile(warm) = warm.body else {
        panic!("expected a compile outcome, got {:?}", warm.body);
    };
    assert_eq!(warm.warm(), Some(true), "repeat is served from the cache");
    assert_eq!(warm.metrics, cold.metrics, "warm results are identical");
    server.shutdown();
}

#[test]
fn malformed_json_gets_an_error_response_and_the_connection_survives() {
    let server = Server::start(&[]);
    let mut client = server.connect();
    client.send_line("{this is not json");
    let response = client.read_response();
    assert_eq!(response.id, 0, "unparseable input cannot echo an id");
    match &response.body {
        ResponseBody::Error(e) => {
            assert!(e.message.contains("invalid request"), "{e}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    // The connection is still usable afterwards.
    let pong = client.roundtrip(&RequestEnvelope::new(5, Request::Ping));
    assert_eq!(pong.id, 5);
    assert!(matches!(pong.body, ResponseBody::Pong));

    // An unknown request kind parses as JSON but not as an envelope, and
    // a retired kind is one; the connection answers the next request.
    let mut client2 = server.connect();
    let retired = include_str!("golden/retired/wire.jsonl").trim_end();
    // The retired line's readable id is echoed; the id-less one gets 0.
    for (line, id) in [(r#"{"request": {"frobnicate": {}}}"#, 0), (retired, 5)] {
        client2.send_line(line);
        let response = client2.read_response();
        assert_eq!(response.id, id, "{line}");
        match &response.body {
            ResponseBody::Error(e) => assert_eq!(e.kind, ErrorKind::Protocol, "{e}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        let pong = client2.roundtrip(&RequestEnvelope::new(6, Request::Ping));
        assert_eq!(pong.id, 6);
        assert!(matches!(pong.body, ResponseBody::Pong));
    }
    server.shutdown();
}

#[test]
fn a_sleep_out_of_duration_range_is_an_argument_error_over_stdio() {
    // 1e300 ms overflows a `Duration`; a negative one has none.
    let lines = [
        r#"{"id": 7, "request": {"sleep": {"ms": 1e300}}}"#,
        r#"{"id": 8, "request": {"sleep": {"ms": -1.0}}}"#,
        r#"{"id": 9, "request": "ping"}"#,
    ];
    let mut server = Command::new(env!("CARGO_BIN_EXE_cimc"))
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("cimc serve starts");
    let mut stdin = server.stdin.take().expect("stdin is piped");
    for line in lines {
        write_line(&mut stdin, line.to_owned()).expect("request writes");
    }
    drop(stdin);
    let out = server.wait_with_output().expect("cimc serve exits at EOF");
    assert!(out.status.success(), "{:?}", out.status);
    let mut responses: Vec<Response> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| Response::from_json(line).expect("response parses"))
        .collect();
    responses.sort_by_key(|r| r.id);

    let ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
    assert_eq!(ids, [7, 8, 9], "exactly one response per id");
    for response in &responses[..2] {
        match &response.body {
            ResponseBody::Error(e) => assert_eq!(e.kind, ErrorKind::Argument, "{e}"),
            other => panic!("expected an argument error, got {other:?}"),
        }
    }
    assert!(matches!(responses[2].body, ResponseBody::Pong));
}

#[test]
fn a_non_utf8_line_gets_a_protocol_error_and_is_not_dispatched() {
    let server = Server::start(&[]);
    let mut client = server.connect();
    // Valid JSON once the stray byte is replaced, so a lossy decode would
    // dispatch it as a compile and answer with id 7.
    client
        .writer
        .write_all(b"{\"id\": 7, \"request\": {\"compile\": {\"model\": \"\xff\", \"arch\": \"isaac\"}}}\n")
        .expect("request writes");
    let response = client.read_response();
    assert_eq!(response.id, 0);
    match &response.body {
        ResponseBody::Error(e) => assert_eq!(e.kind, ErrorKind::Protocol, "{e}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    let pong = client.roundtrip(&RequestEnvelope::new(5, Request::Ping));
    assert_eq!(pong.id, 5);
    assert!(matches!(pong.body, ResponseBody::Pong));
    server.shutdown();
}

#[test]
fn an_over_long_line_gets_a_protocol_error_and_the_connection_survives() {
    let server = Server::start(&[]);
    let mut client = server.connect();
    client.send_line(&"x".repeat(2 * MAX_LINE_BYTES));
    let response = client.read_response();
    assert_eq!(response.id, 0);
    match &response.body {
        ResponseBody::Error(e) => {
            assert_eq!(e.kind, ErrorKind::Protocol);
            assert!(e.message.contains(&MAX_LINE_BYTES.to_string()), "{e}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    // Exactly one answer for the whole line, and the next one is served.
    let pong = client.roundtrip(&RequestEnvelope::new(5, Request::Ping));
    assert_eq!(pong.id, 5);
    assert!(matches!(pong.body, ResponseBody::Pong));
    server.shutdown();
}

#[test]
fn warm_round_trips_do_not_wait_for_a_delayed_ack() {
    let server = Server::start(&[]);
    let warm = RequestEnvelope::new(1, compile_request("lenet5", "isaac"));

    // Server leg: this client sends each line in one write with
    // `TCP_NODELAY`, so any 40 ms wait is the server's response.
    let mut client = server.connect();
    client.roundtrip(&warm);
    let mut trips: Vec<f64> = (0..50)
        .map(|_| {
            let started = Instant::now();
            let response = client.roundtrip(&warm);
            assert!(matches!(response.body, ResponseBody::Compile(_)));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    trips.sort_by(f64::total_cmp);
    let median = trips[trips.len() / 2];
    assert!(median < ROUND_TRIP_BUDGET_MS, "median {median} ms");

    // Client leg: the loadtest client's own request writes.
    let report = run_loadtest(&LoadtestOptions {
        requests: 50,
        concurrency: 1,
        script: vec![warm.request.clone()],
        ..LoadtestOptions::new(server.addr.clone())
    })
    .expect("loadtest runs");
    assert_eq!((report.ok, report.protocol_errors), (50, 0));
    assert!(
        report.p50_ms < ROUND_TRIP_BUDGET_MS,
        "median {} ms",
        report.p50_ms
    );
    server.shutdown();
}

#[test]
fn after_shutdown_new_requests_are_refused_and_the_process_exits() {
    let server = Server::start(&[]);
    let mut client = server.connect();
    let response = client.roundtrip(&RequestEnvelope::new(1, Request::Shutdown));
    assert!(
        matches!(response.body, ResponseBody::ShuttingDown { .. }),
        "{:?}",
        response.body
    );
    let status =
        exit_status_within_seconds(server).expect("server drains and exits after shutdown");
    assert!(status.success(), "{status:?}");
}

/// Connection threads notice draining within 50 ms and the accept loop
/// is woken at once; well within a few seconds the process must be gone.
fn exit_status_within_seconds(mut server: Server) -> Option<ExitStatus> {
    for _ in 0..200 {
        if let Some(status) = server.child.try_wait().expect("wait works") {
            return Some(status);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

#[test]
fn shutdown_exits_when_bound_to_a_wildcard_address() {
    for bind in ["0.0.0.0:0", "[::]:0"] {
        // A host without IPv6 cannot run the second case at all.
        if std::net::TcpListener::bind(bind).is_err() {
            continue;
        }
        let server = Server::start_on(bind, &[]);
        let mut client = server.connect();
        let response = client.roundtrip(&RequestEnvelope::new(1, Request::Shutdown));
        assert!(
            matches!(response.body, ResponseBody::ShuttingDown { .. }),
            "{bind}: {:?}",
            response.body
        );
        let status = exit_status_within_seconds(server)
            .unwrap_or_else(|| panic!("server on {bind} exits after shutdown"));
        assert!(status.success(), "{bind}: {status:?}");
    }
}

#[test]
fn loadtest_reports_warm_hits_against_a_live_server() {
    let server = Server::start(&[]);
    let out = Command::new(env!("CARGO_BIN_EXE_cimc"))
        .args([
            "loadtest",
            "--addr",
            &server.addr,
            "--requests",
            "40",
            "--concurrency",
            "4",
        ])
        .output()
        .expect("cimc loadtest runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(
        stdout.contains("40 request(s) at concurrency 4"),
        "{stdout}"
    );
    assert!(stdout.contains("40 ok"), "{stdout}");
    assert!(stdout.contains("0 protocol error(s)"), "{stdout}");
    // 4 model×arch pairs: everything after the cold compiles is warm. A
    // pair compiles cold once per connection at worst (the 4 connections
    // may all miss it side by side), so at least 40 - 4*4 are warm.
    let warm: usize = stdout
        .split_once("warm: ")
        .and_then(|(_, rest)| rest.split_once("/40 cache-eligible"))
        .and_then(|(count, _)| count.parse().ok())
        .unwrap_or_else(|| panic!("no warm count in: {stdout}"));
    assert!((24..=36).contains(&warm), "{stdout}");
    server.shutdown();
}
