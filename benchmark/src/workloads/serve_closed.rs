//! `serve-closed`: `serve::run_tcp` on a thread of this process, driven by two
//! closed-loop client connections, each on its own thread — callers of a
//! compile service wait for their reply before sending the next request.
//!
//! Per client and round: 22 small warm compiles over 8 keys, 8 big ones
//! (`schedule: true, flow: Some(200)`) and 2 pings. Small beside big
//! responses, so a fix for one that costs the other shows. Wire parse, queue,
//! pool, handler, render and socket do the work; the compiler runs warm. The
//! client writes each line with one `write_all` and sets `TCP_NODELAY`, so
//! the round trip measured is the server's.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cim_mlc::api::{CachePolicy, CompileRequest};
use cim_mlc::arch::presets;
use cim_mlc::graph::zoo;
use cim_mlc::prelude::*;

use crate::harness::{guard_json, warm_up, Case, Checks, Metrics, RoundOut, Workload};
use crate::spans::{Recorder, NO_CASE};
use crate::stats::{lower_median, shuffle, tail, SplitMix64};

const CLIENTS: usize = 2;

/// Small requests: a plain compile, answered from the warm shared cache in
/// ~50–400 µs with a ~2 KB body. The number is how often each client sends
/// the key per round (22 in all).
const SMALL: [(&str, &str, usize); 8] = [
    ("lenet5", "isaac", 3),
    ("mlp", "puma", 3),
    ("vgg7", "jain", 3),
    ("vgg16", "isaac", 3),
    ("resnet18", "jia", 3),
    ("resnet50", "puma", 3),
    ("vit_small", "isaac-wlm", 2),
    ("vit_base", "isaac", 2),
];

/// Big requests: rendered schedule plus the first 200 flow lines, a 12–16 KB
/// body; code generation is not cacheable, so these run 0.1–7 ms in the
/// handler. Only the two smallest models stay under the flow-size limit on
/// every preset. Each client sends each key once per round.
const BIG: [(&str, &str); 8] = [
    ("lenet5", "isaac"),
    ("lenet5", "puma"),
    ("lenet5", "isaac-wlm"),
    ("lenet5", "jain"),
    ("mlp", "isaac"),
    ("mlp", "puma"),
    ("mlp", "isaac-wlm"),
    ("mlp", "jain"),
];

const PINGS_PER_CLIENT: usize = 2;

/// What a case sends; `None` is a ping.
type Key = Option<(&'static str, &'static str, bool)>;

fn request_for(key: Key) -> Request {
    match key {
        None => Request::Ping,
        Some((model, arch, big)) => Request::Compile(CompileRequest {
            model: model.to_owned(),
            arch: arch.to_owned(),
            mode: None,
            level: None,
            jobs: 1,
            schedule: big,
            flow: big.then_some(200),
            verify: false,
            dump_stage: None,
            cache: CachePolicy::Default,
            session: None,
        }),
    }
}

/// How one response line was classified.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    ok: u64,
    errors: u64,
    overloaded: u64,
    protocol_errors: u64,
}

/// `(id, elapsed_ms, body)` of a response line. The fast path relies on the
/// server writing `protocol_version`, `id`, `elapsed_ms`, `body` in that
/// order; anything else falls back to the full parser (slower, never wrong).
fn response_head(line: &str) -> Option<(u64, f64, &str)> {
    let fast = || {
        let rest = line.strip_prefix("{\"protocol_version\":")?;
        let (_, rest) = rest.split_once(",\"id\":")?;
        let (id, rest) = rest.split_once(",\"elapsed_ms\":")?;
        let (elapsed, body) = rest.split_once(",\"body\":")?;
        Some((id.parse().ok()?, elapsed.parse().ok()?, body))
    };
    fast().or_else(|| {
        guard_json("response line", line.len()).ok()?;
        let r = Response::from_json(line).ok()?;
        let at = line.find("\"body\":")?;
        Some((r.id, r.elapsed_ms, &line[at + "\"body\":".len()..]))
    })
}

/// The final-level simulated latency of a compile body: the
/// `latency_cycles` of its `metrics` object.
fn body_latency_cycles(body: &str) -> Option<f64> {
    let metrics = &body[body.find("\"metrics\":{")?..];
    let at = metrics.find("\"latency_cycles\":")? + "\"latency_cycles\":".len();
    let number = &metrics[at..];
    let end = number.find([',', '}'])?;
    number[..end].parse().ok()
}

struct Client {
    reader: BufReader<TcpStream>,
    /// Per script slot: the case it executes and the pre-rendered request
    /// line (newline included) with its id.
    script: Vec<(usize, u64, Vec<u8>)>,
    /// Slots the set-up's warm-up sends: this client's share of "every
    /// distinct request once", enough to fill the shared cache without paying
    /// a full 32-request round in every set-up.
    warm_slots: Vec<usize>,
    /// The latest response per slot, kept for verification.
    responses: Vec<String>,
    line: String,
    out: RoundOut,
}

impl Client {
    fn run_round(
        &mut self,
        rec: &mut Recorder,
        labels: &[u32],
        keys: &[Key],
        warming: bool,
    ) -> Tally {
        let mut tally = Tally::default();
        let track = rec.begin("harness.client", NO_CASE);
        for (slot, (case, id, request)) in self.script.iter().enumerate() {
            if warming && !self.warm_slots.contains(&slot) {
                continue;
            }
            let started = Instant::now();
            let open = rec.begin("serve.rtt", labels[*case]);
            self.line.clear();
            let io = self
                .reader
                .get_mut()
                .write_all(request)
                .and_then(|()| self.reader.read_line(&mut self.line));
            rec.end(open);
            self.out
                .sample(*case, started.elapsed().as_secs_f64() * 1e3);
            self.responses[slot].clear();
            self.responses[slot].push_str(&self.line);

            self.out.checks.attempted += 1;
            let head = match io {
                Ok(n) if n > 0 => response_head(&self.line),
                _ => None,
            };
            let Some((got_id, elapsed_ms, body)) = head else {
                tally.protocol_errors += 1;
                self.out
                    .checks
                    .fail(format!("client slot {slot}: unreadable response"));
                continue;
            };
            rec.note("serve.server_elapsed_ms", elapsed_ms);
            let expect = if keys[*case].is_some() {
                "{\"compile\":"
            } else {
                "\"pong\""
            };
            if got_id != *id {
                tally.protocol_errors += 1;
                self.out.checks.fail(format!(
                    "client slot {slot}: id {got_id} answered request {id}"
                ));
            } else if body.starts_with(expect) {
                tally.ok += 1;
                if keys[*case].is_some() {
                    match body_latency_cycles(body) {
                        Some(cycles) => self.out.result_cycles(cycles),
                        None => self
                            .out
                            .checks
                            .fail(format!("client slot {slot}: no latency in the body")),
                    }
                }
            } else {
                if body.starts_with("{\"overloaded\":") {
                    tally.overloaded += 1;
                } else {
                    tally.errors += 1;
                }
                let shown: String = body.chars().take(120).collect();
                self.out
                    .checks
                    .fail(format!("client slot {slot}: not ok: {shown}"));
            }
        }
        rec.end(track);
        tally
    }
}

struct State {
    addr: SocketAddr,
    server: Option<JoinHandle<std::io::Result<()>>>,
    clients: Vec<Client>,
    labels: Vec<u32>,
    /// True while the set-up's shortened warm-up round runs.
    warming: bool,
}

impl State {
    /// Asks the server to shut down on a connection of its own, drops the
    /// client connections and joins the server thread.
    fn shutdown(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let answered = (|| {
            let mut stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("nodelay: {e}"))?;
            let mut line = RequestEnvelope::new(u64::MAX, Request::Shutdown).to_json();
            line.push('\n');
            stream
                .write_all(line.as_bytes())
                .map_err(|e| format!("write: {e}"))?;
            let mut answer = String::new();
            BufReader::new(stream)
                .read_line(&mut answer)
                .map_err(|e| format!("read: {e}"))?;
            match Response::from_json(answer.trim_end()) {
                Ok(Response {
                    body: ResponseBody::ShuttingDown { .. },
                    ..
                }) => Ok(()),
                other => Err(format!("shutdown was answered with {other:?}")),
            }
        })();
        self.clients.clear();
        let joined = match server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server returned {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        };
        answered.and(joined)
    }
}

pub struct ServeClosed {
    cases: Vec<Case>,
    keys: Vec<Key>,
    /// Per client, the case of each of its script slots.
    scripts: Vec<Vec<usize>>,
    state: Option<State>,
}

impl ServeClosed {
    pub fn new(seed: u64) -> Self {
        let mut cases = Vec::new();
        let mut keys: Vec<Key> = Vec::new();
        let mut script = Vec::new();
        for (m, a, times) in SMALL {
            script.extend(std::iter::repeat_n(cases.len(), times));
            cases.push(Case {
                name: format!("small:{m}@{a}"),
                per_round: times * CLIENTS,
            });
            keys.push(Some((m, a, false)));
        }
        for (m, a) in BIG {
            script.push(cases.len());
            cases.push(Case {
                name: format!("big:{m}@{a}"),
                per_round: CLIENTS,
            });
            keys.push(Some((m, a, true)));
        }
        script.extend(std::iter::repeat_n(cases.len(), PINGS_PER_CLIENT));
        cases.push(Case {
            name: "ping".to_owned(),
            per_round: PINGS_PER_CLIENT * CLIENTS,
        });
        keys.push(None);

        let mut rng = SplitMix64::new(seed);
        let scripts = (0..CLIENTS)
            .map(|_| {
                let mut s = script.clone();
                shuffle(&mut rng, &mut s);
                s
            })
            .collect();
        ServeClosed {
            cases,
            keys,
            scripts,
            state: None,
        }
    }

    /// Times the api layer directly — parse, warm handle, render — on a
    /// handler of its own, once per case. Only a traced set-up does this.
    fn probe_api(&self, rec: &mut Recorder) -> Result<(), String> {
        let handler = Handler::with_shared_cache(Arc::new(MemoryCache::new()));
        for (case, key) in self.keys.iter().enumerate() {
            let label = rec.label(self.cases[case].name.as_str());
            let line = RequestEnvelope::new(case as u64, request_for(*key)).to_json();
            guard_json("request line", line.len())?;
            rec.note("api.request_bytes", line.len() as f64);
            let envelope = rec
                .time("api.parse", label, || RequestEnvelope::from_json(&line))
                .map_err(|e| format!("request does not parse: {e}"))?;
            let _fills_the_cache = handler.respond(&envelope);
            let big = matches!(key, Some((_, _, true)));
            let response = match key {
                Some((_, _, false)) => {
                    rec.time("api.handle_warm", label, || handler.respond(&envelope))
                }
                _ => handler.respond(&envelope),
            };
            if key.is_some() {
                let text = rec.time("api.render", label, || response.to_json());
                let name = if big {
                    "api.response_big_bytes"
                } else {
                    "api.response_small_bytes"
                };
                rec.note(name, text.len() as f64);
            }
        }
        Ok(())
    }
}

impl Workload for ServeClosed {
    fn name(&self) -> &'static str {
        "serve-closed"
    }

    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn work_units(&self) -> u64 {
        self.scripts.iter().map(Vec::len).sum::<usize>() as u64
    }

    /// A round trip is 44 ms of waiting on the socket for 0.3 ms of work.
    fn scales_with_host_speed(&self) -> bool {
        false
    }

    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        if rec.on {
            self.probe_api(rec)?;
        }
        let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
        let addr = listener.local_addr().map_err(|e| io("local_addr", e))?;
        let handler = Handler::with_shared_cache(Arc::new(MemoryCache::new()));
        let options = ServeOptions {
            workers: 1,
            queue_capacity: 64,
            default_deadline_ms: None,
            metrics: false,
        };
        let server = std::thread::Builder::new()
            .name("bench-serve".to_owned())
            .spawn(move || run_tcp(handler, &listener, &options))
            .map_err(|e| io("spawning the server thread", e))?;
        // From here on the server runs; `State::shutdown` (via teardown)
        // stops it on every path.
        let mut state = State {
            addr,
            server: Some(server),
            clients: Vec::new(),
            labels: Vec::new(),
            warming: true,
        };
        state.labels = self
            .cases
            .iter()
            .map(|c| rec.label(c.name.as_str()))
            .collect();
        for (c, slots) in self.scripts.iter().enumerate() {
            let connected = TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s));
            let stream = match connected {
                Ok(stream) => stream,
                Err(e) => {
                    let _ = state.shutdown();
                    return Err(io("connecting a client", e));
                }
            };
            let script: Vec<(usize, u64, Vec<u8>)> = slots
                .iter()
                .enumerate()
                .map(|(slot, &case)| {
                    let id = (c * 1000 + slot + 1) as u64;
                    let mut line = RequestEnvelope::new(id, request_for(self.keys[case])).to_json();
                    line.push('\n');
                    (case, id, line.into_bytes())
                })
                .collect();
            let warm_slots = (0..self.cases.len())
                .filter(|case| case % CLIENTS == c)
                .filter_map(|case| slots.iter().position(|&s| s == case))
                .collect();
            state.clients.push(Client {
                reader: BufReader::with_capacity(64 * 1024, stream),
                warm_slots,
                responses: script
                    .iter()
                    .map(|_| String::with_capacity(32 * 1024))
                    .collect(),
                script,
                line: String::with_capacity(32 * 1024),
                out: RoundOut::for_cases(&self.cases),
            });
        }
        self.state = Some(state);
        let warmed = warm_up(self, rec);
        if let Some(st) = self.state.as_mut() {
            st.warming = false;
        }
        warmed
    }

    fn teardown(&mut self) {
        if let Some(mut st) = self.state.take() {
            let _ = st.shutdown();
        }
    }

    fn round(&mut self, rec: &mut Recorder, out: &mut RoundOut) {
        let st = self.state.as_mut().expect("set up");
        let (labels, keys, warming) = (&st.labels, &self.keys, st.warming);
        let finished: Vec<Option<(Recorder, Tally)>> = std::thread::scope(|scope| {
            let running: Vec<_> = st
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let mut fork = rec.fork(c as u32 + 1);
                    scope.spawn(move || {
                        client.out.clear();
                        let tally = client.run_round(&mut fork, labels, keys, warming);
                        (fork, tally)
                    })
                })
                .collect();
            running.into_iter().map(|h| h.join().ok()).collect()
        });
        let mut total = Tally::default();
        for (client, done) in st.clients.iter_mut().zip(finished) {
            let Some((fork, tally)) = done else {
                out.checks.fail("a client thread panicked".to_owned());
                continue;
            };
            rec.absorb(fork);
            out.merge(&mut client.out);
            total.ok += tally.ok;
            total.errors += tally.errors;
            total.overloaded += tally.overloaded;
            total.protocol_errors += tally.protocol_errors;
        }
        rec.note("serve.ok", total.ok as f64);
        rec.note("serve.errors", total.errors as f64);
        rec.note("serve.overloaded", total.overloaded as f64);
        rec.note("serve.protocol_errors", total.protocol_errors as f64);
    }

    fn verify(&mut self, _rec: &mut Recorder, checks: &mut Checks) {
        let st = self.state.as_mut().expect("set up");
        let compiler = Compiler::new();
        for client in &st.clients {
            for ((case, id, _), line) in client.script.iter().zip(&client.responses) {
                let name = &self.cases[*case].name;
                let parsed = guard_json(name, line.len()).and_then(|()| {
                    Response::from_json(line.trim_end()).map_err(|e| format!("{name}: {e}"))
                });
                let Some(response) = checks.result(parsed) else {
                    continue;
                };
                checks.check(response.id == *id, || {
                    format!("{name}: id {} for request {id}", response.id)
                });
                match (self.keys[*case], response.body) {
                    (None, ResponseBody::Pong) => checks.check(true, String::new),
                    (Some((model, arch, big)), ResponseBody::Compile(outcome)) => {
                        let graph = zoo::by_name(model).expect("zoo key");
                        let target = presets::by_name(arch).expect("preset key");
                        let direct = compiler
                            .compile(&graph, &target)
                            .map(|c| c.metrics(&target));
                        checks.check(direct.as_ref().ok() == Some(&outcome.metrics), || {
                            format!("{name}: served metrics differ from a direct Compiler::compile")
                        });
                        let shaped = if big {
                            outcome.schedule.is_some()
                                && (1..=200).contains(&outcome.flow_head.len())
                        } else {
                            outcome.schedule.is_none() && outcome.flow_head.is_empty()
                        };
                        checks.check(shaped, || {
                            format!("{name}: body does not match the request's shape")
                        });
                    }
                    (_, body) => checks.fail(format!("{name}: unexpected body {body:?}")),
                }
            }
        }
        checks.result(st.shutdown().map_err(|e| format!("graceful shutdown: {e}")));
    }

    fn layer_metrics(&self, rec: &Recorder, into: &mut Metrics) {
        let us = |name: &str| lower_median(&rec.durations_ms(name)) * 1e3;
        into.insert("api.parse_us", us("api.parse"));
        into.insert("api.handle_warm_us", us("api.handle_warm"));
        into.insert("api.render_us", us("api.render"));
        let bytes = |name: &str| lower_median(&rec.note_values(name));
        into.insert("api.request_bytes", bytes("api.request_bytes"));
        into.insert(
            "api.response_small_bytes",
            bytes("api.response_small_bytes"),
        );
        into.insert("api.response_big_bytes", bytes("api.response_big_bytes"));

        let rtts = rec.durations_ms("serve.rtt");
        let rtt_p50 = lower_median(&rtts);
        let (tail_pct, tail_ms) = tail(&rtts);
        into.insert("serve.rtt_p50_ms", rtt_p50);
        into.insert("serve.rtt_tail_ms", tail_ms);
        into.insert("serve.rtt_tail_pct", tail_pct);
        into.insert("serve.samples", rtts.len() as f64);
        let by_case = rec.by_case_ms("serve.rtt");
        let kind_p50 = |prefix: &str| {
            let ms: Vec<f64> = by_case
                .iter()
                .filter(|(case, _)| {
                    rec.case_labels
                        .get(**case as usize)
                        .is_some_and(|l| l.starts_with(prefix))
                })
                .flat_map(|(_, ms)| ms.iter().copied())
                .collect();
            lower_median(&ms)
        };
        into.insert("serve.small_rtt_p50_ms", kind_p50("small:"));
        into.insert("serve.big_rtt_p50_ms", kind_p50("big:"));
        let server_p50 = lower_median(&rec.note_values("serve.server_elapsed_ms"));
        into.insert("serve.server_elapsed_p50_ms", server_p50);
        into.insert("serve.transport_p50_ms", rtt_p50 - server_p50);
        let total = |name: &str| rec.note_values(name).iter().sum::<f64>();
        into.insert("serve.ok", total("serve.ok"));
        into.insert("serve.errors", total("serve.errors"));
        into.insert("serve.overloaded", total("serve.overloaded"));
        into.insert("serve.protocol_errors", total("serve.protocol_errors"));
    }
}
