//! The run shape shared by all workloads: set-up → rounds → untimed
//! verification, and the reductions from raw samples to the metrics named in
//! `BENCHMARK.json`.
//!
//! A *round* is a workload's fixed script of *cases*, in an order shuffled
//! once by the seed; every round does identical work. Per case the run keeps
//! one sample per round (the median of the case's executions in that round)
//! and reduces them to the lower quartile across rounds.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::spans::{self, Recorder, HARNESS, NO_CASE};
use crate::stats::{lower_median, lower_quartile};

/// Set-up is performed this many times from scratch; the lower quartile is
/// `setup_s` and the last instance runs the rounds.
pub const SETUP_REPEATS: usize = 7;

/// A run measures until its time is up *and* it has this many rounds, so the
/// lower quartile always has samples to stand on. (At `run_seconds` every
/// workload is far past it; the floor only matters for `run.sh smoke`.)
pub const MIN_ROUNDS: usize = 8;

/// Capacity of the pre-allocated per-case sample buffers, so that recording a
/// round never allocates. A run that gets here stops measuring early; at
/// today's speeds the fastest workload does ~150 rounds in `run_seconds`.
pub const MAX_ROUNDS: usize = 4096;

/// A traced run first measures every *other* workload for this many traced
/// rounds, so that every per-layer metric is measured in every traced run.
pub const SIDE_ROUNDS: usize = 2;

/// The main workload of a traced run gets at least this many rounds in each
/// of its modes, however short `--seconds` is.
pub const MIN_TRACED_ROUNDS: usize = 3;

/// Largest share of a round's wall time that may be covered by no layer span
/// before the traced run fails its decomposition check, in percent.
pub const RESIDUAL_LIMIT_PCT: f64 = 5.0;

/// No timed path hands the vendored JSON parser more than this. Its
/// `parse_string` re-validates the whole remaining input per character, so
/// parse time is quadratic in document size: the 73 KB `resnet152` model takes
/// 21 ms, a 5 MB trace took 152 s. A larger document fails the run instead of
/// hanging it.
pub const MAX_JSON_BYTES: usize = 128 * 1024;

/// Refuses a JSON document larger than [`MAX_JSON_BYTES`].
pub fn guard_json(what: &str, bytes: usize) -> Result<(), String> {
    if bytes > MAX_JSON_BYTES {
        return Err(format!(
            "{what}: {bytes} bytes of JSON exceed MAX_JSON_BYTES = {MAX_JSON_BYTES}"
        ));
    }
    Ok(())
}

/// Name of the span around one round; its case label is the workload's name.
pub const ROUND_SPAN: &str = "harness.round";

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// Recorder off, `cim_obs` off: what the end-to-end metrics are made of.
    Plain,
    /// Recorder on: spans around every layer call.
    Traced,
    /// Recorder off, `cim_obs::enable()` before and `drain()` after the round.
    Obs,
}

/// One line of a workload's script.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    /// How often a round executes it (its per-round sample is their median).
    pub per_round: usize,
}

impl Case {
    pub fn once(name: impl Into<String>) -> Self {
        Case {
            name: name.into(),
            per_round: 1,
        }
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts an attempted operation that failed.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn result<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 20 {
                self.failures.push(f);
            }
        }
    }
}

/// What one round hands back to the harness. Buffers are allocated once, at
/// fixed capacity, and cleared between rounds.
#[derive(Debug)]
pub struct RoundOut {
    /// Per case, this round's execution times in ms.
    case_ms: Vec<Vec<f64>>,
    /// Sum of ln(simulated latency in cycles) over the round's results.
    ln_cycles: f64,
    results: u64,
    pub checks: Checks,
}

impl RoundOut {
    pub fn for_cases(cases: &[Case]) -> Self {
        RoundOut {
            case_ms: cases
                .iter()
                .map(|c| Vec::with_capacity(c.per_round))
                .collect(),
            ln_cycles: 0.0,
            results: 0,
            checks: Checks::default(),
        }
    }

    pub fn clear(&mut self) {
        self.case_ms.iter_mut().for_each(Vec::clear);
        self.ln_cycles = 0.0;
        self.results = 0;
        self.checks = Checks::default();
    }

    /// Records one execution of `case`.
    pub fn sample(&mut self, case: usize, ms: f64) {
        self.case_ms[case].push(ms);
    }

    /// Records one result's simulated latency, in cycles.
    pub fn result_cycles(&mut self, cycles: f64) {
        self.ln_cycles += cycles.ln();
        self.results += 1;
    }

    /// Moves in what a client thread collected, leaving `other` cleared.
    pub fn merge(&mut self, other: &mut RoundOut) {
        for (mine, theirs) in self.case_ms.iter_mut().zip(&mut other.case_ms) {
            mine.append(theirs);
        }
        self.ln_cycles += other.ln_cycles;
        self.results += other.results;
        self.checks.absorb(std::mem::take(&mut other.checks));
        other.clear();
    }

    /// Geometric mean of the round's simulated latencies, in Mcycles.
    fn model_mcycles(&self) -> f64 {
        if self.results == 0 {
            0.0
        } else {
            (self.ln_cycles / self.results as f64).exp() / 1e6
        }
    }
}

/// Metric values by name; units and directions live in `manifest.rs`.
pub type Metrics = BTreeMap<&'static str, f64>;

pub trait Workload {
    fn name(&self) -> &'static str;

    /// The script of one round. Fixed at construction.
    fn cases(&self) -> &[Case];

    /// Work units one round completes (compiles, ops, requests, …).
    fn work_units(&self) -> u64;

    /// Whether the workload computes rather than waits, so that its times
    /// scale with the speed the host CPU happens to run at and are reported
    /// at reference speed (see [`REF_NOMINAL_MS`]). A workload that waits on
    /// timers and sockets reports plain wall time.
    fn scales_with_host_speed(&self) -> bool {
        true
    }

    /// Modes a traced run rotates this workload's rounds through.
    fn traced_modes(&self) -> &'static [Mode] {
        &[Mode::Plain, Mode::Traced]
    }

    /// Everything before the first measured operation, from scratch, ending
    /// with one warm-up round. Only called on a torn-down workload.
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String>;

    /// Drops what `setup` built (and stops what it started).
    fn teardown(&mut self);

    fn round(&mut self, rec: &mut Recorder, out: &mut RoundOut);

    /// Untimed output checks after the rounds.
    fn verify(&mut self, rec: &mut Recorder, checks: &mut Checks);

    /// The per-layer metrics this workload is the home of, from the spans
    /// and notes of its traced rounds.
    fn layer_metrics(&self, rec: &Recorder, into: &mut Metrics);
}

/// The warm-up round that ends every set-up: one untraced round whose samples
/// are thrown away and whose failures fail the set-up.
pub fn warm_up<W: Workload + ?Sized>(w: &mut W, rec: &mut Recorder) -> Result<(), String> {
    let mut out = RoundOut::for_cases(w.cases());
    let was_on = std::mem::replace(&mut rec.on, false);
    w.round(rec, &mut out);
    rec.on = was_on;
    match out.checks.failures.first() {
        Some(failure) => Err(format!("warm-up round: {failure}")),
        None => Ok(()),
    }
}

/// Samples of a series of rounds in one mode.
struct Series {
    /// `[case][round]`: per-round sample of each case, ms.
    per_case: Vec<Vec<f64>>,
    round_ms: Vec<f64>,
    model_mcycles: Vec<f64>,
}

impl Series {
    fn with_capacity(cases: usize, rounds: usize) -> Self {
        Series {
            per_case: (0..cases).map(|_| Vec::with_capacity(rounds)).collect(),
            round_ms: Vec::with_capacity(rounds),
            model_mcycles: Vec::with_capacity(rounds),
        }
    }

    fn rounds(&self) -> usize {
        self.round_ms.len()
    }

    /// Records a round; `to_ref` brings its times to reference speed.
    fn push(&mut self, wall_ms: f64, out: &RoundOut, to_ref: f64) {
        for (series, executions) in self.per_case.iter_mut().zip(&out.case_ms) {
            series.push(lower_median(executions) * to_ref);
        }
        self.round_ms.push(wall_ms * to_ref);
        self.model_mcycles.push(out.model_mcycles());
    }
}

/// Runs one round in `mode` and returns its wall time in ms.
fn run_round(
    w: &mut dyn Workload,
    mode: Mode,
    round: u32,
    rec: &mut Recorder,
    out: &mut RoundOut,
) -> f64 {
    out.clear();
    rec.on = mode == Mode::Traced;
    rec.round = round;
    let label = if rec.on { rec.label(w.name()) } else { NO_CASE };
    let started = Instant::now();
    if mode == Mode::Obs {
        cim_mlc::obs::enable();
    }
    let open = rec.begin(ROUND_SPAN, label);
    w.round(rec, out);
    rec.end(open);
    if mode == Mode::Obs {
        std::hint::black_box(cim_mlc::obs::drain());
        cim_mlc::obs::disable();
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    rec.on = false;
    rec.round = spans::OUTSIDE_ROUNDS;
    wall_ms
}

/// The five end-to-end metrics of one untraced run, plus what the final
/// result line needs.
pub struct EndToEnd {
    pub metrics: Metrics,
    pub checks: Checks,
    pub rounds: usize,
    pub measured_s: f64,
    /// Median reading of the reference kernel over the run.
    pub host_ref_ms: f64,
}

const REF_ITERATIONS: u64 = 2_000_000;

/// A fixed arithmetic kernel, timed before and after every set-up and every
/// round. It touches no memory and calls nothing, so its time tracks the one
/// thing the host changes under the benchmark from one stretch of seconds to
/// the next: the speed the CPU runs at (see README, "Machine modes").
fn host_ref_ms() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..REF_ITERATIONS {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// What [`host_ref_ms`] reads in this machine's usual mode. Times of
/// CPU-bound workloads are reported *at reference speed*: scaled by
/// `REF_NOMINAL_MS / (the kernel's time next to the measurement)`, so a
/// figure means "milliseconds on a host that runs the reference kernel in
/// 5 ms". The constant only fixes the unit; it cancels out of every
/// comparison between two commits.
pub const REF_NOMINAL_MS: f64 = 5.0;

/// Runs the reference kernel between the things it times.
struct Paced {
    normalise: bool,
    ref_before_ms: f64,
    /// Every reference reading of the run, for `host.ref_ms`.
    refs: Vec<f64>,
}

impl Paced {
    fn new(normalise: bool) -> Self {
        let first = host_ref_ms();
        Paced {
            normalise,
            ref_before_ms: first,
            refs: vec![first],
        }
    }

    /// Runs `f` and returns its result, its wall time in ms, and the factor
    /// that brings a time measured inside it to reference speed (1 for a
    /// workload that waits rather than computes). The kernel ran just before
    /// `f` and runs again just after; preemption only ever lengthens a kernel
    /// run, so the faster of the two readings is the better estimate of the
    /// host's speed.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let started = Instant::now();
        let value = f();
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let ref_after_ms = host_ref_ms();
        let nearest = self.ref_before_ms.min(ref_after_ms);
        self.ref_before_ms = ref_after_ms;
        self.refs.push(ref_after_ms);
        (
            value,
            wall_ms,
            if self.normalise {
                REF_NOMINAL_MS / nearest
            } else {
                1.0
            },
        )
    }
}

/// The untraced run: set-up [`SETUP_REPEATS`] times, plain rounds for
/// `seconds`, verification.
pub fn run_untraced(w: &mut dyn Workload, seconds: f64) -> Result<EndToEnd, String> {
    let mut rec = Recorder::new();
    let mut checks = Checks::default();
    let mut paced = Paced::new(w.scales_with_host_speed());

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        w.teardown();
        let (done, wall_ms, to_ref) = paced.time(|| w.setup(&mut rec));
        done?;
        setups.push(wall_ms * to_ref / 1e3);
    }

    // The sample buffers are the harness's own memory, not the system's:
    // measure what they reserve and keep it out of `peak_heap_mb`. They stay
    // allocated through the rounds, so the peak over the rounds is the
    // allocator's peak from here on minus their size.
    let setup_peak = alloc::restart_peak();
    let before_buffers = alloc::live_bytes();
    let mut series = Series::with_capacity(w.cases().len(), MAX_ROUNDS);
    let mut out = RoundOut::for_cases(w.cases());
    paced.refs.reserve(MAX_ROUNDS);
    let harness_bytes = alloc::live_bytes() - before_buffers;
    alloc::restart_peak();

    let phase = Instant::now();
    while (phase.elapsed().as_secs_f64() < seconds || series.rounds() < MIN_ROUNDS)
        && series.rounds() < MAX_ROUNDS
    {
        let round = series.rounds() as u32;
        let (wall_ms, _, to_ref) =
            paced.time(|| run_round(w, Mode::Plain, round, &mut rec, &mut out));
        series.push(wall_ms, &out, to_ref);
        checks.absorb(std::mem::take(&mut out.checks));
    }
    let measured_s = phase.elapsed().as_secs_f64();
    let peak_bytes = setup_peak.max(alloc::peak_bytes().saturating_sub(harness_bytes));

    // Simulated latency is a pure function of the inputs: every round must
    // have produced exactly the same figure.
    let model_mcycles = series.model_mcycles[0];
    checks.check(
        series
            .model_mcycles
            .iter()
            .all(|m| m.to_bits() == model_mcycles.to_bits()),
        || "model_mcycles differs between rounds of one run".to_owned(),
    );

    w.verify(&mut rec, &mut checks);
    w.teardown();

    let q: Vec<f64> = series.per_case.iter().map(|s| lower_quartile(s)).collect();
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", lower_quartile(&setups));
    metrics.insert("op_p50_ms", lower_median(&q));
    metrics.insert(
        "work_per_s",
        w.work_units() as f64 / (lower_quartile(&series.round_ms) / 1e3),
    );
    metrics.insert("peak_heap_mb", peak_bytes as f64 / 1e6);
    metrics.insert("model_mcycles", model_mcycles);
    Ok(EndToEnd {
        metrics,
        checks,
        rounds: series.rounds(),
        measured_s,
        host_ref_ms: lower_median(&paced.refs),
    })
}

/// What a traced run produced besides its metrics.
pub struct Traced {
    pub metrics: Metrics,
    pub checks: Checks,
    pub recorder: Recorder,
    pub breakdown: spans::Breakdown,
    /// One line stating how the layers' self times add up to the round.
    pub summary: String,
}

/// Round walls per mode for one workload of a traced run.
type Walls = BTreeMap<Mode, Vec<f64>>;

fn overhead_pct(walls: &Walls, mode: Mode) -> f64 {
    match (walls.get(&mode), walls.get(&Mode::Plain)) {
        (Some(with), Some(plain)) if !with.is_empty() && !plain.is_empty() => {
            100.0 * (lower_quartile(with) / lower_quartile(plain) - 1.0)
        }
        _ => 0.0,
    }
}

/// The traced run of `workloads[main]`.
///
/// Every per-layer metric is printed by every traced run, so the run first
/// measures each *other* workload for [`SIDE_ROUNDS`] rounds per mode, then
/// spends the rest of `seconds` rotating the main workload through its modes
/// (plain, traced and — for `compile-cold` — `cim_obs` enabled; interleaved,
/// so the overheads compare rounds from the same stretch of machine time).
/// `obs_home` is the workload whose plain/obs rounds give
/// `obs.enabled_overhead_pct`, and whose verification hosts the
/// simulator-layer measurements.
pub fn run_traced(
    workloads: &mut [Box<dyn Workload>],
    main: usize,
    obs_home: usize,
    seconds: f64,
) -> Result<Traced, String> {
    let mut rec = Recorder::new();
    let mut checks = Checks::default();
    let mut walls: Vec<Walls> = workloads.iter().map(|_| Walls::new()).collect();
    let mut host_refs = Vec::new();
    let phase = Instant::now();

    let mut order: Vec<usize> = (0..workloads.len()).filter(|&i| i != main).collect();
    order.push(main);
    for index in order {
        let w = workloads[index].as_mut();
        let is_main = index == main;
        // Round walls are compared plain against traced against obs, so they
        // are brought to reference speed like the end-to-end times.
        let mut paced = Paced::new(w.scales_with_host_speed());
        rec.on = true; // set-up spans carry graph/arch/api layer numbers
        w.setup(&mut rec)?;
        rec.on = false;
        let mut out = RoundOut::for_cases(w.cases());
        // A side workload only needs its traced rounds — except the obs
        // home, whose plain and obs rounds price `cim_obs`.
        let modes = if is_main || index == obs_home {
            w.traced_modes()
        } else {
            &[Mode::Traced]
        };
        let mut done = 0usize;
        loop {
            let enough = if is_main {
                phase.elapsed().as_secs_f64() >= seconds && done >= MIN_TRACED_ROUNDS * modes.len()
            } else {
                done >= SIDE_ROUNDS * modes.len()
            };
            if enough || done >= MAX_ROUNDS {
                break;
            }
            let mode = modes[done % modes.len()];
            let round = (done / modes.len()) as u32;
            let (wall_ms, _, to_ref) = paced.time(|| run_round(w, mode, round, &mut rec, &mut out));
            walls[index].entry(mode).or_default().push(wall_ms * to_ref);
            checks.absorb(std::mem::take(&mut out.checks));
            done += 1;
        }
        if is_main || index == obs_home {
            rec.on = true;
            w.verify(&mut rec, &mut checks);
            rec.on = false;
        }
        w.teardown();
        host_refs.append(&mut paced.refs);
    }
    let measured_s = phase.elapsed().as_secs_f64();

    let mut metrics = Metrics::new();
    for w in workloads.iter() {
        w.layer_metrics(&rec, &mut metrics);
    }
    metrics.insert(
        "obs.enabled_overhead_pct",
        overhead_pct(&walls[obs_home], Mode::Obs),
    );
    metrics.insert(
        "host.nproc",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
    metrics.insert("host.ref_ms", lower_median(&host_refs));
    let main_walls = &walls[main];
    metrics.insert(
        "harness.rounds",
        main_walls.values().map(Vec::len).sum::<usize>() as f64,
    );
    metrics.insert("harness.measured_s", measured_s);
    metrics.insert(
        "harness.trace_overhead_pct",
        overhead_pct(main_walls, Mode::Traced),
    );

    // Decomposition check on the main workload's traced rounds (rounds of
    // the other workloads share the span name but not the label).
    let main_label = rec.label(workloads[main].name());
    let breakdown = spans::breakdown(&rec.spans, |s| s.name == ROUND_SPAN && s.case == main_label);
    let harness_self = breakdown.layer_self_ms.get(HARNESS).copied().unwrap_or(0.0);
    let threads_busy =
        (breakdown.layers_ms() + harness_self) / breakdown.round_ms.max(f64::MIN_POSITIVE);
    checks.check(breakdown.rounds > 0, || {
        "the traced run recorded no round".to_owned()
    });
    checks.check(breakdown.residual_pct <= RESIDUAL_LIMIT_PCT, || {
        format!(
            "{:.2} % of the round is covered by no layer span (limit {RESIDUAL_LIMIT_PCT} %)",
            breakdown.residual_pct
        )
    });
    // Self times partition every thread's time exactly, so on one thread
    // layers + harness must equal the round; with client threads they sum to
    // at least the round.
    checks.check(threads_busy > 0.999, || {
        format!("layer self times sum to only {threads_busy:.4} of the round")
    });
    let summary = format!(
        "layers {:.3} ms + harness {:.3} ms = {:.4} x round wall {:.3} ms; unattributed residual {:.2} % (limit {} %)",
        breakdown.layers_ms(),
        harness_self,
        threads_busy,
        breakdown.round_ms,
        breakdown.residual_pct,
        RESIDUAL_LIMIT_PCT
    );
    Ok(Traced {
        metrics,
        checks,
        recorder: rec,
        breakdown,
        summary,
    })
}

/// Per case, the lower quartile of the durations of the spans called
/// `span_name`, slowest case first: `(case index, ms)`.
pub fn cases_slowest_first(rec: &Recorder, span_name: &str) -> Vec<(u32, f64)> {
    let mut q: Vec<(u32, f64)> = rec
        .by_case_ms(span_name)
        .into_iter()
        .map(|(case, ms)| (case, lower_quartile(&ms)))
        .collect();
    q.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("durations are finite"));
    q
}
