//! The benchmark's own span recorder: one span around every call into a
//! layer's public function, kept in memory and written as Chrome trace JSON
//! when the run ends. `cim_obs` stays disabled; these spans live entirely in
//! the benchmark's files.
//!
//! A span's name is `<layer>.<what>`; the part before the first dot is the
//! layer it is charged to. Spans of one round share the round number.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::time::Instant;

/// Layer that harness-owned spans (the round itself, a client thread's
/// lifetime) are charged to; its self time is the unattributed residual.
pub const HARNESS: &str = "harness";

/// Span ids are unique across threads; 0 means "no parent".
static NEXT_ID: AtomicU32 = AtomicU32::new(1);

/// Marks a span that belongs to no case.
pub const NO_CASE: u32 = u32::MAX;

/// Round number of spans recorded during set-up and verification.
pub const OUTSIDE_ROUNDS: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index into the recorder's case-label table, or [`NO_CASE`].
    pub case: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: u32,
    pub round: u32,
    pub tid: u32,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A per-round number that is not a time interval: a counter read at a layer
/// boundary (cache hits, bytes, queue depth) or a time the layer itself
/// reported (the server's `elapsed_ms`).
#[derive(Debug, Clone, PartialEq)]
pub struct Note {
    pub name: &'static str,
    pub round: u32,
    pub value: f64,
}

/// An open span, returned by [`Recorder::begin`] and closed by
/// [`Recorder::end`]. `None` while recording is off.
#[must_use]
pub struct Open(Option<usize>);

/// Records spans and notes for one thread. While `on` is false every method
/// is a branch and nothing else, so untraced rounds carry no recorder cost.
#[derive(Debug)]
pub struct Recorder {
    pub on: bool,
    epoch: Instant,
    pub round: u32,
    tid: u32,
    /// Parent given to spans opened while `stack` is empty (the span on
    /// another thread that spawned this recorder's thread).
    root_parent: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
    pub notes: Vec<Note>,
    pub case_labels: Vec<String>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            on: false,
            epoch: Instant::now(),
            round: OUTSIDE_ROUNDS,
            tid: 0,
            root_parent: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            notes: Vec::new(),
            case_labels: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock, switch and
    /// round; its top-level spans become children of this recorder's
    /// innermost open span. Merge it back with [`Recorder::absorb`].
    pub fn fork(&self, tid: u32) -> Recorder {
        Recorder {
            on: self.on,
            epoch: self.epoch,
            round: self.round,
            tid,
            root_parent: self.stack.last().copied().unwrap_or(self.root_parent),
            stack: Vec::new(),
            spans: Vec::new(),
            notes: Vec::new(),
            case_labels: Vec::new(),
        }
    }

    pub fn absorb(&mut self, mut other: Recorder) {
        self.spans.append(&mut other.spans);
        self.notes.append(&mut other.notes);
    }

    /// Registers a case label and returns its index for [`Span::case`].
    pub fn label(&mut self, label: impl Into<String>) -> u32 {
        let label = label.into();
        if let Some(i) = self.case_labels.iter().position(|l| *l == label) {
            return i as u32;
        }
        self.case_labels.push(label);
        (self.case_labels.len() - 1) as u32
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, case: u32) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = NEXT_ID.fetch_add(1, Relaxed);
        let parent = self.stack.last().copied().unwrap_or(self.root_parent);
        self.stack.push(id);
        self.spans.push(Span {
            name,
            case,
            start_ns: self.now_ns(),
            end_ns: 0,
            id,
            parent,
            round: self.round,
            tid: self.tid,
        });
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now_ns();
            let popped = self.stack.pop();
            debug_assert_eq!(
                popped,
                Some(self.spans[index].id),
                "spans close innermost first"
            );
        }
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, case: u32, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, case);
        let out = f();
        self.end(open);
        out
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.notes.push(Note {
                name,
                round: self.round,
                value,
            });
        }
    }

    // ---- queries used to turn a traced run into per-layer metrics ----

    /// Duration in ms of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per round, the summed duration in ms of the spans called `name`
    /// (rounds in ascending order; set-up spans form their own group).
    pub fn round_sums_ms(&self, name: &str) -> Vec<f64> {
        let mut by_round: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_round.entry(s.round).or_default() += s.ms();
        }
        by_round.into_values().collect()
    }

    /// Durations in ms of the spans called `name`, grouped by case index.
    pub fn by_case_ms(&self, name: &str) -> BTreeMap<u32, Vec<f64>> {
        let mut by_case: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            by_case.entry(s.case).or_default().push(s.ms());
        }
        by_case
    }

    pub fn note_values(&self, name: &str) -> Vec<f64> {
        self.notes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.value)
            .collect()
    }

    /// Per round, the sum of the notes called `name`.
    pub fn note_round_sums(&self, name: &str) -> Vec<f64> {
        let mut by_round: BTreeMap<u32, f64> = BTreeMap::new();
        for n in self.notes.iter().filter(|n| n.name == name) {
            *by_round.entry(n.round).or_default() += n.value;
        }
        by_round.into_values().collect()
    }
}

/// Total length of the union of `intervals` (each `(start, end)`), clipped to
/// `(lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Each span's self time in ns, keyed by span id: its duration minus the part
/// of that interval its child spans cover (children on any thread; overlapping
/// children are counted once).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// How the rounds of one workload decompose into layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    pub rounds: usize,
    /// Mean wall time of a round, ms.
    pub round_ms: f64,
    /// Mean self time per round and layer, ms, harness included.
    pub layer_self_ms: BTreeMap<&'static str, f64>,
    /// Share of the rounds' wall time during which no layer span was open on
    /// any thread, in percent.
    pub residual_pct: f64,
}

impl Breakdown {
    /// Sum of the layers' self times (harness excluded) per round, ms.
    pub fn layers_ms(&self) -> f64 {
        self.layer_self_ms
            .iter()
            .filter(|(layer, _)| **layer != HARNESS)
            .map(|(_, ms)| ms)
            .sum()
    }
}

/// Decomposes the rounds rooted at the spans `is_round` picks. Only spans
/// that descend from such a round are counted, so rounds of different
/// workloads in one recorder do not mix.
pub fn breakdown(spans: &[Span], is_round: impl Fn(&Span) -> bool) -> Breakdown {
    let roots: Vec<&Span> = spans.iter().filter(|s| is_round(s)).collect();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let root_of = |s: &Span| {
        let mut at = s;
        while !is_round(at) {
            at = by_id.get(&at.parent)?;
        }
        Some(at.id)
    };
    let selves = self_times_ns(spans);
    let mut layer_self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut layer_spans: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        let Some(root) = root_of(s) else { continue };
        *layer_self_ns.entry(s.layer()).or_default() += selves[&s.id];
        if s.layer() != HARNESS {
            layer_spans
                .entry(root)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let wall_ns: u64 = roots.iter().map(|r| r.end_ns - r.start_ns).sum();
    let attributed_ns: u64 = roots
        .iter()
        .map(|r| {
            layer_spans
                .get_mut(&r.id)
                .map_or(0, |iv| covered_ns(iv, r.start_ns, r.end_ns))
        })
        .sum();
    let n = roots.len().max(1) as f64;
    Breakdown {
        rounds: roots.len(),
        round_ms: wall_ns as f64 / 1e6 / n,
        layer_self_ms: layer_self_ns
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 / 1e6 / n))
            .collect(),
        residual_pct: if wall_ns == 0 {
            0.0
        } else {
            100.0 * (wall_ns - attributed_ns) as f64 / wall_ns as f64
        },
    }
}

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders spans as Chrome trace JSON (`chrome://tracing`, Perfetto): one
/// complete ("X") event per span, timestamps in microseconds, with the span's
/// id, parent, round and case under `args`.
pub fn chrome_trace(spans: &[Span], case_labels: &[String]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        json_string(s.name, &mut out);
        out.push_str(",\"cat\":");
        json_string(s.layer(), &mut out);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}",
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent
        );
        if s.round != OUTSIDE_ROUNDS {
            let _ = write!(out, ",\"round\":{}", s.round);
        }
        if let Some(label) = case_labels.get(s.case as usize) {
            out.push_str(",\"case\":");
            json_string(label, &mut out);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, tid: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            case: NO_CASE,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            round: 0,
            tid,
        }
    }

    /// round 0..100
    /// ├─ a.outer 10..60
    /// │  ├─ b.first 20..30
    /// │  └─ b.second 40..50
    /// └─ c.leaf 70..90
    fn tree() -> Vec<Span> {
        vec![
            span("harness.round", 1, 0, 0, 0, 100),
            span("a.outer", 2, 1, 0, 10, 60),
            span("b.first", 3, 2, 0, 20, 30),
            span("b.second", 4, 2, 0, 40, 50),
            span("c.leaf", 5, 1, 0, 70, 90),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let selves = self_times_ns(&tree());
        assert_eq!(selves[&1], 100 - 50 - 20); // round minus a.outer and c.leaf
        assert_eq!(selves[&2], 50 - 10 - 10);
        assert_eq!(selves[&3], 10);
        assert_eq!(selves[&4], 10);
        assert_eq!(selves[&5], 20);
        // On one thread the self times partition the round exactly.
        assert_eq!(selves.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_on_other_threads_are_covered_once() {
        // Two client threads under one round, overlapping in 30..60.
        let spans = vec![
            span("harness.round", 1, 0, 0, 0, 100),
            span("serve.rtt", 2, 1, 1, 10, 60),
            span("serve.rtt", 3, 1, 2, 30, 90),
        ];
        let selves = self_times_ns(&spans);
        assert_eq!(selves[&1], 100 - 80); // union 10..90
        assert_eq!(selves[&2] + selves[&3], 50 + 60);
        let b = breakdown(&spans, |s| s.name == "harness.round");
        assert!((b.residual_pct - 20.0).abs() < 1e-9);
        // Two busy threads: the layers sum to more than the round's wall.
        assert!((b.layers_ms() - 110.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_layers_to_the_round_within_the_residual() {
        let b = breakdown(&tree(), |s| s.name == "harness.round");
        assert_eq!(b.rounds, 1);
        assert!((b.round_ms - 100.0 / 1e6).abs() < 1e-15);
        let ns = |layer| (b.layer_self_ms[layer] * 1e6).round() as u64;
        assert_eq!((ns("a"), ns("b"), ns("c"), ns(HARNESS)), (30, 20, 20, 30));
        assert!((b.residual_pct - 30.0).abs() < 1e-9);
        assert!((b.layers_ms() + b.layer_self_ms[HARNESS] - b.round_ms).abs() < 1e-12);
    }

    #[test]
    fn breakdown_ignores_spans_outside_the_named_rounds() {
        let mut spans = tree();
        spans.push(span("other.round", 10, 0, 0, 200, 300));
        spans.push(span("d.leaf", 11, 10, 0, 210, 220));
        let b = breakdown(&spans, |s| s.name == "harness.round");
        assert!(!b.layer_self_ms.contains_key("d"));
        assert_eq!(b.rounds, 1);
    }

    #[test]
    fn recorder_nests_spans_and_is_free_when_off() {
        let mut rec = Recorder::new();
        let open = rec.begin("a.x", NO_CASE);
        rec.end(open);
        rec.note("a.count", 1.0);
        assert!(rec.spans.is_empty() && rec.notes.is_empty());

        rec.on = true;
        rec.round = 3;
        let outer = rec.begin("a.outer", NO_CASE);
        let case = rec.label("k");
        rec.time("b.inner", case, || ());
        let child = rec.fork(7);
        rec.end(outer);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, rec.spans[0].id);
        assert_eq!(rec.spans[0].parent, 0);
        assert_eq!(rec.spans[1].round, 3);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        // A forked recorder hangs its spans under the span open at the fork.
        let mut child = child;
        child.time("c.remote", NO_CASE, || ());
        assert_eq!(child.spans[0].parent, rec.spans[0].id);
        assert_eq!(child.spans[0].tid, 7);
        rec.absorb(child);
        assert_eq!(rec.round_sums_ms("c.remote").len(), 1);
        assert_eq!(rec.label("k"), case);
    }

    #[test]
    fn chrome_trace_is_json_the_vendored_parser_loads() {
        let labels = vec!["resnet152@isaac".to_owned(), "quote\"d".to_owned()];
        let mut spans = tree();
        spans[1].case = 0;
        spans[2].case = 1;
        let text = chrome_trace(&spans, &labels);
        let value: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let serde::Value::Map(top) = value else {
            panic!("object expected")
        };
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .expect("traceEvents");
        let serde::Value::Seq(events) = &events.1 else {
            panic!("array expected")
        };
        assert_eq!(events.len(), spans.len());
        assert!(text.contains("\"case\":\"resnet152@isaac\""));
        assert!(text.contains("\"ph\":\"X\""));
    }
}
