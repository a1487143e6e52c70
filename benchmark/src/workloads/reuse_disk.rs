//! `reuse-disk`: one project iteration against a filled on-disk cache. Load
//! the 15 zoo model files, compile the sweep matrix three times through newly
//! opened `DiskCache`s on one directory (warm), then cold-compile five
//! sessions and apply ten one-layer edits to each.
//!
//! JSON load, cache read and decode, and the per-session region memo do the
//! work; the cg DP runs only in the five cold compiles. The median case sits
//! inside the 150 warm cases.
//!
//! Filling the cache is part of *set-up*, not of the round. Every store
//! creates an inode and every refill frees one, and this kernel's ext4 makes
//! each `open(O_CREAT)` scan past all inodes its block group freed in the
//! last 1–6 minutes: 160 creates took anywhere from 2 ms to 90 ms depending
//! on what had been deleted when, so a fill inside the round made
//! `work_per_s` swing by ±40 % between runs of the same code. The first
//! set-up of a process fills the directory (`cache.fill_ms`, and visible in
//! `setup_s`); later set-ups find it filled; nothing is deleted until the run
//! is over.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cim_mlc::arch::presets;
use cim_mlc::compiler::cache::source_fingerprint;
use cim_mlc::graph::{self, zoo};
use cim_mlc::prelude::*;

use crate::harness::{guard_json, warm_up, Case, Checks, Metrics, RoundOut, Workload};
use crate::spans::{Recorder, NO_CASE};
use crate::stats::{below, lower_median, lower_quartile, shuffle, SplitMix64};

const WARM_PASSES: usize = 3;

/// The five edited sessions: the two heaviest ViT compiles, a ResNet on the
/// CM-mode PUMA, a VGG and a small ResNet on the SRAM preset.
const EDIT_SESSIONS: [(&str, &str); 5] = [
    ("vit_large", "isaac-wlm"),
    ("vit_base", "isaac"),
    ("resnet50", "puma"),
    ("vgg16", "isaac"),
    ("resnet18", "jain"),
];

/// Every session gets four weight replacements on seed-picked layers (the
/// schedule must not change) followed by six retunes of the classifier head
/// to these widths. Retuning a `Linear` inside a ViT attention block is a
/// shape error, which is why only the head is retuned. The widths are fixed
/// and each retune sets the head absolutely, so the set of schedules a round
/// produces — and with it `model_mcycles` — is the same for every seed.
const HEAD_WIDTHS: [usize; 6] = [1001, 1008, 1024, 512, 768, 2000];
const WEIGHT_EDITS: usize = 4;
const EDITS_PER_SESSION: usize = WEIGHT_EDITS + HEAD_WIDTHS.len();

struct EditSession {
    graph: Graph,
    arch: CimArchitecture,
    deltas: Vec<GraphDelta>,
}

struct State {
    cache_dir: PathBuf,
    model_files: Vec<PathBuf>,
    /// The sweep matrix, model-major.
    graphs: Vec<Graph>,
    archs: Vec<CimArchitecture>,
    edits: Vec<EditSession>,
    compiler: Compiler,
    labels: Vec<u32>,
    /// Simulated latency of each matrix cell as compiled during set-up.
    fill_cycles: Vec<f64>,
    /// Lookups one pass over the matrix makes (one per pipeline pass).
    lookups: u64,
    /// Region-memo counters of the warm-up round; every later round must
    /// repeat them exactly.
    expected_regions: Option<(u64, u64)>,
}

pub struct ReuseDisk {
    seed: u64,
    tmp: PathBuf,
    cases: Vec<Case>,
    /// Seeded orders: model files, matrix cells, edit sessions.
    load: Vec<usize>,
    matrix: Vec<usize>,
    sessions: Vec<usize>,
    sweep_models: Vec<String>,
    sweep_archs: Vec<String>,
    state: Option<State>,
}

impl ReuseDisk {
    pub fn new(seed: u64, tmp: &Path) -> Self {
        let spec = SweepSpec::full();
        let pairs: Vec<String> = spec
            .models
            .iter()
            .flat_map(|m| spec.archs.iter().map(move |a| format!("{m}@{a}")))
            .collect();
        let mut cases: Vec<Case> = zoo::NAMES
            .iter()
            .map(|m| Case::once(format!("load:{m}")))
            .collect();
        for pass in 1..=WARM_PASSES {
            cases.extend(pairs.iter().map(|p| Case::once(format!("warm{pass}:{p}"))));
        }
        cases.extend(
            EDIT_SESSIONS
                .iter()
                .map(|(m, a)| Case::once(format!("edit-cold:{m}@{a}"))),
        );
        for (m, a) in EDIT_SESSIONS {
            cases.extend((1..=EDITS_PER_SESSION).map(|k| Case::once(format!("edit{k}:{m}@{a}"))));
        }

        let mut rng = SplitMix64::new(seed);
        let mut shuffled = |n: usize| {
            let mut order: Vec<usize> = (0..n).collect();
            shuffle(&mut rng, &mut order);
            order
        };
        ReuseDisk {
            seed,
            tmp: tmp.to_owned(),
            load: shuffled(zoo::NAMES.len()),
            matrix: shuffled(pairs.len()),
            // One session lives at a time, so that the round's peak heap does
            // not depend on how the seed would interleave them.
            sessions: shuffled(EDIT_SESSIONS.len()),
            cases,
            sweep_models: spec.models,
            sweep_archs: spec.archs,
            state: None,
        }
    }

    fn pairs(&self) -> usize {
        self.sweep_models.len() * self.sweep_archs.len()
    }

    // Case index of each phase's first case.
    fn warm_base(&self, pass: usize) -> usize {
        zoo::NAMES.len() + pass * self.pairs()
    }
    fn cold_base(&self) -> usize {
        self.warm_base(WARM_PASSES)
    }
    fn edit_base(&self) -> usize {
        self.cold_base() + EDIT_SESSIONS.len()
    }

    /// The ten deltas of session `s`: seed-picked weight replacements, then
    /// the head retunes.
    fn deltas_for(&self, s: usize, graph: &Graph) -> Vec<GraphDelta> {
        let mut rng = SplitMix64::new(self.seed ^ (0xED17 + s as u64));
        let cim: Vec<String> = graph
            .cim_nodes()
            .iter()
            .map(|&id| graph.node(id).name().to_owned())
            .collect();
        let head = graph
            .nodes()
            .rfind(|n| matches!(n.op(), OpKind::Linear { .. }))
            .map(|n| n.name().to_owned())
            .expect("every edited model ends in a Linear head");
        let weights = (0..WEIGHT_EDITS).map(|_| GraphEdit::ReplaceNodeWeights {
            node: cim[below(&mut rng, cim.len())].clone(),
        });
        let retunes = HEAD_WIDTHS.iter().map(|&w| GraphEdit::RetuneOpParams {
            node: head.clone(),
            op: OpKind::linear(w),
        });
        weights
            .chain(retunes)
            .map(|e| GraphDelta::new().with(e))
            .collect()
    }
}

fn final_cycles(session: &Session<'_>) -> Result<f64, String> {
    session
        .artifact()
        .report()
        .map(|r| r.latency_cycles)
        .ok_or_else(|| "session produced no schedule".to_owned())
}

/// `(files, bytes)` under a cache directory.
fn disk_usage(dir: &Path) -> (u64, u64) {
    let mut total = (0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return total;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (f, b) = disk_usage(&path);
            total = (total.0 + f, total.1 + b);
        } else if let Ok(meta) = entry.metadata() {
            total = (total.0 + 1, total.1 + meta.len());
        }
    }
    total
}

impl Workload for ReuseDisk {
    fn name(&self) -> &'static str {
        "reuse-disk"
    }

    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn work_units(&self) -> u64 {
        self.cases.len() as u64
    }

    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let dir = self.tmp.join("reuse-disk");
        let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
        std::fs::create_dir_all(dir.join("models")).map_err(|e| io("creating the model dir", e))?;

        // A repeated set-up overwrites the model files in place.
        let mut model_files = Vec::new();
        for (name, g) in zoo::NAMES.iter().zip(zoo::all()) {
            let label = rec.label(*name);
            let json = rec.time("graph.json_write", label, || graph::to_json(&g));
            guard_json(name, json.len())?;
            rec.note("graph.json_bytes", json.len() as f64);
            let path = dir.join("models").join(format!("{name}.json"));
            std::fs::write(&path, json).map_err(|e| io("writing a model file", e))?;
            model_files.push(path);
        }

        let graphs = self
            .sweep_models
            .iter()
            .map(|m| zoo::by_name(m).ok_or_else(|| format!("unknown model `{m}`")))
            .collect::<Result<Vec<_>, _>>()?;
        let archs = self
            .sweep_archs
            .iter()
            .map(|a| presets::by_name(a).ok_or_else(|| format!("unknown preset `{a}`")))
            .collect::<Result<Vec<_>, _>>()?;
        if rec.on {
            for g in &graphs {
                for a in &archs {
                    rec.time("cache.fingerprint", NO_CASE, || source_fingerprint(g, a));
                }
            }
        }

        // Make sure the cache directory holds the whole matrix: the first
        // set-up of the process compiles and stores it, later ones hit.
        let compiler = Compiler::new();
        let cache_dir = dir.join("cache");
        let disk = Arc::new(DiskCache::open(&cache_dir).map_err(|e| io("opening the cache", e))?);
        let cache: Arc<dyn CompileCache> = disk.clone();
        let mut fill_cycles = Vec::with_capacity(graphs.len() * archs.len());
        for (g, m) in graphs.iter().zip(&self.sweep_models) {
            for (a, p) in archs.iter().zip(&self.sweep_archs) {
                let compiled = rec
                    .time("cache.fill", NO_CASE, || {
                        compiler
                            .session(g, a)
                            .with_cache(Arc::clone(&cache))
                            .finish()
                    })
                    .map_err(|e| format!("filling the cache with {m}@{p}: {e}"))?;
                fill_cycles.push(compiled.report().latency_cycles);
            }
        }
        let filled = disk.stats();
        if filled.stores != filled.misses {
            return Err(format!(
                "the fill pass did not store every miss: {filled:?}"
            ));
        }
        if rec.on {
            let (files, bytes) = disk_usage(&cache_dir);
            rec.note("cache.disk_files", files as f64);
            rec.note("cache.disk_bytes", bytes as f64);
            rec.note("cache.fill_misses", filled.misses as f64);
        }

        let mut edits = Vec::new();
        for (s, (m, a)) in EDIT_SESSIONS.iter().enumerate() {
            let graph = zoo::by_name(m).ok_or_else(|| format!("unknown model `{m}`"))?;
            let arch = presets::by_name(a).ok_or_else(|| format!("unknown preset `{a}`"))?;
            let deltas = self.deltas_for(s, &graph);
            // Validate the whole chain now: a delta that does not apply would
            // otherwise fail inside every timed round.
            let mut at = graph.clone();
            for (k, d) in deltas.iter().enumerate() {
                at = rec
                    .time("graph.delta_apply", NO_CASE, || d.apply(&at))
                    .map_err(|e| format!("delta {k} of {m}@{a} does not apply: {e}"))?;
            }
            edits.push(EditSession {
                graph,
                arch,
                deltas,
            });
        }

        let labels = self
            .cases
            .iter()
            .map(|c| rec.label(c.name.as_str()))
            .collect();
        self.state = Some(State {
            cache_dir,
            model_files,
            graphs,
            archs,
            edits,
            compiler,
            labels,
            fill_cycles,
            lookups: filled.lookups(),
            expected_regions: None,
        });
        warm_up(self, rec)
    }

    /// Files stay until the run's temporary directory is removed: deleting
    /// them here would slow every later create (see the module docs).
    fn teardown(&mut self) {
        self.state = None;
    }

    fn round(&mut self, rec: &mut Recorder, out: &mut RoundOut) {
        let (cold_base, edit_base) = (self.cold_base(), self.edit_base());
        let warm_bases: Vec<usize> = (0..WARM_PASSES).map(|p| self.warm_base(p)).collect();
        let st = self.state.as_mut().expect("set up");
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

        // (load) the model files, through the JSON parser.
        for &m in &self.load {
            let label = st.labels[m];
            let name = &self.cases[m].name;
            let started = Instant::now();
            let loaded = std::fs::read_to_string(&st.model_files[m])
                .map_err(|e| format!("{name}: {e}"))
                .and_then(|json| {
                    guard_json(name, json.len())?;
                    rec.time("graph.json_parse", label, || graph::from_json(&json))
                        .map_err(|e| format!("{name}: {e}"))
                });
            out.sample(m, ms(started));
            out.checks.result(loaded);
        }

        // (warm ×3) the matrix through a newly opened cache per pass.
        let mut warm = CacheStats::default();
        for &base in &warm_bases {
            let opened = rec.time("cache.open", NO_CASE, || DiskCache::open(&st.cache_dir));
            let Some(disk) = out
                .checks
                .result(opened.map_err(|e| format!("opening the cache: {e}")))
            else {
                return;
            };
            let disk = Arc::new(disk);
            let cache: Arc<dyn CompileCache> = disk.clone();
            for &p in &self.matrix {
                let (g, a) = (
                    &st.graphs[p / st.archs.len()],
                    &st.archs[p % st.archs.len()],
                );
                let case = base + p;
                let started = Instant::now();
                let compiled = rec.time("cache.warm", st.labels[case], || {
                    st.compiler
                        .session(g, a)
                        .with_cache(Arc::clone(&cache))
                        .finish()
                });
                out.sample(case, ms(started));
                let name = &self.cases[case].name;
                if let Some(c) = out
                    .checks
                    .result(compiled.map_err(|e| format!("{name}: {e}")))
                {
                    let cycles = c.report().latency_cycles;
                    out.result_cycles(cycles);
                    out.checks
                        .check(cycles.to_bits() == st.fill_cycles[p].to_bits(), || {
                            format!(
                                "{name}: warm latency {cycles} differs from the fill's {}",
                                st.fill_cycles[p]
                            )
                        });
                }
            }
            let stats = disk.stats();
            warm.hits += stats.hits;
            warm.misses += stats.misses;
            warm.stores += stats.stores;
        }
        rec.note("cache.warm_hits", warm.hits as f64);
        rec.note("cache.warm_misses", warm.misses as f64);
        // Every lookup of every warm pass hits, and nothing is written.
        out.checks.check(
            warm.hits == st.lookups * WARM_PASSES as u64 && warm.misses == 0 && warm.stores == 0,
            || {
                format!(
                    "warm passes: {warm:?}, expected {} hits and nothing else",
                    st.lookups * WARM_PASSES as u64
                )
            },
        );

        // (edit) five sessions, each cold-compiled here and then edited.
        let (mut region_hits, mut region_misses) = (0, 0);
        for &s in &self.sessions {
            let edit = &st.edits[s];
            let mut session = st.compiler.session(&edit.graph, &edit.arch);
            for op in 0..=EDITS_PER_SESSION {
                let case = if op == 0 {
                    cold_base + s
                } else {
                    edit_base + s * EDITS_PER_SESSION + op - 1
                };
                let label = st.labels[case];
                let name = &self.cases[case].name;
                let started = Instant::now();
                let ran = if op == 0 {
                    rec.time("region.cold", label, || session.run())
                } else {
                    rec.time("region.recompile", label, || {
                        session.recompile(&edit.deltas[op - 1])
                    })
                };
                out.sample(case, ms(started));
                let cycles = ran
                    .map_err(|e| format!("{name}: {e}"))
                    .and_then(|()| final_cycles(&session));
                if let Some(cycles) = out.checks.result(cycles) {
                    out.result_cycles(cycles);
                }
                if op > 0 {
                    let (hits, misses) = session.timeline().region_stats();
                    region_hits += hits;
                    region_misses += misses;
                }
            }
        }
        rec.note("region.hits", region_hits as f64);
        rec.note("region.misses", region_misses as f64);
        let expected = *st
            .expected_regions
            .get_or_insert((region_hits, region_misses));
        out.checks.check((region_hits, region_misses) == expected, || {
            format!("region counters ({region_hits}, {region_misses}) differ from the warm-up round's {expected:?}")
        });
    }

    fn verify(&mut self, _rec: &mut Recorder, checks: &mut Checks) {
        let st = self.state.as_ref().expect("set up");

        // What the disk cache serves must be byte-equal to a compile that
        // never saw a cache.
        let opened = DiskCache::open(&st.cache_dir).map_err(|e| format!("opening the cache: {e}"));
        if let Some(disk) = checks.result(opened) {
            let cache: Arc<dyn CompileCache> = Arc::new(disk);
            for (gi, g) in st.graphs.iter().enumerate() {
                for (ai, a) in st.archs.iter().enumerate() {
                    let what = format!("{}@{}", self.sweep_models[gi], self.sweep_archs[ai]);
                    let warm = st
                        .compiler
                        .session(g, a)
                        .with_cache(Arc::clone(&cache))
                        .finish();
                    let same = match (warm, st.compiler.compile(g, a)) {
                        (Ok(warm), Ok(fresh)) => format!("{warm:?}") == format!("{fresh:?}"),
                        _ => false,
                    };
                    checks.check(same, || {
                        format!("{what}: cached result is not byte-equal to an uncached compile")
                    });
                }
            }
        }

        // Every recompiled session must be byte-equal to a fresh compile of
        // the graph it now holds.
        for ((m, a), edit) in EDIT_SESSIONS.iter().zip(&st.edits) {
            let mut session = st.compiler.session(&edit.graph, &edit.arch);
            if checks
                .result(session.run().map_err(|e| format!("{m}@{a}: {e}")))
                .is_none()
            {
                continue;
            }
            for (k, delta) in edit.deltas.iter().enumerate() {
                let what = format!("{m}@{a} after edit {}", k + 1);
                if checks
                    .result(session.recompile(delta).map_err(|e| format!("{what}: {e}")))
                    .is_none()
                {
                    break;
                }
                let fresh = st.compiler.compile(session.graph(), &edit.arch);
                let same = match (session.compiled(), fresh) {
                    (Ok(incremental), Ok(fresh)) => {
                        format!("{incremental:?}") == format!("{fresh:?}")
                    }
                    _ => false,
                };
                checks.check(same, || {
                    format!("{what}: recompiled session differs from a fresh compile")
                });
            }
        }
    }

    fn layer_metrics(&self, rec: &Recorder, into: &mut Metrics) {
        // A traced run sets this workload up once, noting each file's size.
        let sizes: Vec<f64> = rec
            .note_values("graph.json_bytes")
            .into_iter()
            .take(zoo::NAMES.len())
            .collect();
        let json_bytes: f64 = sizes.iter().sum();
        let mb_per_s = |bytes: f64, ms: f64| bytes / 1e6 / (ms / 1e3);
        // One parse pass over all 15 files per round; one write pass per set-up.
        into.insert(
            "graph.json_parse_mb_per_s",
            mb_per_s(
                json_bytes,
                lower_quartile(&rec.round_sums_ms("graph.json_parse")),
            ),
        );
        // The parser is quadratic in document size, so throughput falls as
        // files grow: report the files up to 8 KB and those from 32 KB apart.
        let parses = rec.by_case_ms("graph.json_parse");
        let class_mb_per_s = |wanted: &dyn Fn(f64) -> bool| {
            let (mut bytes, mut ms) = (0.0, 0.0);
            for (name, &size) in zoo::NAMES.iter().zip(&sizes) {
                let case = rec
                    .case_labels
                    .iter()
                    .position(|l| l == &format!("load:{name}"));
                if let Some(samples) = case
                    .and_then(|c| parses.get(&(c as u32)))
                    .filter(|_| wanted(size))
                {
                    bytes += size;
                    ms += lower_quartile(samples);
                }
            }
            mb_per_s(bytes, ms)
        };
        into.insert(
            "graph.json_parse_small_mb_per_s",
            class_mb_per_s(&|b| b <= 8.0 * 1024.0),
        );
        into.insert(
            "graph.json_parse_large_mb_per_s",
            class_mb_per_s(&|b| b >= 32.0 * 1024.0),
        );
        into.insert(
            "graph.json_write_mb_per_s",
            mb_per_s(
                json_bytes,
                lower_quartile(&rec.round_sums_ms("graph.json_write")),
            ),
        );
        into.insert("graph.json_bytes", json_bytes);
        into.insert(
            "graph.delta_apply_us",
            lower_median(&rec.durations_ms("graph.delta_apply")) * 1e3,
        );

        into.insert(
            "cache.fingerprint_us",
            lower_median(&rec.durations_ms("cache.fingerprint")) * 1e3,
        );
        // The one fill of the run (in set-up), and one warm pass.
        let fill_ms: f64 = rec.durations_ms("cache.fill").iter().sum();
        let warm_ms = lower_quartile(&rec.round_sums_ms("cache.warm")) / WARM_PASSES as f64;
        into.insert("cache.fill_ms", fill_ms);
        into.insert("cache.warm_ms", warm_ms);
        let last = |name: &str| rec.note_values(name).last().copied().unwrap_or(0.0);
        let (hits, misses) = (
            last("cache.warm_hits"),
            last("cache.fill_misses") + last("cache.warm_misses"),
        );
        into.insert("cache.hits", hits);
        into.insert("cache.misses", misses);
        into.insert("cache.hit_rate", hits / (hits + misses));
        into.insert("cache.disk_bytes", last("cache.disk_bytes"));
        into.insert("cache.disk_files", last("cache.disk_files"));
        // A warm pass reads and decodes every file once.
        into.insert(
            "cache.decode_mb_per_s",
            mb_per_s(last("cache.disk_bytes"), warm_ms),
        );

        let cold_ms = lower_quartile(&rec.round_sums_ms("region.cold"));
        into.insert("region.cold_ms", cold_ms);
        into.insert(
            "region.recompile_p50_ms",
            lower_median(&rec.durations_ms("region.recompile")),
        );
        // Mean edit over mean cold compile of the same five sessions.
        let edit_ms = lower_quartile(&rec.round_sums_ms("region.recompile"));
        into.insert(
            "region.edit_vs_cold_ratio",
            (edit_ms / (EDIT_SESSIONS.len() * EDITS_PER_SESSION) as f64)
                / (cold_ms / EDIT_SESSIONS.len() as f64),
        );
        into.insert("region.hits", last("region.hits"));
        into.insert("region.misses", last("region.misses"));
    }
}
