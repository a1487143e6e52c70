//! Content-addressed caching of pipeline artifacts.
//!
//! Across a bench sweep most compilation work is shared: the same zoo
//! graph is staged identically for every architecture preset, and `auto`
//! vs `cg` scheduling diverge only below the CG level. This module
//! memoizes the staged pipeline per pass:
//!
//! * a [`Fingerprint`] is a stable 128-bit structural hash (two-lane
//!   FNV-1a over 64-bit words, in-tree — no external hasher crates) of
//!   everything a pass reads: the graph (walked in its interned arena),
//!   the architecture (its tier parameters and cost model), the option
//!   fields *that pass consumes*, chained onto the fingerprint of the
//!   pass sequence that produced its input
//!   ([`Pass::fingerprint`](crate::Pass::fingerprint));
//! * a [`CompileCache`] maps fingerprints to [`Artifact`]s, with an
//!   in-process [`MemoryCache`] and an on-disk, content-addressed
//!   [`DiskCache`] (one checksummed entry file per fingerprint);
//! * a [`Session`](crate::Session) given a cache via
//!   [`Session::with_cache`](crate::Session::with_cache) computes the
//!   keys of the passes ahead and asks the cache once for the deepest
//!   artifact it holds ([`CompileCache::load`] takes the key chain).
//!   Artifacts are cumulative, so that one artifact serves every pass up
//!   to it, and only the passes after it run and store
//!   ([`Session::run`](crate::Session::run));
//!   [`Session::step`](crate::Session::step) looks up one pass at a time.
//!   Either way each pass gets its hit/miss/store outcome in the
//!   session's [`PassTimeline`](crate::PassTimeline), and
//!   [`CacheStats`] count per pass.
//!
//! Because option fields are fingerprinted per pass rather than
//! wholesale, jobs that share a pipeline *prefix* share cache entries:
//! `auto` and `cg` runs of the same (graph, arch) reuse each other's
//! `stages` and `cg` artifacts even though their
//! [`CompileOptions::level`](crate::CompileOptions::level) differ.
//!
//! # Invalidation rules
//!
//! A cached artifact is keyed purely by content, so there is no TTL and
//! no explicit invalidation: change any input — graph structure, any
//! architecture tier parameter, the computing mode, a consumed option
//! field, or the pass sequence — and the key changes. Stale entries are
//! simply never looked up again (prune a [`DiskCache`] directory by
//! deleting it). Three things opt a pass *out* of caching instead:
//!
//! * custom passes, unless they override
//!   [`Pass::fingerprint`](crate::Pass::fingerprint) (default `None`);
//! * [`Session::skip_next`](crate::Session::skip_next),
//!   [`Session::artifact_mut`](crate::Session::artifact_mut) and
//!   [`Session::replace_artifact`](crate::Session::replace_artifact),
//!   which hand the artifact to the caller and therefore stop the
//!   fingerprint chain for the rest of the session;
//! * code generation ([`CodegenPass`](crate::CodegenPass)) that stores
//!   statements: flows can reach
//!   [`CompileOptions::max_flow_ops`](crate::CompileOptions::max_flow_ops)
//!   meta-operators, far too large to bank. Only its counting step,
//!   `keeping(0)`, is cached: a flow that stores nothing is the
//!   schedules, the layout, the weight declarations and the counts.
//!
//! # On-disk layout
//!
//! `<dir>/<hh>/<fingerprint>.bin` where `hh` is the first hex byte of
//! the fingerprint (256-way sharding). Each entry is
//! `magic · format version · key · payload length · payload · checksum`,
//! written atomically (temp file + rename) so concurrent sweep workers
//! and interrupted runs can never leave a torn entry under a valid name.
//! [`DiskCache`] reads the deepest key's entry first, re-derives the
//! checksum and validates the stored key; a corrupted or truncated entry
//! is treated as a miss, deleted best-effort and recompiled — never
//! trusted — and the next shallower key is tried instead.

use crate::cg::{CgOptions, CgSchedule, Segment, StagePlan};
use crate::codegen::FlowLayout;
use crate::compile::{CompileOptions, Compiled, OptLevel};
use crate::inline::InlineVec;
use crate::mapping::OpMapping;
use crate::mvm::{MvmOptions, MvmSchedule};
use crate::perf::{intern_level, PerfReport};
use crate::pipeline::{Artifact, CgScheduled, Codegenned, MvmScheduled, Staged, VvmScheduled};
use crate::stage::{Stage, StageName};
use crate::vvm::VvmSchedule;
use cim_arch::{CimArchitecture, CostModel, EnergyBreakdown, NocCost};
use cim_graph::{Graph, NodeId, OpKind, PoolKind, Shape};
use cim_mop::{FlowStats, MopFlow};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------------
// Fingerprints.

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The 64-bit FNV-1a offset basis: the state [`fnv1a`] starts from (and
/// the low lane of every [`Fingerprint`]).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
// Second lane: FNV-1a over rotated words from a distinct offset basis, so
// the two 64-bit lanes fail independently.
const FNV_OFFSET_HI: u64 = 0x6c62_272e_07bb_0142;

/// One 64-bit FNV-1a step: xor `x` into `state`, multiply by the FNV
/// prime. Folding a string's bytes from [`FNV_OFFSET`] is FNV-1a64; both
/// fingerprint lanes and `cim_sim`'s weight synthesis hash with it.
#[inline]
#[must_use]
pub const fn fnv1a(state: u64, x: u64) -> u64 {
    (state ^ x).wrapping_mul(FNV_PRIME)
}

/// A stable 128-bit structural hash identifying one pipeline-stage input.
///
/// Equal compilation inputs always produce equal fingerprints (across
/// processes and hosts); distinct inputs produce distinct fingerprints up
/// to the collision resistance of two FNV-1a lanes fed differently
/// rotated words — comfortably beyond sweep-scale working sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    hi: u64,
    lo: u64,
}

impl Fingerprint {
    /// Renders the fingerprint as 32 lowercase hex digits (the entry
    /// file name of a [`DiskCache`]).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Chains this fingerprint with the next pass's, producing the cache
    /// key of that pass's output: `key_i = H(key_{i-1}, pass_i)`.
    #[must_use]
    pub fn chain(self, next: Fingerprint) -> Fingerprint {
        FingerprintBuilder::new("cim-mlc/chain/v2")
            .fingerprint(self)
            .fingerprint(next)
            .finish()
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Incremental [`Fingerprint`] construction over typed inputs.
///
/// The builder hashes 64-bit words: one step xors a word into the low
/// lane and the word rotated left by 31 bits into the high lane, then
/// multiplies both by the FNV prime ([`fnv1a`]). Byte strings are packed
/// eight bytes to a word (little-endian, the last word zero-padded).
/// Every write is tagged and every variable-length write is
/// length-prefixed, so field boundaries — and the padding — are
/// unambiguous: `str("ab").str("c")` and `str("a").str("bc")` hash
/// differently.
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    hi: u64,
    lo: u64,
}

impl FingerprintBuilder {
    /// The state before any word: the two FNV offset bases.
    const START: FingerprintBuilder = FingerprintBuilder {
        hi: FNV_OFFSET_HI,
        lo: FNV_OFFSET,
    };

    /// Starts a fingerprint in `domain` (a namespace string; distinct
    /// domains never collide by construction).
    #[must_use]
    pub fn new(domain: &str) -> Self {
        Self::START.str(domain)
    }

    /// The one hashing step every write goes through.
    #[inline]
    fn word(mut self, w: u64) -> Self {
        self.lo = fnv1a(self.lo, w);
        self.hi = fnv1a(self.hi, w.rotate_left(31));
        self
    }

    /// Tag `t` and a length in one word: the tag in the low byte, the
    /// length above it (lengths are far below 2^56).
    fn tag_len(self, t: u8, len: usize) -> Self {
        self.word(u64::from(t) | (len as u64) << 8)
    }

    fn raw(mut self, bytes: &[u8]) -> Self {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self = self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        // The zero-padded little-endian last word, built bytewise: a
        // variable-length copy into a buffer would be a `memcpy` call per
        // string, as costly as hashing a node name.
        let tail = words.remainder();
        if !tail.is_empty() {
            self = self.word(tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
        self
    }

    /// Hashes a length-prefixed byte string.
    #[must_use]
    pub fn bytes(self, bytes: &[u8]) -> Self {
        self.tag_len(1, bytes.len()).raw(bytes)
    }

    /// Hashes a length-prefixed UTF-8 string.
    #[must_use]
    pub fn str(self, s: &str) -> Self {
        self.tag_len(2, s.len()).raw(s.as_bytes())
    }

    /// Hashes an unsigned integer.
    #[must_use]
    pub fn u64(self, n: u64) -> Self {
        self.word(3).word(n)
    }

    /// Hashes a float by its exact bit pattern.
    #[must_use]
    pub fn f64(self, x: f64) -> Self {
        self.word(4).word(x.to_bits())
    }

    /// Hashes a boolean.
    #[must_use]
    pub fn bool(self, b: bool) -> Self {
        self.word(5 | u64::from(b) << 8)
    }

    /// Hashes another fingerprint (for chaining).
    #[must_use]
    pub fn fingerprint(self, fp: Fingerprint) -> Self {
        self.word(6).word(fp.hi).word(fp.lo)
    }

    /// Hashes an optional unsigned integer.
    fn opt_u64(self, n: Option<u64>) -> Self {
        match n {
            Some(n) => self.word(7).word(n),
            None => self.word(8),
        }
    }

    /// Finalizes the fingerprint.
    #[must_use]
    pub fn finish(self) -> Fingerprint {
        Fingerprint {
            hi: self.hi,
            lo: self.lo,
        }
    }
}

/// Structural fingerprint of a computation graph: its name and, per node
/// in id order, the node's name, operator attributes and input ids. This
/// is exactly what [`cim_graph::to_json`] writes (output shapes follow
/// from those), so two graphs key equal exactly when their documents
/// are equal — whatever their interned arena layouts.
///
/// The graph is walked in its arena: each distinct operator is reduced
/// to a key once per call, and no text is rendered.
#[must_use]
pub fn fingerprint_graph(graph: &Graph) -> Fingerprint {
    // Indexed by `OpId`. An arena may hold operators no node uses any
    // more (a retune interns the new one and leaves the old), so keys are
    // made on first use rather than for the whole arena.
    let mut op_keys: Vec<Option<Fingerprint>> = vec![None; graph.op_count()];
    let mut b = FingerprintBuilder::new("cim-mlc/graph/v2")
        .str(graph.name())
        .word(graph.len() as u64);
    for node in graph.nodes() {
        let op = *op_keys[node.op_id().index()].get_or_insert_with(|| fingerprint_op(node.op()));
        let inputs = node.inputs();
        b = b
            .str(node.name())
            .word(op.hi)
            .word(op.lo)
            .word(inputs.len() as u64);
        for id in inputs {
            b = b.word(id.index() as u64);
        }
    }
    b.finish()
}

/// The key of one operator's attributes: a word per variant, then its
/// fields in declaration order.
fn fingerprint_op(op: &OpKind) -> Fingerprint {
    fn shape(b: FingerprintBuilder, s: &Shape) -> FingerprintBuilder {
        s.dims()
            .iter()
            .fold(b.word(s.rank() as u64), |b, &d| b.word(d as u64))
    }
    let b = FingerprintBuilder::new("cim-mlc/op/v2");
    let w = |n: &usize| *n as u64;
    match op {
        OpKind::Input { shape: s } => shape(b.word(0), s),
        OpKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
        } => b
            .word(1)
            .word(w(out_channels))
            .word(w(kernel))
            .word(w(stride))
            .word(w(padding)),
        OpKind::Linear { out_features } => b.word(2).word(w(out_features)),
        OpKind::MatMul => b.word(3),
        OpKind::Relu => b.word(4),
        OpKind::Gelu => b.word(5),
        OpKind::Softmax => b.word(6),
        OpKind::Pool2d {
            kind,
            kernel,
            stride,
            padding,
        } => b
            .word(7)
            .word(match kind {
                PoolKind::Max => 0,
                PoolKind::Avg => 1,
            })
            .word(w(kernel))
            .word(w(stride))
            .word(w(padding)),
        OpKind::Reshape { shape: s } => shape(b.word(8), s),
        OpKind::GlobalAvgPool => b.word(9),
        OpKind::Add => b.word(10),
        OpKind::Concat { axis } => b.word(11).word(w(axis)),
        OpKind::Flatten => b.word(12),
        OpKind::BatchNorm => b.word(13),
        OpKind::LayerNorm => b.word(14),
        OpKind::Attention { heads } => b.word(15).word(w(heads)),
    }
    .finish()
}

/// Structural fingerprint of an architecture: its name, every tier
/// parameter, the computing mode, and the active cost model — including
/// a cost model overridden away from the tier-derived default.
#[must_use]
pub fn fingerprint_arch(arch: &CimArchitecture) -> Fingerprint {
    let (chip, core, xb) = (arch.chip(), arch.core(), arch.crossbar());
    let CostModel {
        xb_read_cycles,
        xb_write_cycles_per_row,
        e_cell,
        e_adc_per_conversion,
        e_dac_per_conversion,
        e_mov_per_bit,
        e_alu_per_op,
        e_write_per_cell,
    } = arch.cost();
    let b = FingerprintBuilder::new("cim-mlc/arch/v2")
        .str(arch.name())
        .u64(chip.core_grid().0.into())
        .u64(chip.core_grid().1.into())
        .str(chip.noc().name());
    let b = noc_cost(b, chip.noc_cost())
        .opt_u64(chip.l0_size_bits())
        .opt_u64(chip.l0_bw_bits_per_cycle())
        .opt_u64(chip.alu_ops_per_cycle())
        .u64(core.xb_grid().0.into())
        .u64(core.xb_grid().1.into())
        .str(core.noc().name());
    noc_cost(b, core.noc_cost())
        .opt_u64(core.l1_size_bits())
        .opt_u64(core.l1_bw_bits_per_cycle())
        .opt_u64(core.alu_ops_per_cycle())
        .bool(core.analog_partial_sum())
        .u64(xb.shape().rows.into())
        .u64(xb.shape().cols.into())
        .u64(xb.parallel_row().into())
        .u64(xb.dac_bits().into())
        .u64(xb.adc_bits().into())
        .str(xb.cell_type().name())
        .u64(xb.cell_bits().into())
        .str(arch.mode().name())
        .u64(*xb_read_cycles)
        .u64(*xb_write_cycles_per_row)
        .f64(*e_cell)
        .f64(*e_adc_per_conversion)
        .f64(*e_dac_per_conversion)
        .f64(*e_mov_per_bit)
        .f64(*e_alu_per_op)
        .f64(*e_write_per_cell)
        .finish()
}

fn noc_cost(b: FingerprintBuilder, cost: &NocCost) -> FingerprintBuilder {
    match cost {
        NocCost::Ideal => b.word(0),
        NocCost::UniformPerBit(c) => b.word(1).f64(*c),
        NocCost::Matrix(m) => m.iter().fold(b.word(2).word(m.len() as u64), |b, row| {
            row.iter().fold(b.word(row.len() as u64), |b, &x| b.f64(x))
        }),
        // `NocCost` may grow variants; one this function does not know
        // yet still keys by its full debug rendering.
        other => b.word(3).str(&format!("{other:?}")),
    }
}

/// The fingerprint a cached [`Session`](crate::Session) starts its pass
/// chain from: graph ⊕ architecture. Option fields are *not* included
/// here — each pass hashes the fields it consumes into its own link, so
/// jobs differing only in unconsumed options share entries.
#[must_use]
pub fn source_fingerprint(graph: &Graph, arch: &CimArchitecture) -> Fingerprint {
    source_fingerprint_of(fingerprint_graph(graph), arch)
}

/// [`source_fingerprint`] for a graph whose [`fingerprint_graph`] the
/// caller already holds: hashing the graph is ~10 % (lenet5) to ~13 %
/// (resnet50, resnet152) of a warm memory-cache compile on `isaac` on a
/// 2-vCPU x86-64 host (0.4 to 9 µs).
pub(crate) fn source_fingerprint_of(graph: Fingerprint, arch: &CimArchitecture) -> Fingerprint {
    FingerprintBuilder::new("cim-mlc/session/v2")
        .fingerprint(graph)
        .fingerprint(fingerprint_arch(arch))
        .finish()
}

/// Content fingerprint of one pipeline region (a single [`Stage`]) — the
/// key under which a [`RegionMemo`](crate::RegionMemo) interns stages for
/// incremental recompilation.
///
/// # Region-key derivation
///
/// The key hashes exactly what the CG/MVM/VVM schedulers read from a
/// stage: its crossbar mapping (rows, columns, bit-slicing factors,
/// crossbar counts, MVM unroll), the attached digital ALU work, streamed
/// element counts, the pipeline-fill fraction, and the dynamic-weights
/// flag. It deliberately *excludes* identity — [`Stage::node`],
/// [`Stage::name`] and the attached digital [`NodeId`]s — so a stage keeps
/// its key when a [`GraphDelta`](cim_graph::GraphDelta) edits an unrelated
/// part of the graph and renumbers nodes. Two stages with equal keys are
/// scheduled identically (for a fixed architecture and session options),
/// which is what lets [`Session::recompile`](crate::Session::recompile)
/// splice cached per-region schedules into the new artifact.
#[must_use]
pub fn region_fingerprint(stage: &Stage) -> Fingerprint {
    // Hot path: recomputed for every stage by every scheduling pass of
    // every (re)compile, so this feeds the builder's word step directly,
    // untagged and without a domain string: the field list is fixed, and
    // one leading domain word keeps region keys apart from every
    // builder domain. Region keys live only inside one session's
    // [`RegionMemo`](crate::RegionMemo) — never on disk.
    let m = &stage.mapping;
    let words: [u64; 15] = [
        REGION_DOMAIN,
        u64::from(m.rows),
        u64::from(m.cols),
        u64::from(m.cols_per_weight),
        u64::from(m.bit_planes),
        u64::from(m.v_xbs),
        u64::from(m.h_xbs),
        m.mvm_count,
        u64::from(m.last_rows),
        u64::from(m.last_cols),
        stage.alu_ops,
        stage.in_elements,
        stage.out_elements,
        stage.fill_fraction.to_bits(),
        u64::from(stage.dynamic_weights),
    ];
    words
        .into_iter()
        .fold(FingerprintBuilder::START, FingerprintBuilder::word)
        .finish()
}

/// Domain constant separating region keys from every
/// [`FingerprintBuilder`] domain (whose first word is a string tag, 2,
/// in the low byte; this constant's low byte is `'1'`).
const REGION_DOMAIN: u64 = 0x6369_6d2d_6d6c_6331; // "cim-mlc1"

// ---------------------------------------------------------------------------
// The cache abstraction.

/// Aggregate hit/miss/store counters of one [`CompileCache`] instance,
/// counted per pass: a warm compile of `k` cached passes counts `k`
/// hits, and a cold one `k` misses and `k` stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Passes served from the cache: a lookup that found the artifact
    /// at depth `j` of its key chain served `j + 1` passes.
    pub hits: u64,
    /// Keys looked up and not served (including corrupt entries).
    pub misses: u64,
    /// Artifacts written into the cache.
    pub stores: u64,
}

impl CacheStats {
    /// Total keys looked up (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Counter-wise difference `self - earlier` (saturating): the
    /// activity between two [`CompileCache::stats`] snapshots of the
    /// same instance — e.g. one sweep's share of a long-lived cache.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            stores: self.stores.saturating_sub(earlier.stores),
        }
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{} hit(s), {} miss(es), {} store(s), hit rate {:.1}%",
            self.hits,
            self.misses,
            self.stores,
            self.hit_rate() * 100.0
        )
    }
}

/// A content-addressed store of pipeline artifacts.
///
/// Implementations are shared across sweep worker threads behind an
/// `Arc`, so they must be internally synchronized. `load`/`store` are
/// best-effort: a cache may decline to store (returning `false`) and
/// must answer `None` rather than guess when an entry cannot be
/// validated.
pub trait CompileCache: Send + Sync {
    /// Looks up a key chain, the keys of consecutive passes shallowest
    /// first, and returns the deepest entry held as `(depth, artifact)`,
    /// `keys[depth]` being its key; `None` when no key is held.
    ///
    /// A hit is a pass served: artifacts are cumulative, so a hit at
    /// depth `j` counts `j + 1` hits, and each deeper key a miss. A
    /// one-key chain is a plain lookup.
    fn load(&self, keys: &[Fingerprint]) -> Option<(usize, Artifact)>;

    /// Stores `artifact` under `key`. Returns whether the artifact was
    /// actually banked (codegen artifacts whose flow stores statements,
    /// and I/O failures, are not).
    fn store(&self, key: &Fingerprint, artifact: &Artifact) -> bool;

    /// Counters accumulated since this instance was created.
    fn stats(&self) -> CacheStats;
}

fn cacheable(artifact: &Artifact) -> bool {
    match artifact {
        Artifact::Source => false,
        Artifact::Staged(_)
        | Artifact::CgScheduled(_)
        | Artifact::MvmScheduled(_)
        | Artifact::VvmScheduled(_) => true,
        // The counting step's flow: it stores no statement and never will.
        Artifact::Codegenned(c) => c.flow.stmts().is_empty() && c.flow.is_full(),
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl Counters {
    /// Counts a lookup of `keys` keys that served the passes up to
    /// `depth`.
    fn lookup(&self, keys: usize, depth: Option<usize>) {
        let hits = depth.map_or(0, |depth| depth + 1);
        self.hits.fetch_add(hits as u64, Ordering::Relaxed);
        self.misses
            .fetch_add((keys - hits) as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
        }
    }
}

/// An in-process [`CompileCache`]: a mutex-guarded map of shared
/// artifacts. This is what a sweep's worker pool shares by default.
///
/// Entries are held behind `Arc` so the lock only ever guards a pointer
/// clone; the deep artifact copies happen outside it, and concurrent
/// workers never serialize on each other's clone time.
#[derive(Debug, Default)]
pub struct MemoryCache {
    entries: Mutex<HashMap<Fingerprint, Arc<Artifact>>>,
    counters: Counters,
}

impl MemoryCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        MemoryCache::default()
    }

    /// Number of artifacts currently banked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// The map, even if a thread panicked while holding the lock: the
    /// lock only ever guards a lookup or the insert of a fully built
    /// entry, so a poisoned map is still a consistent one.
    fn entries(&self) -> MutexGuard<'_, HashMap<Fingerprint, Arc<Artifact>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the cache holds no artifacts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`CompileCache::load`] without the deep copy: all the keys are
    /// looked up under one lock, which guards only a pointer clone.
    fn probe(&self, keys: &[Fingerprint]) -> Option<(usize, Arc<Artifact>)> {
        let found = {
            let entries = self.entries();
            keys.iter()
                .enumerate()
                .rev()
                .find_map(|(depth, key)| Some((depth, Arc::clone(entries.get(key)?))))
        };
        self.counters
            .lookup(keys.len(), found.as_ref().map(|&(depth, _)| depth));
        found
    }
}

impl CompileCache for MemoryCache {
    fn load(&self, keys: &[Fingerprint]) -> Option<(usize, Artifact)> {
        // Deep copy outside the lock.
        self.probe(keys)
            .map(|(depth, artifact)| (depth, (*artifact).clone()))
    }

    fn store(&self, key: &Fingerprint, artifact: &Artifact) -> bool {
        if !cacheable(artifact) {
            return false;
        }
        // Deep copy outside the lock; only the Arc moves under it.
        let entry = Arc::new(artifact.clone());
        self.entries().insert(*key, entry);
        self.counters.stores.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }
}

/// An on-disk, content-addressed [`CompileCache`] surviving across
/// processes — this is what `cimc --cache-dir` opens, and what makes a
/// warm CI sweep serve every pass from disk.
///
/// See the [module docs](self) for the directory layout, atomicity and
/// corruption handling.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    counters: Counters,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    /// Propagates the I/O error when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let root = dir.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskCache {
            root,
            counters: Counters::default(),
        })
    }

    /// The cache's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry file an artifact with fingerprint `key` lives at.
    #[must_use]
    pub fn entry_path(&self, key: &Fingerprint) -> PathBuf {
        let hex = key.to_hex();
        self.root.join(&hex[..2]).join(format!("{hex}.bin"))
    }

    /// The validated entry under `key`, if there is one. A corrupt or
    /// foreign entry is never trusted: its file is dropped (best effort)
    /// so the recompiled artifact replaces it.
    fn read(&self, key: &Fingerprint) -> Option<Artifact> {
        let path = self.entry_path(key);
        let bytes = std::fs::read(&path).ok()?;
        decode_entry(key, &bytes)
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&path);
            })
            .ok()
    }
}

impl CompileCache for DiskCache {
    /// Reads the deepest key's file first, and falls back to the next
    /// shallower key when a file is missing or corrupt, so a warm chain
    /// costs one file read.
    fn load(&self, keys: &[Fingerprint]) -> Option<(usize, Artifact)> {
        let found = keys
            .iter()
            .enumerate()
            .rev()
            .find_map(|(depth, key)| Some((depth, self.read(key)?)));
        self.counters
            .lookup(keys.len(), found.as_ref().map(|&(depth, _)| depth));
        found
    }

    fn store(&self, key: &Fingerprint, artifact: &Artifact) -> bool {
        let Some(bytes) = encode_entry(key, artifact) else {
            return false;
        };
        let path = self.entry_path(key);
        let Some(shard) = path.parent() else {
            return false;
        };
        if std::fs::create_dir_all(shard).is_err() {
            return false;
        }
        if write_atomic(&path, &bytes).is_err() {
            return false;
        }
        self.counters.stores.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }
}

/// A two-level [`CompileCache`]: a [`MemoryCache`] front backed by a
/// [`DiskCache`]. This is what a long-running `cimc serve` process
/// shares across every request when given a cache directory — repeat
/// requests hit the in-process map without touching the filesystem,
/// while a restart still finds its artifacts on disk.
///
/// `load` consults memory first, then the disk for the keys deeper than
/// memory's hit, and promotes what the disk served into memory so the
/// next lookup is RAM-speed. `store` banks in both levels.
/// [`stats`](CompileCache::stats) counts each key once: hits are the
/// passes memory served plus those the disk served beyond them
/// (promotions are not double-counted), misses are keys both levels
/// missed, and stores are the disk level's (the durable one).
#[derive(Debug)]
pub struct TieredCache {
    memory: MemoryCache,
    disk: DiskCache,
}

impl TieredCache {
    /// Opens (creating if needed) a tiered cache whose disk level is
    /// rooted at `dir`, with an empty memory level.
    ///
    /// # Errors
    /// Propagates the I/O error when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(TieredCache {
            memory: MemoryCache::new(),
            disk: DiskCache::open(dir)?,
        })
    }

    /// The disk level's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        self.disk.root()
    }

    /// Number of artifacts currently promoted into the memory level.
    #[must_use]
    pub fn memory_len(&self) -> usize {
        self.memory.len()
    }
}

impl CompileCache for TieredCache {
    fn load(&self, keys: &[Fingerprint]) -> Option<(usize, Artifact)> {
        let memory = self.memory.probe(keys);
        let beyond = memory.as_ref().map_or(0, |&(depth, _)| depth + 1);
        if beyond < keys.len() {
            if let Some((depth, artifact)) = self.disk.load(&keys[beyond..]) {
                let depth = beyond + depth;
                // Promote so the next lookup stays in RAM. The promotion
                // store bumps the memory level's store counter, which
                // `stats` ignores (only durable disk stores are reported).
                self.memory.store(&keys[depth], &artifact);
                return Some((depth, artifact));
            }
        }
        memory.map(|(depth, artifact)| (depth, (*artifact).clone()))
    }

    fn store(&self, key: &Fingerprint, artifact: &Artifact) -> bool {
        let banked_in_memory = self.memory.store(key, artifact);
        self.disk.store(key, artifact) || banked_in_memory
    }

    fn stats(&self) -> CacheStats {
        let memory = self.memory.stats();
        let disk = self.disk.stats();
        CacheStats {
            hits: memory.hits + disk.hits,
            // The disk is asked only for the keys memory missed, so a key
            // it served is a hit, not a miss; only keys both levels
            // missed count.
            misses: disk.misses,
            stores: disk.stores,
        }
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a hidden
/// sibling temp file first and are renamed into place, so readers (and
/// CI artifact uploads) can never observe a truncated file, even if the
/// writer is killed mid-write. Used by the [`DiskCache`] and by
/// `cimc bench --out`.
///
/// # Errors
/// Propagates I/O errors; on a failed rename the temp file is removed.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("`{}` has no file name to replace", path.display()),
        )
    })?;
    // Unique per process *and* per call: concurrent sweep workers
    // storing the same key must not share a temp file, or one writer's
    // rename could publish the other's half-written bytes.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

// ---------------------------------------------------------------------------
// The entry codec: a compact, checksummed binary encoding of cacheable
// artifacts. Floats are stored by bit pattern, so a round-trip is exact
// and a warm sweep's report is byte-identical to the cold run's.

const ENTRY_MAGIC: &[u8; 4] = b"CIMC";
/// Version of the on-disk entry encoding. Bump on any layout change:
/// old entries then fail validation and are transparently recompiled.
/// Version 2 hashes words instead of bytes, which moved every key, so
/// version-1 files are orphaned: never looked up again.
pub const ENTRY_FORMAT_VERSION: u32 = 2;

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }
    fn u32(&mut self, n: u32) {
        self.buf.extend_from_slice(&n.to_le_bytes());
    }
    fn u64(&mut self, n: u64) {
        self.buf.extend_from_slice(&n.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    fn bool(&mut self, b: bool) {
        self.buf.push(u8::from(b));
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, String>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated entry: wanted {n} byte(s) at {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn usize(&mut self) -> DecResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| "length out of range".to_owned())
    }

    fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> DecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid bool byte {other}")),
        }
    }

    fn str(&mut self) -> DecResult<String> {
        self.str_ref().map(str::to_owned)
    }

    fn str_ref(&mut self) -> DecResult<&'a str> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|e| format!("invalid UTF-8 string: {e}"))
    }

    fn done(&self) -> DecResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing byte(s) after artifact",
                self.buf.len() - self.pos
            ))
        }
    }
}

const TAG_STAGED: u8 = 1;
const TAG_CG: u8 = 2;
const TAG_MVM: u8 = 3;
const TAG_VVM: u8 = 4;
const TAG_CODEGEN: u8 = 5;

fn enc_node(e: &mut Enc, id: NodeId) {
    e.u64(id.index() as u64);
}

fn dec_node(d: &mut Dec<'_>) -> DecResult<NodeId> {
    // Validate the dense-id range here rather than letting
    // `NodeId::from_index` panic: even a checksum-valid entry (anyone
    // can compute the FNV checksum) must decode-fail into a cache miss,
    // never abort the process.
    let index = d.usize()?;
    if u32::try_from(index).is_err() {
        return Err(format!("node index {index} outside the dense-id range"));
    }
    Ok(NodeId::from_index(index))
}

fn enc_mapping(e: &mut Enc, m: &OpMapping) {
    enc_node(e, m.node);
    e.u32(m.rows);
    e.u32(m.cols);
    e.u32(m.cols_per_weight);
    e.u32(m.bit_planes);
    e.u32(m.v_xbs);
    e.u32(m.h_xbs);
    e.u64(m.mvm_count);
    e.u32(m.last_rows);
    e.u32(m.last_cols);
}

fn dec_mapping(d: &mut Dec<'_>) -> DecResult<OpMapping> {
    Ok(OpMapping {
        node: dec_node(d)?,
        rows: d.u32()?,
        cols: d.u32()?,
        cols_per_weight: d.u32()?,
        bit_planes: d.u32()?,
        v_xbs: d.u32()?,
        h_xbs: d.u32()?,
        mvm_count: d.u64()?,
        last_rows: d.u32()?,
        last_cols: d.u32()?,
    })
}

/// Decodes a list of `len` items: up to `N` in place, a longer one into
/// one heap block of its exact size.
fn dec_inline<'a, T: Copy, const N: usize>(
    d: &mut Dec<'a>,
    len: usize,
    mut item: impl FnMut(&mut Dec<'a>) -> DecResult<T>,
) -> DecResult<InlineVec<T, N>> {
    if len <= N {
        return (0..len).map(|_| item(d)).collect();
    }
    let mut items = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        items.push(item(d)?);
    }
    Ok(items.into())
}

fn enc_stage(e: &mut Enc, s: &Stage) {
    enc_node(e, s.node);
    e.str(&s.name);
    enc_mapping(e, &s.mapping);
    e.u64(s.digital.len() as u64);
    for &id in &s.digital {
        enc_node(e, id);
    }
    e.u64(s.alu_ops);
    e.u64(s.in_elements);
    e.u64(s.out_elements);
    e.f64(s.fill_fraction);
    e.bool(s.dynamic_weights);
}

fn dec_stage(d: &mut Dec<'_>) -> DecResult<Stage> {
    let node = dec_node(d)?;
    let name = StageName::new(d.str_ref()?);
    let mapping = dec_mapping(d)?;
    let digital_len = d.usize()?;
    let digital = dec_inline(d, digital_len, dec_node)?;
    Ok(Stage {
        node,
        name,
        mapping,
        digital,
        alu_ops: d.u64()?,
        in_elements: d.u64()?,
        out_elements: d.u64()?,
        fill_fraction: d.f64()?,
        dynamic_weights: d.bool()?,
    })
}

fn enc_stages(e: &mut Enc, stages: &[Stage]) {
    e.u64(stages.len() as u64);
    for s in stages {
        enc_stage(e, s);
    }
}

fn dec_stages(d: &mut Dec<'_>) -> DecResult<Vec<Stage>> {
    let len = d.usize()?;
    let mut stages = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        stages.push(dec_stage(d)?);
    }
    Ok(stages)
}

fn enc_breakdown(e: &mut Enc, b: &EnergyBreakdown) {
    e.f64(b.crossbar);
    e.f64(b.adc);
    e.f64(b.dac);
    e.f64(b.movement);
    e.f64(b.alu);
}

fn dec_breakdown(d: &mut Dec<'_>) -> DecResult<EnergyBreakdown> {
    Ok(EnergyBreakdown {
        crossbar: d.f64()?,
        adc: d.f64()?,
        dac: d.f64()?,
        movement: d.f64()?,
        alu: d.f64()?,
    })
}

fn enc_report(e: &mut Enc, r: &PerfReport) {
    e.str(r.level);
    e.f64(r.latency_cycles);
    e.u64(r.peak_active_crossbars);
    e.f64(r.peak_power);
    enc_breakdown(e, &r.peak_breakdown);
    enc_breakdown(e, &r.energy);
    e.u64(r.segments as u64);
    e.f64(r.reprogram_cycles);
}

fn dec_report(d: &mut Dec<'_>) -> DecResult<PerfReport> {
    let level = d.str()?;
    let level =
        intern_level(&level).ok_or_else(|| format!("unknown scheduling level `{level}`"))?;
    Ok(PerfReport {
        level,
        latency_cycles: d.f64()?,
        peak_active_crossbars: d.u64()?,
        peak_power: d.f64()?,
        peak_breakdown: dec_breakdown(d)?,
        energy: dec_breakdown(d)?,
        segments: d.usize()?,
        reprogram_cycles: d.f64()?,
    })
}

fn enc_segments(e: &mut Enc, segments: &[Segment]) {
    e.u64(segments.len() as u64);
    for seg in segments {
        e.u64(seg.plans.len() as u64);
        for p in &seg.plans {
            e.u64(p.stage as u64);
            e.u32(p.duplication);
            e.u32(p.cores);
            e.u32(p.folds);
            e.f64(p.latency);
        }
        e.f64(seg.latency);
        e.u64(seg.active_crossbars);
        e.f64(seg.streaming_bits_per_cycle);
    }
}

fn dec_segments(d: &mut Dec<'_>) -> DecResult<Vec<Segment>> {
    let len = d.usize()?;
    let mut segments = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        let plan_len = d.usize()?;
        let plans = dec_inline(d, plan_len, |d| {
            Ok(StagePlan {
                stage: d.usize()?,
                duplication: d.u32()?,
                cores: d.u32()?,
                folds: d.u32()?,
                latency: d.f64()?,
            })
        })?;
        segments.push(Segment {
            plans,
            latency: d.f64()?,
            active_crossbars: d.u64()?,
            streaming_bits_per_cycle: d.f64()?,
        });
    }
    Ok(segments)
}

fn enc_cg(e: &mut Enc, cg: &CgSchedule) {
    enc_stages(e, &cg.stages);
    enc_segments(e, &cg.segments);
    e.f64(cg.reprogram_cycles);
    e.bool(cg.options.pipeline);
    e.bool(cg.options.duplication);
    enc_report(e, &cg.report);
}

fn dec_cg(d: &mut Dec<'_>) -> DecResult<CgSchedule> {
    Ok(CgSchedule {
        stages: dec_stages(d)?,
        segments: dec_segments(d)?,
        reprogram_cycles: d.f64()?,
        options: CgOptions {
            pipeline: d.bool()?,
            duplication: d.bool()?,
        },
        report: dec_report(d)?,
    })
}

fn enc_mvm(e: &mut Enc, mvm: &MvmSchedule) {
    enc_segments(e, &mvm.segments);
    e.bool(mvm.staggered);
    enc_report(e, &mvm.report);
}

fn dec_mvm(d: &mut Dec<'_>) -> DecResult<MvmSchedule> {
    Ok(MvmSchedule {
        segments: dec_segments(d)?,
        staggered: d.bool()?,
        report: dec_report(d)?,
    })
}

fn enc_vvm(e: &mut Enc, vvm: &VvmSchedule) {
    enc_segments(e, &vvm.segments);
    e.u64(vvm.spreads.len() as u64);
    for row in &vvm.spreads {
        e.u64(row.len() as u64);
        for &k in row {
            e.u32(k);
        }
    }
    enc_report(e, &vvm.report);
}

fn dec_vvm(d: &mut Dec<'_>) -> DecResult<VvmSchedule> {
    let segments = dec_segments(d)?;
    let rows = d.usize()?;
    let mut spreads = Vec::with_capacity(rows.min(1 << 16));
    for _ in 0..rows {
        let cols = d.usize()?;
        spreads.push(dec_inline(d, cols, Dec::u32)?);
    }
    Ok(VvmSchedule {
        segments,
        spreads,
        report: dec_report(d)?,
    })
}

fn enc_options(e: &mut Enc, o: &CompileOptions) {
    e.u32(o.weight_bits);
    e.u32(o.act_bits);
    e.bool(o.cg.pipeline);
    e.bool(o.cg.duplication);
    e.bool(o.mvm.duplication);
    e.bool(o.mvm.pipeline);
    e.str(o.level.name());
    e.u64(o.max_flow_ops);
}

fn dec_options(d: &mut Dec<'_>) -> DecResult<CompileOptions> {
    let weight_bits = d.u32()?;
    let act_bits = d.u32()?;
    let cg = CgOptions {
        pipeline: d.bool()?,
        duplication: d.bool()?,
    };
    let mvm = MvmOptions {
        duplication: d.bool()?,
        pipeline: d.bool()?,
    };
    let level = d.str()?;
    let level = OptLevel::parse(&level).ok_or_else(|| format!("unknown level `{level}`"))?;
    Ok(CompileOptions {
        weight_bits,
        act_bits,
        cg,
        mvm,
        level,
        max_flow_ops: d.u64()?,
    })
}

fn enc_stats(e: &mut Enc, s: &FlowStats) {
    for n in [
        s.read_core,
        s.read_xb,
        s.write_xb,
        s.read_row,
        s.write_row,
        s.dcom,
        s.mov,
    ] {
        e.u64(n as u64);
    }
    e.u64(s.moved_elements);
    e.u64(s.parallel_blocks as u64);
    e.u64(s.max_parallel_width as u64);
}

fn dec_stats(d: &mut Dec<'_>) -> DecResult<FlowStats> {
    Ok(FlowStats {
        read_core: d.usize()?,
        read_xb: d.usize()?,
        write_xb: d.usize()?,
        read_row: d.usize()?,
        write_row: d.usize()?,
        dcom: d.usize()?,
        mov: d.usize()?,
        moved_elements: d.u64()?,
        parallel_blocks: d.usize()?,
        max_parallel_width: d.usize()?,
    })
}

/// The counting step's artifact: the compiled schedules with their
/// labels, the flow's name, weights and counts (it stores no statement),
/// and the layout in node order.
fn enc_codegen(e: &mut Enc, c: &Codegenned) {
    let compiled = &c.compiled;
    e.str(compiled.model());
    e.str(compiled.arch_name());
    enc_options(e, compiled.options());
    enc_cg(e, &compiled.cg);
    e.bool(compiled.mvm.is_some());
    if let Some(mvm) = &compiled.mvm {
        enc_mvm(e, mvm);
    }
    e.bool(compiled.vvm.is_some());
    if let Some(vvm) = &compiled.vvm {
        enc_vvm(e, vvm);
    }
    e.str(c.flow.name());
    e.u64(c.flow.mats().len() as u64);
    for m in c.flow.mats() {
        e.u32(m.rows);
        e.u32(m.cols);
        e.str(&m.name);
    }
    e.u64(c.flow.pushed() as u64);
    enc_stats(e, &FlowStats::of(&c.flow));
    let mut offsets: Vec<(&NodeId, &u64)> = c.layout.offsets.iter().collect();
    offsets.sort_unstable();
    e.u64(offsets.len() as u64);
    for (&node, &offset) in offsets {
        enc_node(e, node);
        e.u64(offset);
    }
    e.u64(c.layout.total);
}

fn dec_codegen(d: &mut Dec<'_>) -> DecResult<Codegenned> {
    let model = d.str()?;
    let arch_name = d.str()?;
    let options = dec_options(d)?;
    let cg = dec_cg(d)?;
    let mvm = if d.bool()? { Some(dec_mvm(d)?) } else { None };
    let vvm = if d.bool()? { Some(dec_vvm(d)?) } else { None };
    let compiled = Compiled::from_parts(model, arch_name, options, cg, mvm, vvm);
    let mut flow = MopFlow::bounded(d.str()?, 0);
    for _ in 0..d.usize()? {
        let (rows, cols) = (d.u32()?, d.u32()?);
        flow.declare_mat(rows, cols, d.str()?);
    }
    let pushed = d.usize()?;
    flow.set_counts(pushed, dec_stats(d)?);
    let len = d.usize()?;
    let mut offsets = HashMap::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        let node = dec_node(d)?;
        offsets.insert(node, d.u64()?);
    }
    let layout = FlowLayout {
        offsets,
        total: d.u64()?,
    };
    Ok(Codegenned {
        compiled,
        flow,
        layout,
    })
}

fn encode_artifact(artifact: &Artifact) -> Option<Vec<u8>> {
    let mut e = Enc::default();
    match artifact {
        Artifact::Staged(s) => {
            e.u8(TAG_STAGED);
            enc_stages(&mut e, &s.stages);
        }
        Artifact::CgScheduled(a) => {
            e.u8(TAG_CG);
            enc_cg(&mut e, &a.cg);
        }
        Artifact::MvmScheduled(a) => {
            e.u8(TAG_MVM);
            enc_cg(&mut e, &a.cg);
            enc_mvm(&mut e, &a.mvm);
        }
        Artifact::VvmScheduled(a) => {
            e.u8(TAG_VVM);
            enc_cg(&mut e, &a.cg);
            enc_mvm(&mut e, &a.mvm);
            enc_vvm(&mut e, &a.vvm);
        }
        Artifact::Codegenned(c) if cacheable(artifact) => {
            e.u8(TAG_CODEGEN);
            enc_codegen(&mut e, c);
        }
        Artifact::Source | Artifact::Codegenned(_) => return None,
    }
    Some(e.buf)
}

fn decode_artifact(payload: &[u8]) -> DecResult<Artifact> {
    let mut d = Dec::new(payload);
    let artifact = match d.u8()? {
        TAG_STAGED => Artifact::Staged(Staged {
            stages: dec_stages(&mut d)?,
        }),
        TAG_CG => Artifact::CgScheduled(Box::new(CgScheduled {
            cg: dec_cg(&mut d)?,
        })),
        TAG_MVM => Artifact::MvmScheduled(Box::new(MvmScheduled {
            cg: dec_cg(&mut d)?,
            mvm: dec_mvm(&mut d)?,
        })),
        TAG_VVM => Artifact::VvmScheduled(Box::new(VvmScheduled {
            cg: dec_cg(&mut d)?,
            mvm: dec_mvm(&mut d)?,
            vvm: dec_vvm(&mut d)?,
        })),
        TAG_CODEGEN => Artifact::Codegenned(Box::new(dec_codegen(&mut d)?)),
        other => return Err(format!("unknown artifact tag {other}")),
    };
    d.done()?;
    Ok(artifact)
}

fn checksum(payload: &[u8]) -> Fingerprint {
    FingerprintBuilder::new("cim-mlc/entry/v2")
        .bytes(payload)
        .finish()
}

/// Encodes one disk-cache entry, or `None` for uncacheable artifacts.
fn encode_entry(key: &Fingerprint, artifact: &Artifact) -> Option<Vec<u8>> {
    let payload = encode_artifact(artifact)?;
    let mut e = Enc::default();
    e.buf.extend_from_slice(ENTRY_MAGIC);
    e.u32(ENTRY_FORMAT_VERSION);
    e.u64(key.hi);
    e.u64(key.lo);
    e.u64(payload.len() as u64);
    e.buf.extend_from_slice(&payload);
    let sum = checksum(&payload);
    e.u64(sum.hi);
    e.u64(sum.lo);
    Some(e.buf)
}

/// Decodes and validates one disk-cache entry against the key it was
/// looked up under: magic, format version, stored key, payload length
/// and checksum must all match before the artifact is trusted.
fn decode_entry(key: &Fingerprint, bytes: &[u8]) -> DecResult<Artifact> {
    let mut d = Dec::new(bytes);
    if d.take(4)? != ENTRY_MAGIC {
        return Err("bad entry magic".to_owned());
    }
    let version = d.u32()?;
    if version != ENTRY_FORMAT_VERSION {
        return Err(format!(
            "entry format version {version} is not {ENTRY_FORMAT_VERSION}"
        ));
    }
    let stored = Fingerprint {
        hi: d.u64()?,
        lo: d.u64()?,
    };
    if stored != *key {
        return Err(format!(
            "entry key {stored} does not match lookup key {key}"
        ));
    }
    let payload_len = d.usize()?;
    let payload = d.take(payload_len)?;
    let sum = Fingerprint {
        hi: d.u64()?,
        lo: d.u64()?,
    };
    d.done()?;
    if sum != checksum(payload) {
        return Err("entry checksum mismatch (corrupted payload)".to_owned());
    }
    decode_artifact(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, Compiler, OptLevel, StageKind};
    use cim_arch::presets;
    use cim_graph::zoo;

    fn artifact_at(level: OptLevel, model: &Graph, arch: &CimArchitecture) -> Artifact {
        let options = CompileOptions {
            level,
            ..CompileOptions::default()
        };
        let mut session = Compiler::with_options(options).session(model, arch);
        session.run().unwrap();
        let (artifact, _) = session.into_parts();
        artifact
    }

    #[test]
    fn fingerprints_are_deterministic_and_input_sensitive() {
        let g = zoo::lenet5();
        let arch = presets::isaac_baseline();
        assert_eq!(fingerprint_graph(&g), fingerprint_graph(&zoo::lenet5()));
        assert_ne!(fingerprint_graph(&g), fingerprint_graph(&zoo::mlp()));
        assert_eq!(fingerprint_arch(&arch), fingerprint_arch(&arch));
        assert_ne!(
            fingerprint_arch(&arch),
            fingerprint_arch(&presets::jain_sram())
        );
        // Changing only the computing mode changes the fingerprint.
        assert_ne!(
            fingerprint_arch(&arch),
            fingerprint_arch(&arch.with_mode(cim_arch::ComputingMode::Cm))
        );
    }

    #[test]
    fn builder_writes_are_delimited() {
        let a = FingerprintBuilder::new("t").str("ab").str("c").finish();
        let b = FingerprintBuilder::new("t").str("a").str("bc").finish();
        assert_ne!(a, b);
        assert_ne!(
            FingerprintBuilder::new("t").u64(1).finish(),
            FingerprintBuilder::new("t").f64(f64::from_bits(1)).finish()
        );
        assert_eq!(
            FingerprintBuilder::new("t").bool(true).finish(),
            FingerprintBuilder::new("t").bool(true).finish()
        );
        let hex = a.to_hex();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));

        // Writes straddling the 8-byte word boundary, split differently,
        // and strings that differ only in zero padding.
        let text = "abcdefghijklmnopqr";
        let mut keys = Vec::new();
        for split in [0, 1, 7, 8, 9, 15, 16, 17, 18] {
            let (head, tail) = text.split_at(split);
            keys.push(FingerprintBuilder::new("t").str(head).str(tail).finish());
        }
        keys.push(FingerprintBuilder::new("t").str(text).finish());
        for s in [
            "abcdefg",
            "abcdefg\0",
            "abcdefgh",
            "abcdefgh\0",
            "abcdefghi",
        ] {
            keys.push(FingerprintBuilder::new("t").str(s).finish());
            keys.push(FingerprintBuilder::new("t").bytes(s.as_bytes()).finish());
        }
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn top_bit_flips_in_two_words_change_the_checksum() {
        // One FNV lane alone cannot see this: flipping bit 63 of a word
        // flips only bit 63 of the lane state, and a second such flip
        // cancels it. The high lane hashes the word rotated, so the
        // difference spreads there.
        let payload = [0x5au8; 24];
        let mut flipped = payload;
        flipped[7] ^= 0x80;
        flipped[15] ^= 0x80;
        let (a, b) = (checksum(&payload), checksum(&flipped));
        assert_eq!(a.lo, b.lo);
        assert_ne!(a, b);
    }

    /// Flips bit `bit` of `bytes`, counting from the first byte's
    /// least significant bit.
    fn flip(bytes: &mut [u8], bit: usize) {
        bytes[bit / 8] ^= 1 << (bit % 8);
    }

    /// Two distinct bit positions below `n`, or one when `two` is false.
    fn bits(n: usize, first: usize, second: usize, two: bool) -> Vec<usize> {
        let (a, b) = (first % n, second % n);
        if two && a != b {
            vec![a, b]
        } else {
            vec![a]
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn flipping_one_or_two_input_bits_changes_the_fingerprint(
            head in proptest::collection::vec(proptest::any::<u8>(), 0..40),
            tail in proptest::collection::vec(proptest::any::<u8>(), 0..40),
            n in proptest::any::<u64>(),
            first in 0usize..1 << 16,
            second in 0usize..1 << 16,
            two in proptest::any::<bool>(),
        ) {
            let key = |input: &[u8]| {
                let (h, rest) = input.split_at(head.len());
                let (n, t) = rest.split_at(8);
                FingerprintBuilder::new("t")
                    .bytes(h)
                    .u64(u64::from_le_bytes(n.try_into().unwrap()))
                    .bytes(t)
                    .finish()
            };
            let input = [head.as_slice(), &n.to_le_bytes(), &tail].concat();
            let mut flipped = input.clone();
            for bit in bits(input.len() * 8, first, second, two) {
                flip(&mut flipped, bit);
            }
            proptest::prop_assert_ne!(key(&input), key(&flipped));
        }

        #[test]
        fn flipping_one_or_two_payload_bits_changes_the_checksum(
            payload in proptest::collection::vec(proptest::any::<u8>(), 1..600),
            first in 0usize..1 << 16,
            second in 0usize..1 << 16,
            two in proptest::any::<bool>(),
        ) {
            let mut flipped = payload.clone();
            for bit in bits(payload.len() * 8, first, second, two) {
                flip(&mut flipped, bit);
            }
            proptest::prop_assert_ne!(checksum(&payload), checksum(&flipped));
        }
    }

    #[test]
    fn artifacts_round_trip_through_the_entry_codec() {
        let g = zoo::vgg7();
        for (arch, level) in [
            (presets::isaac_baseline(), OptLevel::Cg),
            (presets::isaac_baseline(), OptLevel::Auto),
            (presets::jain_sram(), OptLevel::Auto),
        ] {
            let artifact = artifact_at(level, &g, &arch);
            let key = source_fingerprint(&g, &arch);
            let bytes = encode_entry(&key, &artifact).expect("schedules are cacheable");
            let back = decode_entry(&key, &bytes).unwrap();
            match (&artifact, &back) {
                (Artifact::CgScheduled(a), Artifact::CgScheduled(b)) => assert_eq!(a, b),
                (Artifact::MvmScheduled(a), Artifact::MvmScheduled(b)) => assert_eq!(a, b),
                (Artifact::VvmScheduled(a), Artifact::VvmScheduled(b)) => assert_eq!(a, b),
                other => panic!("stage changed in round trip: {other:?}"),
            }
        }
    }

    #[test]
    fn staged_artifacts_round_trip() {
        let g = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let stages = crate::stage::extract_stages(&g, &arch, 8);
        let artifact = Artifact::Staged(Staged {
            stages: stages.clone(),
        });
        let key = source_fingerprint(&g, &arch);
        let bytes = encode_entry(&key, &artifact).unwrap();
        match decode_entry(&key, &bytes).unwrap() {
            Artifact::Staged(s) => assert_eq!(s.stages, stages),
            other => panic!("wrong stage: {other:?}"),
        }
    }

    /// The artifact of `CodegenPass::keeping(keep)` after the scheduling
    /// passes `level` plans.
    fn codegen_at(keep: usize, level: OptLevel, model: &Graph, arch: &CimArchitecture) -> Artifact {
        let options = CompileOptions {
            level,
            ..CompileOptions::default()
        };
        let mut pipeline = crate::Pipeline::plan(&options, arch);
        pipeline.push(Box::new(crate::CodegenPass::keeping(keep)));
        let mut session = pipeline.session(model, arch, options);
        session.run().unwrap();
        session.into_parts().0
    }

    #[test]
    fn source_and_statement_storing_codegen_artifacts_are_not_cacheable() {
        assert!(encode_entry(&checksum(b""), &Artifact::Source).is_none());
        assert!(!cacheable(&Artifact::Source));
        let (g, arch) = (zoo::lenet5(), presets::isaac_baseline());
        for keep in [1, usize::MAX] {
            let artifact = codegen_at(keep, OptLevel::Auto, &g, &arch);
            assert!(!cacheable(&artifact), "keep {keep}");
            assert!(encode_entry(&checksum(b""), &artifact).is_none());
            assert!(!MemoryCache::new().store(&checksum(b""), &artifact));
        }
    }

    #[test]
    fn counted_flows_round_trip_through_the_entry_codec() {
        for (model, arch, level) in [
            (zoo::lenet5(), presets::isaac_baseline(), OptLevel::Cg),
            (zoo::lenet5(), presets::isaac_baseline_wlm(), OptLevel::Auto),
            (zoo::mlp(), presets::jia_isscc21(), OptLevel::Auto),
        ] {
            let Artifact::Codegenned(a) = codegen_at(0, level, &model, &arch) else {
                panic!("codegen ran")
            };
            let artifact = Artifact::Codegenned(a.clone());
            assert!(cacheable(&artifact));
            let key = source_fingerprint(&model, &arch);
            let bytes = encode_entry(&key, &artifact).expect("a counted flow is cacheable");
            let Artifact::Codegenned(b) = decode_entry(&key, &bytes).unwrap() else {
                panic!("stage changed in round trip")
            };
            assert_eq!(b.flow, a.flow);
            assert!(b.flow.pushed() > 0 && b.flow.stmts().is_empty());
            let compiled = |c: &Compiled| {
                (
                    c.model().to_owned(),
                    c.arch_name().to_owned(),
                    *c.options(),
                    c.cg.clone(),
                    c.mvm.clone(),
                    c.vvm.clone(),
                )
            };
            assert_eq!(compiled(&b.compiled), compiled(&a.compiled));
            assert_eq!(b.layout.offsets, a.layout.offsets);
            assert_eq!(b.layout.total, a.layout.total);
            // Any cut of the entry is a decode error, not a panic.
            for cut in 0..bytes.len() {
                assert!(decode_entry(&key, &bytes[..cut]).is_err());
            }
        }
    }

    #[test]
    fn corrupted_entries_are_rejected() {
        let g = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let artifact = artifact_at(OptLevel::Auto, &g, &arch);
        let key = source_fingerprint(&g, &arch);
        let good = encode_entry(&key, &artifact).unwrap();
        assert!(decode_entry(&key, &good).is_ok());

        // Truncation.
        assert!(decode_entry(&key, &good[..good.len() / 2]).is_err());
        // Bit flip in the payload breaks the checksum.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(decode_entry(&key, &flipped).is_err());
        // A different lookup key rejects the stored key.
        let other = checksum(b"other");
        assert!(decode_entry(&other, &good).is_err());
        // Wrong magic.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(decode_entry(&key, &bad_magic).is_err());
        // Future format version.
        let mut future = good;
        future[4] = future[4].wrapping_add(1);
        assert!(decode_entry(&key, &future).is_err());
    }

    #[test]
    fn out_of_range_node_indices_are_decode_errors_not_panics() {
        // A checksum-valid payload can still be hostile: a node index
        // beyond the dense-id range must surface as a miss-able decode
        // error, not a `NodeId::from_index` panic.
        let mut e = Enc::default();
        e.u8(TAG_STAGED);
        e.u64(1); // one stage…
        e.u64(u64::MAX); // …whose node index cannot exist
        let err = decode_artifact(&e.buf).unwrap_err();
        assert!(err.contains("node index"), "{err}");
    }

    #[test]
    fn memory_cache_counts_hits_misses_and_stores() {
        let g = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let artifact = artifact_at(OptLevel::Auto, &g, &arch);
        let key = source_fingerprint(&g, &arch);
        let cache = MemoryCache::new();
        assert!(cache.load(&[key]).is_none());
        assert!(cache.store(&key, &artifact));
        assert!(cache.load(&[key]).is_some());
        assert!(!cache.store(&key, &Artifact::Source));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stores: 1
            }
        );
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_poisoned_memory_cache_still_loads_and_stores() {
        let g = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let artifact = artifact_at(OptLevel::Cg, &g, &arch);
        let key = source_fingerprint(&g, &arch);
        let cache = Arc::new(MemoryCache::new());
        assert!(cache.store(&key, &artifact));
        let held = Arc::clone(&cache);
        let worker = std::thread::spawn(move || {
            let _guard = held.entries.lock().unwrap();
            panic!("a worker panics while holding the cache lock");
        });
        assert!(worker.join().is_err());
        assert!(cache.entries.is_poisoned());

        assert!(cache.load(&[key]).is_some());
        let other = checksum(b"other");
        assert!(cache.store(&other, &artifact));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn tiered_cache_promotes_disk_hits_and_counts_lookups_once() {
        let dir = std::env::temp_dir().join(format!("cim_cache_tiered_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let artifact = artifact_at(OptLevel::Auto, &g, &arch);
        let key = source_fingerprint(&g, &arch);

        // Cold process: store banks in both levels.
        let cache = TieredCache::open(&dir).unwrap();
        assert!(cache.load(&[key]).is_none());
        assert!(cache.store(&key, &artifact));
        assert_eq!(cache.memory_len(), 1);
        assert!(cache.load(&[key]).is_some());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stores: 1
            }
        );

        // Fresh process over the same directory: the first load is a
        // disk hit that promotes into memory; the second stays in RAM.
        let warm = TieredCache::open(&dir).unwrap();
        assert_eq!(warm.memory_len(), 0);
        assert!(warm.load(&[key]).is_some());
        assert_eq!(warm.memory_len(), 1);
        assert!(warm.load(&[key]).is_some());
        let stats = warm.stats();
        assert_eq!((stats.hits, stats.misses), (2, 0), "{stats:?}");
        assert_eq!(warm.root(), dir.as_path());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_round_trips_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("cim_cache_rt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = zoo::vgg7();
        let arch = presets::jain_sram();
        let artifact = artifact_at(OptLevel::Auto, &g, &arch);
        let key = source_fingerprint(&g, &arch);
        {
            let cache = DiskCache::open(&dir).unwrap();
            assert!(cache.load(&[key]).is_none());
            assert!(cache.store(&key, &artifact));
            assert!(cache.entry_path(&key).is_file());
        }
        // A fresh instance over the same directory serves the entry.
        let cache = DiskCache::open(&dir).unwrap();
        let (depth, loaded) = cache.load(&[key]).expect("entry persisted");
        assert_eq!(depth, 0);
        assert_eq!(loaded.kind(), artifact.kind());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                stores: 0
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_treats_corruption_as_a_miss_and_removes_the_entry() {
        let dir = std::env::temp_dir().join(format!("cim_cache_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let artifact = artifact_at(OptLevel::Auto, &g, &arch);
        let key = source_fingerprint(&g, &arch);
        let cache = DiskCache::open(&dir).unwrap();
        assert!(cache.store(&key, &artifact));
        let path = cache.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load(&[key]).is_none(), "corrupt entry must not load");
        assert!(!path.exists(), "corrupt entry should be dropped");
        assert_eq!(cache.stats().misses, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_chain_lookup_serves_the_deepest_key_held_and_counts_per_key() {
        let dir = std::env::temp_dir().join(format!("cim_cache_chain_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let (cg, mvm) = (
            artifact_at(OptLevel::Cg, &g, &arch),
            artifact_at(OptLevel::CgMvm, &g, &arch),
        );
        let keys = [checksum(b"cg"), checksum(b"mvm"), checksum(b"vvm")];
        let memory = MemoryCache::new();
        let disk = DiskCache::open(&dir).unwrap();
        for cache in [&memory as &dyn CompileCache, &disk] {
            assert!(cache.load(&keys).is_none());
            assert!(cache.store(&keys[0], &cg) && cache.store(&keys[1], &mvm));
            let (depth, artifact) = cache.load(&keys).expect("the mvm entry");
            assert_eq!((depth, artifact.kind()), (1, StageKind::Mvm));
            // Three misses, then two passes served and one missed.
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses, stats.stores), (2, 4, 2));
        }
        // A corrupt deepest entry is dropped, and the next shallower served.
        let path = disk.entry_path(&keys[1]);
        std::fs::write(&path, b"CIMC torn").unwrap();
        let (depth, _) = disk.load(&keys).expect("the cg entry");
        assert_eq!(depth, 0);
        assert!(!path.exists(), "corrupt entry should be dropped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("cim_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_atomic(&path, b"{\"ok\":true}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"ok\":true}");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "report.json")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // A missing parent fails without creating anything at the target.
        let bad = dir.join("no_such_dir").join("report.json");
        assert!(write_atomic(&bad, b"x").is_err());
        assert!(!bad.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
