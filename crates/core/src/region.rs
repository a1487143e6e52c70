//! Per-region schedule memoization for incremental recompilation.
//!
//! A *region* is one pipeline stage, identified by its content
//! fingerprint ([`crate::cache::region_fingerprint`])
//! rather than its position or [`NodeId`](cim_graph::NodeId). Every
//! scheduling level interns the stages into a [`RegionMemo`], and the
//! shared segment driver ([`crate::level`]) keys each per-segment schedule
//! by the level and the *sequence of region ids* the segment covers — one
//! table, one load/store pair, whatever the level. When [`Session::recompile`](crate::Session::recompile)
//! re-runs the pipeline after a [`GraphDelta`](cim_graph::GraphDelta),
//! segments whose region-id sequences are unchanged are answered from the
//! memo — only segments containing an edited region are rescheduled.
//!
//! # Validity
//!
//! A memo lives inside one [`Session`](crate::Session), whose
//! architecture and options are fixed for its lifetime. Region ids
//! therefore fully determine every cached value: two stages with equal
//! content fingerprints are scheduled identically under the session's
//! (arch, options, act_bits), so serving the cached segment is
//! correctness-preserving — verified bit-for-bit by the equivalence
//! proptests and the `incremental-smoke` CI gate.
//!
//! # Run ids
//!
//! The segmentation DP prices thousands of candidate segments per compile,
//! each keyed by its run of region ids. Rather than hash and box each run,
//! the memo hash-conses runs into a trie: a *run id* names a run, and the
//! run one region longer is the child `(run id, region id) → run id` — one
//! probe of a `u64`-keyed map. A DP row interns the prefixes of its window
//! in one walk, so each candidate's key costs one trie step, and the cost
//! memo is a vector indexed by run id. Like region ids, run ids are only
//! memo keys: they never influence a schedule.
//!
//! # Counters
//!
//! [`RegionMemo::counters`] reports hits/misses at *segment lookup*
//! granularity, weighted by the number of stages (regions) the segment
//! covers, so the numbers read as "regions reused" vs "regions
//! rescheduled". The internal DP cost memo is not counted — it is a
//! latency-estimation shortcut, not a schedule reuse.
//!
//! # Threads
//!
//! One thread at a time uses a memo: its tables are [`RefCell`]s and its
//! counters [`Cell`]s, so it is `Send` (a pinned session moves between
//! `cimc serve` workers) but not `Sync`. Every table holds only fully
//! built entries and each borrow ends with its method, so a panic in a
//! compile leaves every table usable.

use crate::cache::{region_fingerprint, Fingerprint};
use crate::cg::Segment;
use crate::level::{Level, Scheduled};
use crate::stage::Stage;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A memo key: the run of region ids a cached value covers.
type RegionKey = Box<[u32]>;

/// A map keyed by region-id runs, hashed a word at a time.
type RunMap<V> = HashMap<RegionKey, V, BuildHasherDefault<WordHasher>>;

/// A memoized DP row: one latency per budget-feasible candidate segment.
type Row = Arc<[f64]>;

/// Per-session memo of region ids and region-keyed schedules.
///
/// Create one per [`Session`](crate::Session); the schedulers reach it
/// through [`SchedContext::memo`](crate::level::SchedContext::memo).
#[derive(Debug, Default)]
pub struct RegionMemo {
    /// Content-fingerprint → dense region id, in insertion order, so ids
    /// are deterministic for a given stage list; their numeric values
    /// never influence schedules, only memo keys.
    ids: RefCell<HashMap<Fingerprint, u32>>,
    /// DP range-latency memo (CG segmentation cost estimates) over
    /// hash-consed region-id runs. Not counted in hit/miss.
    runs: RefCell<Runs>,
    /// DP row memo: every budget-feasible candidate-segment latency for a
    /// row, keyed by the region-id run of the row's budget window. One
    /// lookup answers a whole row, so recompiles skip the per-candidate
    /// probes (and the trie walk) for every row outside the edit's window.
    /// Not counted in hit/miss (like `runs`, a latency-estimation
    /// shortcut).
    ///
    /// It pays in time, not in counts. Without it the run trie still
    /// answers every candidate, so `compile.cg.priced` is unchanged (5 on
    /// the one-layer `resnet152@isaac-wlm` recompile) and allocations
    /// fall (cold `resnet152@isaac` 927 → 764, that recompile 1 345 →
    /// 1 300), but recompiles walk the trie for every candidate again.
    /// Measured without it (2 vCPUs, 10 s runs), the benchmark's
    /// `region.edit_vs_cold_ratio` rose from 0.504–0.520 to 0.643–0.672
    /// over 3 traced runs, and `reuse-disk` fell from 15 449 to 13 403
    /// operations/s in the median of 6 interleaved pairs, faster in only
    /// 1 of them.
    rows: RefCell<RunMap<Row>>,
    /// Segment schedules keyed by the region-id run they cover, one slot per
    /// scheduling [`Level`] (with the VVM level's per-plan spread factors),
    /// plans rebased to segment-relative stage indices.
    segments: RefCell<HashMap<RegionKey, [Option<Scheduled>; 3]>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

/// Hash-consed region-id runs and the DP's latency estimate of each.
#[derive(Debug, Default)]
struct Runs {
    /// `parent run id << 32 | region id` → the id of the parent run
    /// extended by that region. Run 0 is the empty run; ids count up from 1
    /// in interning order.
    children: HashMap<u64, u32, BuildHasherDefault<WordHasher>>,
    /// Per run id `r ≥ 1`, at `r - 1`: its latency estimate, or NaN while
    /// unpriced (a NaN estimate would only be priced again, to itself).
    costs: Vec<f64>,
}

impl Runs {
    /// The id of run `parent` extended by region `id`, interned on first
    /// sight.
    fn child(&mut self, parent: u32, id: u32) -> u32 {
        let next = self.costs.len() as u32 + 1;
        let costs = &mut self.costs;
        *self.children.entry(edge(parent, id)).or_insert_with(|| {
            costs.push(f64::NAN);
            next
        })
    }

    /// The id of `run`, if it was interned.
    fn find(&self, run: &[u32]) -> Option<u32> {
        run.iter().try_fold(0, |parent, &id| {
            self.children.get(&edge(parent, id)).copied()
        })
    }

    /// The latency estimate of run `run`, if it is priced (never of the
    /// empty run).
    fn cost(&self, run: u32) -> Option<f64> {
        let cost = *self.costs.get((run as usize).checked_sub(1)?)?;
        (!cost.is_nan()).then_some(cost)
    }

    fn cost_slot(&mut self, run: u32) -> &mut f64 {
        &mut self.costs[run as usize - 1]
    }
}

/// The trie key of the edge from run `parent` by region `id`.
fn edge(parent: u32, id: u32) -> u64 {
    u64::from(parent) << 32 | u64::from(id)
}

/// A multiply-mix hasher over 64-bit words, for the memo's integer keys:
/// a `u64` trie edge is one word, a region-id run its length and then
/// two ids per word. Each word is folded in with one 64×64→128-bit
/// multiply whose halves are xored, which spreads every input bit over
/// the whole hash (the map indexes buckets by the low bits and tags them
/// with the high ones). Not collision-resistant against chosen keys, and
/// need not be: the keys are dense ids the memo hands out itself, and an
/// input graph only chooses their order.
#[derive(Debug, Default, Clone, Copy)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let product = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl RegionMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        RegionMemo::default()
    }

    /// Interns every stage, returning one dense region id per stage; ids
    /// are assigned in stage order.
    #[must_use]
    pub fn intern_stages(&self, stages: &[Stage]) -> Vec<u32> {
        let mut ids = self.ids.borrow_mut();
        stages
            .iter()
            .map(|s| {
                let fp = region_fingerprint(s);
                let next = ids.len() as u32;
                *ids.entry(fp).or_insert(next)
            })
            .collect()
    }

    /// Cached DP latency estimate for the region run `key`, if any. Walks
    /// the trie without interning anything.
    #[must_use]
    pub fn cost(&self, key: &[u32]) -> Option<f64> {
        let runs = self.runs.borrow();
        runs.cost(runs.find(key)?)
    }

    /// Interns every prefix `window[..1]`, `window[..2]`, … of a DP row's
    /// window in one walk: the prefix of length `k + 1`
    /// gets run id `runs[k]` and its cached latency estimate, or NaN, in
    /// `costs[k]`.
    pub(crate) fn prefix_runs(&self, window: &[u32], runs: &mut Vec<u32>, costs: &mut Vec<f64>) {
        let mut table = self.runs.borrow_mut();
        runs.clear();
        costs.clear();
        let mut run = 0;
        for &id in window {
            run = table.child(run, id);
            runs.push(run);
            costs.push(*table.cost_slot(run));
        }
    }

    /// Stores the latency estimate `costs[k]` of every run `runs[k]`.
    pub(crate) fn store_run_costs(&self, runs: &[u32], costs: &[f64]) {
        let mut table = self.runs.borrow_mut();
        for (&run, &cost) in runs.iter().zip(costs) {
            *table.cost_slot(run) = cost;
        }
    }

    /// Cached DP row (candidate-segment latencies) for the budget window
    /// `key`, if any.
    #[must_use]
    pub fn row(&self, key: &[u32]) -> Option<Row> {
        self.rows.borrow().get(key).cloned()
    }

    /// Stores a DP row for the budget window `key`.
    pub fn store_row(&self, key: &[u32], row: Row) {
        self.rows.borrow_mut().insert(key.into(), row);
    }

    /// Cached `level` schedule of the region run `key`, with plan stage
    /// indices rebased onto `start` (the run's global first-stage index).
    /// Counts a hit or a miss, weighted by the run's length.
    #[must_use]
    pub(crate) fn segment(&self, level: Level, key: &[u32], start: usize) -> Option<Scheduled> {
        let found = self
            .segments
            .borrow()
            .get(key)
            .and_then(|slots| slots[level as usize].clone());
        self.count(found.is_some(), key.len());
        found.map(|(seg, spreads)| (rebase(seg, 0, start), spreads))
    }

    /// Stores the `level` schedule of the region run `key`, whose plans
    /// start at global stage `start`, position-independently.
    pub(crate) fn store_segment(&self, level: Level, key: &[u32], start: usize, value: &Scheduled) {
        let (seg, spreads) = value.clone();
        let mut segments = self.segments.borrow_mut();
        // A run stored at another level already has its key: box one only
        // for a new run.
        let slots = match segments.get_mut(key) {
            Some(slots) => slots,
            None => segments.entry(key.into()).or_default(),
        };
        slots[level as usize] = Some((rebase(seg, start, 0), spreads));
    }

    /// (hits, misses) across all segment-level lookups, weighted by the
    /// number of regions each segment covers.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    fn count(&self, hit: bool, regions: usize) {
        let n = regions as u64;
        if hit {
            self.hits.set(self.hits.get() + n);
            cim_obs::count("compile.regions.hits", n);
        } else {
            self.misses.set(self.misses.get() + n);
            cim_obs::count("compile.regions.misses", n);
        }
    }
}

/// Moves a segment whose plans start at stage `from` so they start at `to`:
/// segments are stored segment-relative (position-independent) and loaded
/// onto global stage indices.
fn rebase(mut seg: Segment, from: usize, to: usize) -> Segment {
    for plan in &mut seg.plans {
        plan.stage = plan.stage - from + to;
    }
    seg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::StagePlan;
    use crate::stage::extract_stages;
    use cim_arch::presets;
    use cim_graph::zoo;

    fn segment(stages: &[usize]) -> Segment {
        Segment {
            plans: stages
                .iter()
                .map(|&s| StagePlan {
                    stage: s,
                    duplication: 1,
                    cores: 1,
                    folds: 1,
                    latency: 10.0,
                })
                .collect(),
            latency: 10.0,
            active_crossbars: 4,
            streaming_bits_per_cycle: 1.0,
        }
    }

    #[test]
    fn interning_is_content_addressed() {
        let g = zoo::vit_base();
        let arch = presets::isaac_baseline();
        let stages = extract_stages(&g, &arch, 8);
        let memo = RegionMemo::new();
        let ids = memo.intern_stages(&stages);
        assert_eq!(ids.len(), stages.len());
        // Identical transformer layers produce identical region ids.
        let by_name = |n: &str| {
            stages
                .iter()
                .position(|s| s.name == n)
                .unwrap_or_else(|| panic!("no stage {n}"))
        };
        assert_eq!(ids[by_name("l0.q")], ids[by_name("l1.q")]);
        // Distinct content produces distinct ids.
        assert_ne!(ids[by_name("l0.q")], ids[by_name("patch_embed")]);
        // Re-interning the same stages yields the same ids.
        assert_eq!(memo.intern_stages(&stages), ids);
    }

    #[test]
    fn segments_round_trip_per_level_and_rebase_on_load() {
        let memo = RegionMemo::new();
        let key = [3u32, 3, 7];
        let table = [
            (Level::Cg, vec![]),
            (Level::Mvm, vec![1, 1, 1]),
            (Level::Vvm, vec![4, 1, 2]),
        ];
        for (n, (level, spreads)) in table.iter().enumerate() {
            // Nothing stored at this level yet, whatever the others hold.
            assert!(memo.segment(*level, &key, 0).is_none());
            // Stored from global stages 10..13 …
            let stored = (segment(&[10, 11, 12]), spreads.iter().copied().collect());
            memo.store_segment(*level, &key, 10, &stored);
            // … reusable at any other position with the same content run.
            let (seg, got) = memo.segment(*level, &key, 50).unwrap();
            let stages: Vec<usize> = seg.plans.iter().map(|p| p.stage).collect();
            assert_eq!(stages, vec![50, 51, 52]);
            assert_eq!(got.as_slice(), spreads.as_slice());
            assert!(memo.segment(*level, &[9u32], 0).is_none());
            // Lookups count the regions they cover: 3 per hit or miss on
            // `key`, 1 for the single-region miss.
            let n = n as u64 + 1;
            assert_eq!(memo.counters(), (3 * n, 4 * n));
        }
    }

    /// Stores `cost` for the run `key` as a DP row does: one walk that
    /// interns the run, then one store.
    fn store_cost(memo: &RegionMemo, key: &[u32], cost: f64) {
        let (mut runs, mut costs) = (Vec::new(), Vec::new());
        memo.prefix_runs(key, &mut runs, &mut costs);
        memo.store_run_costs(&runs[key.len() - 1..], &[cost]);
    }

    #[test]
    fn costs_do_not_touch_counters() {
        let memo = RegionMemo::new();
        assert_eq!(memo.cost(&[1, 2]), None);
        store_cost(&memo, &[1, 2], 42.0);
        assert_eq!(memo.cost(&[1, 2]), Some(42.0));
        assert_eq!(memo.counters(), (0, 0));
    }

    /// The run ids of the prefixes of `window`, interned by one DP-row walk.
    fn prefix_runs(memo: &RegionMemo, window: &[u32]) -> Vec<u32> {
        let (mut runs, mut costs) = (Vec::new(), Vec::new());
        memo.prefix_runs(window, &mut runs, &mut costs);
        assert_eq!(costs.len(), window.len());
        runs
    }

    #[test]
    fn equal_runs_share_a_run_id_wherever_they_start() {
        let memo = RegionMemo::new();
        // Rows starting at stages 0 and 3 of a list with period 3: the
        // runs `[4, 5]` and `[4, 5, 6]` recur at both positions.
        let first = prefix_runs(&memo, &[4, 5, 6, 4, 5]);
        let second = prefix_runs(&memo, &[4, 5, 6, 7]);
        assert_eq!(first[..3], second[..3]);
        // A run differs from each of its prefixes, and from a run of equal
        // length that differs in its last region.
        let distinct: std::collections::HashSet<u32> =
            first.iter().chain(&second).copied().collect();
        assert_eq!(distinct.len(), 6, "{first:?} {second:?}");
        // The lookup finds what the walk interned, and the walk reads what
        // was stored.
        store_cost(&memo, &[4, 5, 6, 4], 7.0);
        let (mut runs, mut costs) = (Vec::new(), Vec::new());
        memo.prefix_runs(&[4, 5, 6, 4], &mut runs, &mut costs);
        assert_eq!(runs, first[..4]);
        assert!(costs[..3].iter().all(|c| c.is_nan()));
        assert_eq!(costs[3], 7.0);
        memo.store_run_costs(&runs[..1], &[3.0]);
        assert_eq!(memo.cost(&[4]), Some(3.0));
    }

    #[test]
    fn a_cost_lookup_neither_interns_nor_misses_a_stored_run() {
        let memo = RegionMemo::new();
        let interned = |memo: &RegionMemo| memo.runs.borrow().costs.len();
        store_cost(&memo, &[1, 2, 3], 9.5);
        assert_eq!(interned(&memo), 3);
        // Unknown runs, an unpriced prefix and the empty run miss without
        // interning anything.
        for run in [&[1, 2, 4][..], &[2, 3], &[1, 2, 3, 1], &[1, 2], &[]] {
            assert_eq!(memo.cost(run), None, "{run:?}");
        }
        assert_eq!(interned(&memo), 3);
        assert_eq!(memo.cost(&[1, 2, 3]), Some(9.5));
    }
}
