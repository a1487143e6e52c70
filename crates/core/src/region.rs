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
//! # Counters
//!
//! [`RegionMemo::counters`] reports hits/misses at *segment lookup*
//! granularity, weighted by the number of stages (regions) the segment
//! covers, so the numbers read as "regions reused" vs "regions
//! rescheduled". The internal DP cost memo is not counted — it is a
//! latency-estimation shortcut, not a schedule reuse.

use crate::alloc::AllocItem;
use crate::cache::{region_fingerprint, Fingerprint};
use crate::cg::Segment;
use crate::level::{Level, Scheduled};
use crate::stage::Stage;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A memo key: the run of region ids a cached value covers.
type RegionKey = Box<[u32]>;

/// A memoized DP row: one latency per budget-feasible candidate segment.
type Row = Arc<[f64]>;

/// Per-session memo of region ids and region-keyed schedules.
///
/// Shared by the scheduler's worker threads (all maps are behind
/// mutexes; counters are atomic). Create one per [`Session`](crate::Session);
/// the schedulers reach it through [`SchedContext::memo`](crate::level::SchedContext::memo).
#[derive(Debug, Default)]
pub struct RegionMemo {
    /// Content-fingerprint → dense region id, in insertion order.
    /// Interning happens serially before any parallel fan-out, so ids are
    /// deterministic for a given stage list; their numeric values never
    /// influence schedules, only memo keys.
    ids: Mutex<HashMap<Fingerprint, u32>>,
    /// DP range-latency memo (CG segmentation cost estimates), keyed by
    /// the region-id run `[start..=end]`. Not counted in hit/miss.
    costs: Mutex<HashMap<RegionKey, f64>>,
    /// DP row memo: every budget-feasible candidate-segment latency for a
    /// row, keyed by the region-id run of the row's budget window. One
    /// lookup answers a whole row, so recompiles skip the per-candidate
    /// probes for every row outside the edit's window. Not counted in
    /// hit/miss (like `costs`, a latency-estimation shortcut).
    rows: Mutex<HashMap<RegionKey, Row>>,
    /// Per-region scheduling stats (core need, cycles per MVM, allocator
    /// item), indexed by region id — content-determined under the
    /// session's fixed (arch, act_bits), so a recompile recomputes them
    /// only for regions it has never seen. Not counted in hit/miss.
    stats: Mutex<Vec<Option<StageStats>>>,
    /// Segment schedules keyed by the region-id run they cover, one slot per
    /// scheduling [`Level`] (with the VVM level's per-plan spread factors),
    /// plans rebased to segment-relative stage indices.
    segments: Mutex<HashMap<RegionKey, [Option<Scheduled>; 3]>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RegionMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        RegionMemo::default()
    }

    /// Interns every stage, returning one dense region id per stage.
    ///
    /// Called serially (before any parallel fan-out) so id assignment is
    /// deterministic in stage order.
    #[must_use]
    pub fn intern_stages(&self, stages: &[Stage]) -> Vec<u32> {
        let mut ids = self.ids.lock().unwrap();
        stages
            .iter()
            .map(|s| {
                let fp = region_fingerprint(s);
                let next = ids.len() as u32;
                *ids.entry(fp).or_insert(next)
            })
            .collect()
    }

    /// Cached DP latency estimate for the region run `key`, if any.
    #[must_use]
    pub fn cost(&self, key: &[u32]) -> Option<f64> {
        self.costs.lock().unwrap().get(key).copied()
    }

    /// Stores a DP latency estimate.
    pub fn store_cost(&self, key: &[u32], cost: f64) {
        self.costs.lock().unwrap().insert(key.into(), cost);
    }

    /// Per-region stats for region `id`, computing and caching them on
    /// first sight. `compute` must be a pure function of the region's
    /// content (plus the session-fixed arch/options), like every other
    /// entry in the memo.
    pub fn stage_stats(&self, id: u32, compute: impl FnOnce() -> StageStats) -> StageStats {
        let mut stats = self.stats.lock().unwrap();
        let slot = id as usize;
        if slot >= stats.len() {
            stats.resize(slot + 1, None);
        }
        *stats[slot].get_or_insert_with(|| {
            let mut span = cim_obs::span("region", "stage_stats");
            span.set(cim_obs::keys::INDEX, u64::from(id));
            compute()
        })
    }

    /// Cached DP row (candidate-segment latencies) for the budget window
    /// `key`, if any.
    #[must_use]
    pub fn row(&self, key: &[u32]) -> Option<Row> {
        self.rows.lock().unwrap().get(key).cloned()
    }

    /// Stores a DP row for the budget window `key`.
    pub fn store_row(&self, key: &[u32], row: Row) {
        self.rows.lock().unwrap().insert(key.into(), row);
    }

    /// Cached `level` schedule of the region run `key`, with plan stage
    /// indices rebased onto `start` (the run's global first-stage index).
    /// Counts a hit or a miss, weighted by the run's length.
    #[must_use]
    pub(crate) fn segment(&self, level: Level, key: &[u32], start: usize) -> Option<Scheduled> {
        let found = self
            .segments
            .lock()
            .expect("region memo poisoned")
            .get(key)
            .and_then(|slots| slots[level as usize].clone());
        self.count(found.is_some(), key.len());
        found.map(|(seg, spreads)| (rebase(seg, 0, start), spreads))
    }

    /// Stores the `level` schedule of the region run `key`, whose plans
    /// start at global stage `start`, position-independently.
    pub(crate) fn store_segment(&self, level: Level, key: &[u32], start: usize, value: &Scheduled) {
        let (seg, spreads) = value.clone();
        let mut segments = self.segments.lock().expect("region memo poisoned");
        segments.entry(key.into()).or_default()[level as usize] =
            Some((rebase(seg, start, 0), spreads));
    }

    /// (hits, misses) across all segment-level lookups, weighted by the
    /// number of regions each segment covers.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    fn count(&self, hit: bool, regions: usize) {
        let n = regions as u64;
        if hit {
            self.hits.fetch_add(n, Ordering::Relaxed);
            cim_obs::count("compile.regions.hits", n);
        } else {
            self.misses.fetch_add(n, Ordering::Relaxed);
            cim_obs::count("compile.regions.misses", n);
        }
    }
}

/// Per-region scheduling stats the CG DP reads for every stage.
///
/// Cached by [`RegionMemo::stage_stats`] so the per-stage prep scan costs
/// one vector index per stage instead of re-deriving the crossbar math.
#[derive(Debug, Clone, Copy)]
pub struct StageStats {
    /// Cores one replica occupies.
    pub need: u64,
    /// Cycles per MVM.
    pub cpm: u64,
    /// Movement cycles of the stage's traffic, which duplication does not
    /// change.
    pub mov: f64,
    /// The allocator's view of the stage (cost, latency, duplication cap).
    pub item: AllocItem,
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
            let stored = (segment(&[10, 11, 12]), spreads.clone());
            memo.store_segment(*level, &key, 10, &stored);
            // … reusable at any other position with the same content run.
            let (seg, got) = memo.segment(*level, &key, 50).unwrap();
            let stages: Vec<usize> = seg.plans.iter().map(|p| p.stage).collect();
            assert_eq!(stages, vec![50, 51, 52]);
            assert_eq!(&got, spreads);
            assert!(memo.segment(*level, &[9u32], 0).is_none());
            // Lookups count the regions they cover: 3 per hit or miss on
            // `key`, 1 for the single-region miss.
            let n = n as u64 + 1;
            assert_eq!(memo.counters(), (3 * n, 4 * n));
        }
    }

    #[test]
    fn costs_do_not_touch_counters() {
        let memo = RegionMemo::new();
        assert_eq!(memo.cost(&[1, 2]), None);
        memo.store_cost(&[1, 2], 42.0);
        assert_eq!(memo.cost(&[1, 2]), Some(42.0));
        assert_eq!(memo.counters(), (0, 0));
    }
}
