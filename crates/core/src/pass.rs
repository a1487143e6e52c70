//! The pass abstraction of the staged compilation pipeline.
//!
//! A [`Pass`] consumes one [`Artifact`] and produces the
//! next; the [`Pipeline`](crate::Pipeline) assembles passes and a
//! [`Session`](crate::Session) runs them one at a time, recording a
//! [`PassRecord`] per pass into a [`PassTimeline`].
//!
//! A session runs every pass on the calling thread. Parallelism lives one
//! layer up: [`compile_batch`](crate::compile_batch) and the serve pool
//! run many sessions at once, each on one thread.
//!
//! # The `Pass` contract
//!
//! Implementations must uphold three invariants the pipeline relies on:
//!
//! 1. **Purity** — `run` is a pure function of the input artifact and the
//!    [`PassContext`] (graph, architecture, options). Two runs with equal
//!    inputs must produce equal artifacts, so sessions stay deterministic
//!    across hosts and worker threads. Wall-clock and diagnostics are the
//!    only side channels, and both live in the timeline, never in the
//!    artifact.
//! 2. **Stage typing** — a pass declares the artifact stage it consumes by
//!    rejecting others with [`CompileError::Internal`](crate::CompileError::Internal); it must not
//!    silently pass through an unexpected stage. A pass that *upholds* its
//!    input stage (returns the same [`StageKind`]) is a
//!    rewrite pass; one that advances the stage is a lowering pass.
//! 3. **No hidden state** — passes are `Send + Sync` and may be shared
//!    across threads; configuration belongs in the pass value itself (set
//!    at construction), not in globals.
//!
//! ```
//! use cim_compiler::{Artifact, CompileOptions, Diagnostics, Pass, PassContext};
//!
//! /// A rewrite pass: keeps only the first `n` stages.
//! struct TruncateStages(usize);
//!
//! impl Pass for TruncateStages {
//!     fn name(&self) -> &'static str {
//!         "truncate-stages"
//!     }
//!     fn run(
//!         &self,
//!         _cx: &PassContext<'_>,
//!         diag: &mut Diagnostics,
//!         input: Artifact,
//!     ) -> cim_compiler::Result<Artifact> {
//!         let Artifact::Staged(mut staged) = input else {
//!             return Err(cim_compiler::CompileError::Internal {
//!                 message: "truncate-stages needs a staged artifact".into(),
//!             });
//!         };
//!         staged.stages.truncate(self.0);
//!         diag.note(format!("kept {} stage(s)", staged.stages.len()));
//!         Ok(Artifact::Staged(staged))
//!     }
//! }
//! ```

use crate::cache::Fingerprint;
use crate::compile::CompileOptions;
use crate::level::SchedContext;
use crate::pipeline::{Artifact, StageKind};
use crate::region::RegionMemo;
use crate::scratch::ScratchArena;
use crate::Result;
use cim_arch::CimArchitecture;
use cim_graph::Graph;
use serde::{Deserialize, Serialize};

/// Everything a pass may read besides its input artifact: the model, the
/// target, the compile options and the session's scratch arena. Passes
/// must treat graph/arch/options as immutable inputs (see the module docs
/// for the full contract); the scratch arena is for short-lived buffers
/// only and must never leak state into the produced artifact.
#[derive(Debug, Clone, Copy)]
pub struct PassContext<'a> {
    /// The model being compiled.
    pub graph: &'a Graph,
    /// The target architecture.
    pub arch: &'a CimArchitecture,
    /// The compile options in force.
    pub options: &'a CompileOptions,
    /// The session's pooled scratch buffers (see [`crate::scratch`]).
    /// The longest lease of each kind per pass lands in
    /// [`PassRecord::scratch_peak_bytes`].
    pub scratch: &'a ScratchArena,
    /// The session's per-region schedule memo (see [`crate::region`]).
    /// Scheduling passes hand it to the schedulers through
    /// [`PassContext::sched`] so
    /// [`Session::recompile`](crate::Session::recompile) can reuse
    /// schedules for unedited regions; per-pass hit/miss deltas land in
    /// [`PassRecord::region_hits`] / [`PassRecord::region_misses`].
    pub memo: &'a RegionMemo,
}

impl<'a> PassContext<'a> {
    /// The context the `schedule_*_in` entry points take.
    #[must_use]
    pub fn sched(&self) -> SchedContext<'a> {
        SchedContext {
            arch: self.arch,
            act_bits: self.options.act_bits,
            scratch: self.scratch,
            memo: self.memo,
        }
    }
}

/// Per-pass diagnostics sink: free-form notes a pass wants surfaced in
/// the timeline (`cimc compile --timings`) without polluting artifacts.
#[derive(Debug, Default)]
pub struct Diagnostics {
    notes: Vec<String>,
}

impl Diagnostics {
    /// Records one diagnostic note.
    pub fn note(&mut self, message: impl Into<String>) {
        self.notes.push(message.into());
    }

    /// The notes recorded so far.
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    fn into_notes(self) -> Vec<String> {
        self.notes
    }
}

/// One stage of the compilation pipeline.
///
/// See the [module docs](self) for the implementation contract (purity,
/// stage typing, no hidden state). Built-in passes live in
/// [`crate::pipeline`]; custom passes plug in via
/// [`Pipeline::push`](crate::Pipeline::push) /
/// [`Pipeline::replace`](crate::Pipeline::replace).
pub trait Pass: Send + Sync {
    /// Stable pass name, used by [`Pipeline::replace`](crate::Pipeline::replace),
    /// [`Pipeline::remove`](crate::Pipeline::remove) and the timeline.
    fn name(&self) -> &'static str;

    /// Consumes `input` and produces the next artifact.
    ///
    /// # Errors
    /// Returns a [`crate::CompileError`] on scheduling failures, or
    /// [`crate::CompileError::Internal`] when `input` is not a stage this
    /// pass consumes.
    fn run(
        &self,
        cx: &PassContext<'_>,
        diag: &mut Diagnostics,
        input: Artifact,
    ) -> Result<Artifact>;

    /// A stable [`Fingerprint`] of this pass's behaviour — its identity
    /// plus the subset of `cx` it actually consumes — used by a cached
    /// [`Session`](crate::Session) as one link of the
    /// [content-addressed cache key chain](crate::cache).
    ///
    /// The default is `None`: the pass is not cacheable, and (because an
    /// unknown pass may produce anything) neither is any pass after it
    /// in the session. Override it only when `run` upholds the purity
    /// contract above *and* the returned fingerprint covers every input
    /// that can change the output; hash only consumed
    /// [`CompileOptions`] fields, so pipelines differing in unconsumed
    /// options still share entries.
    fn fingerprint(&self, cx: &PassContext<'_>) -> Option<Fingerprint> {
        let _ = cx;
        None
    }

    /// The stage of the artifact `run` produces, when it is fixed before
    /// the pass runs, and the pass carries every earlier level of its
    /// input forward unchanged, as the built-in passes do.
    ///
    /// A warm [`Session::run`](crate::Session::run) asks the cache once
    /// for the deepest artifact of a run of passes that declare their
    /// stage, and shows each pass it served through that artifact's
    /// cumulative view at the declared stage. A stage the artifacts of
    /// later passes carry no view of breaks that promise: a debug build
    /// panics when it serves such a pass. The default is `None`: the
    /// pass ends such a run and is looked up on its own, which is always
    /// correct.
    fn output_stage(&self) -> Option<StageKind> {
        None
    }
}

/// Instrumentation record of one executed (or skipped) pass.
///
/// Serializes both ways: the `cimc serve` wire protocol ships timelines
/// inside compile responses, so clients must be able to parse them back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassRecord {
    /// The pass's [`Pass::name`].
    pub pass: String,
    /// Stage name of the artifact the pass produced
    /// ([`StageKind::name`](crate::StageKind::name)), or `"skipped"`.
    pub stage: String,
    /// Wall-clock time the pass took, in milliseconds (0 when skipped).
    /// One cache lookup can serve several passes: the deepest pass it
    /// served carries the lookup's time, and the passes before it 0.
    /// When the lookup serves nothing, the first pass that runs carries
    /// it, as a stepped pass that misses carries its own one-key lookup;
    /// with a look-ahead that lookup tries the keys of the later passes
    /// too (on a [`DiskCache`](crate::DiskCache), one failed read each).
    pub wall_ms: f64,
    /// Compile-cache outcome for this pass: `"hit"` (artifact served
    /// from the cache), `"miss"` (looked up, recomputed, not banked),
    /// `"miss+store"` (recomputed and banked), or `""` when the session
    /// has no cache or the pass is uncacheable.
    pub cache: String,
    /// One-line summary of the produced artifact.
    pub summary: String,
    /// Scratch the pass needed from the session's [`ScratchArena`]: per
    /// element kind, the bytes of the longest buffer any one lease
    /// returned, summed over kinds (0 when skipped, served from cache, or
    /// scratch-free). A pure function of the pass's work; see
    /// [`crate::scratch`].
    pub scratch_peak_bytes: u64,
    /// Diagnostics the pass emitted.
    pub diagnostics: Vec<String>,
    /// Regions the pass's schedulers answered from the session's
    /// [`RegionMemo`]. Recorded only during
    /// [`Session::recompile`](crate::Session::recompile) (0 on cold
    /// compiles, and for passes that do not consult the memo). Absent
    /// fields deserialize as 0, so pre-existing serialized timelines
    /// still parse.
    #[serde(default)]
    pub region_hits: u64,
    /// Regions the pass's schedulers had to reschedule. Same recording
    /// rules as [`PassRecord::region_hits`].
    #[serde(default)]
    pub region_misses: u64,
}

/// The per-pass instrumentation of one pipeline session: what ran, in
/// which order, how long each pass took and what it produced.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PassTimeline {
    /// Records in execution order.
    pub records: Vec<PassRecord>,
}

impl PassTimeline {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        pass: &str,
        artifact: &Artifact,
        wall_ms: f64,
        cache: &str,
        scratch_peak_bytes: u64,
        diag: Diagnostics,
        region_hits: u64,
        region_misses: u64,
    ) {
        self.records.push(PassRecord {
            pass: pass.to_owned(),
            stage: artifact.kind().name().to_owned(),
            wall_ms,
            cache: cache.to_owned(),
            summary: artifact.summary(),
            scratch_peak_bytes,
            diagnostics: diag.into_notes(),
            region_hits,
            region_misses,
        });
    }

    /// Records a pass the cache served, with the stage and summary of
    /// the artifact it produced.
    pub(crate) fn record_hit(
        &mut self,
        pass: &str,
        stage: StageKind,
        summary: String,
        wall_ms: f64,
        key: Fingerprint,
    ) {
        self.records.push(PassRecord {
            pass: pass.to_owned(),
            stage: stage.name().to_owned(),
            wall_ms,
            cache: "hit".to_owned(),
            summary,
            scratch_peak_bytes: 0,
            diagnostics: vec![format!("served from cache ({key})")],
            region_hits: 0,
            region_misses: 0,
        });
    }

    pub(crate) fn record_skip(&mut self, pass: &str) {
        self.records.push(PassRecord {
            pass: pass.to_owned(),
            stage: "skipped".to_owned(),
            wall_ms: 0.0,
            cache: String::new(),
            summary: String::new(),
            scratch_peak_bytes: 0,
            diagnostics: Vec::new(),
            region_hits: 0,
            region_misses: 0,
        });
    }

    /// Totals the cache outcomes recorded across this timeline's passes
    /// (`hit` / `miss` / `miss+store` entries; empty outcomes count as
    /// nothing).
    #[must_use]
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        let mut stats = crate::cache::CacheStats::default();
        for r in &self.records {
            match r.cache.as_str() {
                "hit" => stats.hits += 1,
                "miss" => stats.misses += 1,
                "miss+store" => {
                    stats.misses += 1;
                    stats.stores += 1;
                }
                _ => {}
            }
        }
        stats
    }

    /// Total wall-clock time across all recorded passes, in milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.records.iter().map(|r| r.wall_ms).sum()
    }

    /// Totals the per-region memo outcomes recorded across this
    /// timeline's passes as `(hits, misses)`. Non-zero only for
    /// timelines produced by
    /// [`Session::recompile`](crate::Session::recompile).
    #[must_use]
    pub fn region_stats(&self) -> (u64, u64) {
        self.records
            .iter()
            .fold((0, 0), |(h, m), r| (h + r.region_hits, m + r.region_misses))
    }

    /// Renders the timeline as a text table, one row per pass, with
    /// diagnostics indented under their pass.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<16} {:<8} {:>10} {:>12} {:<10}  {}\n",
            "pass", "stage", "wall(ms)", "scratch(B)", "cache", "summary"
        );
        for r in &self.records {
            out.push_str(&format!(
                "{:<16} {:<8} {:>10.3} {:>12} {:<10}  {}\n",
                r.pass, r.stage, r.wall_ms, r.scratch_peak_bytes, r.cache, r.summary
            ));
            for note in &r.diagnostics {
                out.push_str(&format!("{:<16} - {note}\n", ""));
            }
        }
        out.push_str(&format!(
            "total: {} pass(es) in {:.3} ms\n",
            self.records.len(),
            self.total_ms()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_renders_records_and_totals() {
        let mut t = PassTimeline::default();
        t.records.push(PassRecord {
            pass: "cg".into(),
            stage: "cg".into(),
            wall_ms: 1.5,
            cache: "hit".into(),
            summary: "1 segment(s)".into(),
            scratch_peak_bytes: 4096,
            diagnostics: vec!["note one".into()],
            region_hits: 3,
            region_misses: 1,
        });
        t.record_skip("mvm");
        let text = t.render();
        assert!(text.contains("cg"), "{text}");
        assert!(text.contains("note one"), "{text}");
        assert!(text.contains("skipped"), "{text}");
        assert!(text.contains("hit"), "{text}");
        assert!(text.contains("2 pass(es)"), "{text}");
        assert!((t.total_ms() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn timeline_cache_stats_totals_outcomes() {
        let mut t = PassTimeline::default();
        for cache in ["hit", "miss+store", "miss", ""] {
            t.records.push(PassRecord {
                pass: "p".into(),
                stage: "cg".into(),
                wall_ms: 0.0,
                cache: cache.into(),
                summary: String::new(),
                scratch_peak_bytes: 0,
                diagnostics: Vec::new(),
                region_hits: 2,
                region_misses: 1,
            });
        }
        let stats = t.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.stores, 1);
        assert_eq!(t.region_stats(), (8, 4));
    }

    #[test]
    fn diagnostics_accumulate_in_order() {
        let mut d = Diagnostics::default();
        d.note("first");
        d.note(String::from("second"));
        assert_eq!(d.notes(), ["first", "second"]);
    }
}
