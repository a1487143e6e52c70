//! Integration tests of sweep-level caching: determinism (memoized,
//! disk-cached, and uncached sweeps all emit byte-identical comparison
//! sections) and the headline speedup — a warm full-matrix sweep over a
//! shared disk cache must run at least 1.5x faster than the cold run
//! that populated it, with a byte-identical `comparable()` report. The
//! CI `cache-consistency` job asserts the same two properties end-to-end
//! through the `cimc` binary.

use cim_bench::{run_sweep, run_sweep_cached, Document, SweepSpec};
use cim_compiler::{CompileCache, DiskCache};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cim_bench_cache_{tag}_{}", std::process::id()))
}

#[test]
fn disk_cached_memoized_and_uncached_sweeps_agree() {
    let dir = tmp_dir("share");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::quick();
    let cold_cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
    let cold = run_sweep_cached(&spec, 2, Some(cold_cache)).unwrap();
    let warm_cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
    let warm = run_sweep_cached(&spec, 2, Some(warm_cache)).unwrap();
    let warm_stats = warm.cache_stats.expect("cache attached");
    assert_eq!(warm_stats.misses, 0, "warm run must be all hits");
    assert!(warm_stats.hits > 0);
    assert_eq!(cold.comparable().to_json(), warm.comparable().to_json());
    std::fs::remove_dir_all(&dir).unwrap();
    // Memoized (the default) and uncached sweeps agree with both.
    let memoized = run_sweep(&spec, 2).unwrap();
    assert!(memoized.cache_stats.expect("default sweep memoizes").hits > 0);
    let uncached = run_sweep_cached(&spec, 2, None).unwrap();
    assert!(uncached.cache_stats.is_none());
    for other in [memoized, uncached] {
        assert_eq!(cold.comparable().to_json(), other.comparable().to_json());
    }
}

/// The acceptance bar of the cache subsystem: on the committed 100-job
/// full matrix, a warm sweep over the disk cache a cold sweep populated
/// is ≥ 1.5x faster and emits a byte-identical comparison section.
///
/// The bar was 3x when a cold compile cost tens of milliseconds; the
/// memoized segmentation DP and allocator early-exit cut cold compiles
/// by ~3-6x, so the cache's relative advantage shrank (its absolute
/// lookup cost is unchanged). 1.5x still proves warm runs skip the
/// compile work without over-fitting to the current compile speed.
///
/// Wall-clock assertions are noise-prone on loaded CI machines, so the
/// cold/warm pair is re-measured (up to 3 attempts) and only the
/// speedup — not absolute times — is asserted. Byte-identity must hold
/// on every attempt.
#[test]
fn warm_full_sweep_is_faster_and_byte_identical() {
    let spec = SweepSpec::full();
    let jobs = spec.models.len() * spec.archs.len() * spec.modes.len();
    assert_eq!(jobs, 100, "the committed 100-job matrix");
    let mut best = 0.0f64;
    for attempt in 0..3 {
        let dir = tmp_dir(&format!("speed{attempt}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cold_cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
        let cold = run_sweep_cached(&spec, 4, Some(cold_cache)).unwrap();
        let warm_cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
        let warm = run_sweep_cached(&spec, 4, Some(warm_cache)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        assert!(cold.failures.is_empty() && warm.failures.is_empty());
        assert_eq!(
            cold.comparable().to_json(),
            warm.comparable().to_json(),
            "cold and warm comparison sections must be byte-identical"
        );
        let warm_stats = warm.cache_stats.expect("cache attached");
        assert_eq!(warm_stats.misses, 0, "warm full sweep must be all hits");

        let speedup = cold.timing.total_ms / warm.timing.total_ms.max(1e-9);
        best = best.max(speedup);
        if best >= 1.5 {
            return;
        }
    }
    panic!("warm sweep speedup {best:.2}x < 1.5x over three attempts");
}
