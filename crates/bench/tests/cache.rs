//! Integration tests of sweep-level caching: determinism (memoized,
//! disk-cached, and uncached sweeps all emit byte-identical comparison
//! sections), and a warm full-matrix sweep over a shared disk cache that
//! is all hits with a byte-identical `comparable()` report. The CI
//! `cache-consistency` job asserts the same two properties end-to-end
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

/// On the committed 100-job full matrix, a warm sweep over the disk
/// cache a cold sweep populated is all hits and emits a byte-identical
/// comparison section. How much a warm compile loads is gated by count
/// in `crates/core/tests/alloc_budget.rs`, not by a wall-clock speed-up.
#[test]
fn warm_full_sweep_is_all_hits_and_byte_identical() {
    let spec = SweepSpec::full();
    let jobs = spec.models.len() * spec.archs.len() * spec.modes.len();
    assert_eq!(jobs, 100, "the committed 100-job matrix");
    let dir = tmp_dir("full");
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
    assert_eq!(
        warm_stats.hits,
        cold.cache_stats.expect("cache attached").lookups(),
        "a warm pass is served for every pass the cold sweep looked up"
    );
}
