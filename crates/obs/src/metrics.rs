//! Counters, gauges, and log-linear histograms.
//!
//! The [`MetricsRegistry`] is a named family of cheap atomic
//! instruments. Recording through the gated convenience methods
//! ([`MetricsRegistry::count`], [`MetricsRegistry::gauge_set`],
//! [`MetricsRegistry::observe_us`]) costs one relaxed atomic load when
//! metrics are disabled — the same contract as spans. Hot paths that
//! record unconditionally can hold a [`Counter`]/[`Gauge`]/[`Histogram`]
//! handle instead and skip the name lookup.
//!
//! [`MetricsRegistry::snapshot`] produces a schema-versioned, serde
//! [`MetricsSnapshot`] sorted by instrument name — the wire payload of
//! `Request::Metrics`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Version stamped on every [`MetricsSnapshot`]. Bump on any
/// field/semantic change.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Sub-buckets per power of two in a [`Histogram`] (log-linear layout).
const GRANULARITY_BITS: u32 = 3;
const SUB_BUCKETS: usize = 1 << GRANULARITY_BITS;
/// Octaves above the linear range needed to cover all of `u64`.
const OCTAVES: usize = 64 - GRANULARITY_BITS as usize;
const BUCKETS: usize = SUB_BUCKETS * (OCTAVES + 1);

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value handle.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log-linear histogram of `u64` samples (e.g.
/// microseconds): exact below 8, then 8 linear
/// sub-buckets per power of two — ≤ 12.5% relative bucket width at any
/// magnitude, 496 buckets covering all of `u64`.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate quantile (`0.0..=1.0`): the floor of the bucket
    /// containing the [`nearest_rank`](crate::stats::nearest_rank)-th
    /// sample. Zero when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = crate::stats::nearest_rank(q, count as usize) as u64;
        let mut seen = 0;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            name: name.to_owned(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let count = b.load(Ordering::Relaxed);
                    (count > 0).then_some(BucketSnapshot {
                        floor: bucket_floor(i),
                        count,
                    })
                })
                .collect(),
        }
    }
}

/// The log-linear bucket index for `v`: monotone in `v`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - GRANULARITY_BITS + 1) as usize;
    let minor = ((v >> (msb - GRANULARITY_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    octave * SUB_BUCKETS + minor
}

/// The smallest value that lands in bucket `index` (inverse of
/// [`bucket_index`] on bucket boundaries).
#[must_use]
pub fn bucket_floor(index: usize) -> u64 {
    let octave = index / SUB_BUCKETS;
    let minor = (index % SUB_BUCKETS) as u64;
    if octave == 0 {
        minor
    } else {
        let msb = GRANULARITY_BITS + octave as u32 - 1;
        (1u64 << msb) | (minor << (msb - GRANULARITY_BITS))
    }
}

/// A named family of counters, gauges, and histograms.
///
/// Obtain the process-wide registry via [`metrics`]. Instruments are
/// created on first use and live for the registry's lifetime;
/// [`MetricsRegistry::reset`] zeroes them all (a serving process does
/// this when `--metrics` starts a fresh scrape window). A thread that
/// panics while holding one of its locks does not stop the others from
/// recording.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<&'static str, Counter>>,
    gauges: Mutex<BTreeMap<&'static str, Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

/// The process-wide [`MetricsRegistry`].
#[must_use]
pub fn metrics() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

impl MetricsRegistry {
    /// A fresh, disabled registry. Prefer [`metrics`] outside tests.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: AtomicBool::new(false),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Starts recording through the gated convenience methods.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording through the gated convenience methods.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether the gated convenience methods record.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The counter named `name`, created at zero on first use.
    #[must_use]
    pub fn counter(&self, name: &'static str) -> Counter {
        locked(&self.counters)
            .entry(name)
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The gauge named `name`, created at zero on first use.
    #[must_use]
    pub fn gauge(&self, name: &'static str) -> Gauge {
        locked(&self.gauges)
            .entry(name)
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// The histogram named `name`, created empty on first use.
    #[must_use]
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(
            locked(&self.histograms)
                .entry(name)
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Adds `n` to counter `name` — after one relaxed atomic load; a
    /// no-op when disabled.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.is_enabled() {
            self.counter(name).add(n);
        }
    }

    /// Sets gauge `name` to `v`; a no-op when disabled.
    pub fn gauge_set(&self, name: &'static str, v: i64) {
        if self.is_enabled() {
            self.gauge(name).set(v);
        }
    }

    /// Records `us` into histogram `name`; a no-op when disabled.
    pub fn observe_us(&self, name: &'static str, us: u64) {
        if self.is_enabled() {
            self.histogram(name).record(us);
        }
    }

    /// Zeroes every counter and gauge and empties every histogram
    /// (instrument names persist).
    pub fn reset(&self) {
        for counter in locked(&self.counters).values() {
            counter.0.store(0, Ordering::Relaxed);
        }
        for gauge in locked(&self.gauges).values() {
            gauge.0.store(0, Ordering::Relaxed);
        }
        let mut histograms = locked(&self.histograms);
        for slot in histograms.values_mut() {
            *slot = Arc::new(Histogram::new());
        }
    }

    /// A schema-versioned snapshot of every instrument, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            schema_version: METRICS_SCHEMA_VERSION,
            enabled: self.is_enabled(),
            counters: locked(&self.counters)
                .iter()
                .map(|(name, c)| CounterSnapshot {
                    name: (*name).to_owned(),
                    value: c.get(),
                })
                .collect(),
            gauges: locked(&self.gauges)
                .iter()
                .map(|(name, g)| GaugeSnapshot {
                    name: (*name).to_owned(),
                    value: g.get(),
                })
                .collect(),
            histograms: locked(&self.histograms)
                .iter()
                .map(|(name, h)| h.snapshot(name))
                .collect(),
        }
    }
}

/// The map behind `lock`, even if a thread panicked while holding it: the
/// registry's maps only ever gain fully built instruments, and a reset
/// stores into them or swaps in whole histograms, so a poisoned map is
/// still a consistent one. The collector's registry and thread buffers
/// lean on the same argument.
pub(crate) fn locked<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Instrument name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Instrument name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// One non-empty histogram bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSnapshot {
    /// Smallest sample value that lands in this bucket.
    pub floor: u64,
    /// Samples in the bucket.
    pub count: u64,
}

/// One histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by floor.
    pub buckets: Vec<BucketSnapshot>,
}

/// A point-in-time, schema-versioned view of a [`MetricsRegistry`] —
/// what `Request::Metrics` returns over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// [`METRICS_SCHEMA_VERSION`] at serialization time.
    pub schema_version: u32,
    /// Whether the registry's gated recording was on.
    pub enabled: bool,
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_floor_is_consistent() {
        for v in (1..4096u64).chain((3..63).map(|i| (1u64 << i) + i)) {
            assert!(bucket_index(v) >= bucket_index(v - 1), "v={v}");
            assert!(bucket_floor(bucket_index(v)) <= v, "v={v}");
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
        assert_eq!(bucket_floor(bucket_index(8)), 8);
        assert_eq!(bucket_floor(bucket_index(0)), 0);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        assert!((400..=600).contains(&p50), "p50={p50}");
        assert!(h.quantile(1.0) >= 900);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histogram_quantile_is_the_nearest_rank_percentile_on_exact_buckets() {
        // Values below 8 have a bucket each, so the histogram is exact.
        let h = Histogram::new();
        [3, 0, 7, 1, 1, 5, 2].into_iter().for_each(|v| h.record(v));
        let sorted = [0.0, 1.0, 1.0, 2.0, 3.0, 5.0, 7.0];
        for q in [-1.0, 0.0, 0.1, 0.5, 0.75, 0.99, 1.0, 2.0] {
            let expected = crate::stats::percentile(&sorted, q);
            assert_eq!(h.quantile(q) as f64, expected, "q={q}");
        }
    }

    #[test]
    fn registry_gates_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.count("requests_total", 5); // gated off: dropped
        assert!(reg.snapshot().counters.is_empty());
        reg.enable();
        reg.count("requests_total", 2);
        reg.count("requests_total", 3);
        reg.gauge_set("queue_depth", 7);
        reg.observe_us("wait_us", 1500);
        let snap = reg.snapshot();
        assert_eq!(snap.schema_version, METRICS_SCHEMA_VERSION);
        assert_eq!(snap.counters[0].name, "requests_total");
        assert_eq!(snap.counters[0].value, 5);
        assert_eq!(snap.gauges[0].value, 7);
        assert_eq!(snap.histograms[0].count, 1);
        assert_eq!(snap.histograms[0].min, 1500);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].value, 0);
        assert_eq!(snap.histograms[0].count, 0);
        assert_eq!(snap.histograms[0].min, 0);
    }

    #[test]
    fn a_poisoned_registry_still_counts_sets_observes_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.enable();
        reg.count("a", 1);
        reg.gauge_set("g", 2);
        reg.observe_us("h", 3);
        fn poison<T>(lock: &Mutex<T>) {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _held = lock.lock();
                panic!("a recorder panicked holding the lock");
            }));
            assert!(panicked.is_err() && lock.is_poisoned());
        }
        poison(&reg.counters);
        poison(&reg.gauges);
        poison(&reg.histograms);
        reg.count("a", 4);
        reg.count("b", 5);
        reg.gauge_set("g", 6);
        reg.observe_us("h", 7);
        let snap = reg.snapshot();
        let counters: Vec<_> = snap.counters.iter().map(|c| (&*c.name, c.value)).collect();
        assert_eq!(counters, [("a", 5), ("b", 5)]);
        assert_eq!((snap.gauges.len(), snap.gauges[0].value), (1, 6));
        assert_eq!((snap.histograms.len(), snap.histograms[0].count), (1, 2));
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.iter().all(|c| c.value == 0));
        assert_eq!(snap.histograms[0].count, 0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::new();
        reg.enable();
        reg.count("a", 1);
        reg.observe_us("h", 42);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
    }
}
