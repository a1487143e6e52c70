//! A deterministic work-queue thread pool for batch evaluation.
//!
//! [`run_ordered`] spreads a batch of independent items — the compiles of
//! [`crate::compile_batch`] (sweeps, exploration, traffic pricing), the
//! explorer's candidate replays, the traffic engine's partitions — over
//! worker threads. One compile never fans out itself; the batch is the
//! one layer of parallelism. Workers pull item indices off a
//! shared atomic counter — so a slow item never blocks the rest of the
//! batch behind a static partition — and write results back *by index*,
//! so the output order equals the input order regardless of worker count
//! or interleaving. Anything built on top of it therefore produces
//! thread-count-invariant results as long as the per-item function is
//! pure.
//!
//! One worker is the calling thread; more are spawned threads named
//! `cim-pool-{i}`, so they are identifiable in debuggers, profilers and
//! panic backtraces. Either way a panic inside `f` is re-raised on the
//! caller with the index of the job that panicked.
//!
//! # Observability
//!
//! Both schedulers are instrumented through [`cim_obs`] (free when the
//! collector is disabled): [`run_ordered`] wraps each item in a
//! `pool:job` span, and [`Pool`] records per-job queue wait
//! (`pool.queue_wait_us` histogram plus a `pool:queue_wait` trace
//! span), live queue depth (`pool.queue_depth` gauge), job and busy
//! counters (`pool.jobs`, `pool.busy_us`) for worker-utilization math
//! (`busy_us / (workers × wall time)`).

use cim_obs::{keys, TraceClock};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Workers [`Pool::new`] spawns for `requested`: clamped to the machine's
/// available parallelism, so a serve pool never oversubscribes the CPUs
/// it can see.
fn effective_threads(requested: usize) -> usize {
    if requested <= 1 {
        // One worker needs no answer from the OS: `available_parallelism`
        // reads the affinity mask and cgroup files.
        return 1;
    }
    requested.min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The text of a caught panic's payload: its message when it is a string,
/// as `panic!` makes it.
#[must_use]
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Maps `f` over `items` on `threads` worker threads (clamped to
/// `1..=items.len()`), returning the results in input order. One worker
/// is the calling thread itself.
///
/// `f` must be pure with respect to the output (it may hit shared
/// caches): the contract every caller relies on is that the returned
/// vector is identical for any `threads` value.
///
/// # Panics
/// Panics if `f` panics on some item (a bug in `f`, not an input error).
/// The message names the input index of the job that panicked — when
/// several jobs panic concurrently, the lowest index wins.
pub fn run_ordered<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // First panic per worker, recorded as (job index, payload text); the
    // lowest job index is re-raised once every worker is done, so the
    // caller sees a deterministic culprit.
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let worker_loop = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        match catch_unwind(AssertUnwindSafe(|| {
            let mut span = cim_obs::span("pool", "job");
            span.set(keys::INDEX, i as u64);
            f(item)
        })) {
            Ok(out) => {
                *slots[i].lock().expect("pool worker poisoned a slot") = Some(out);
            }
            Err(payload) => {
                panics
                    .lock()
                    .expect("pool panic log poisoned")
                    .push((i, panic_text(&*payload)));
                break;
            }
        }
    };
    if threads == 1 {
        // One worker is the caller's thread: no spawn, no join.
        worker_loop();
    } else {
        std::thread::scope(|scope| {
            for worker in 0..threads {
                std::thread::Builder::new()
                    .name(format!("cim-pool-{worker}"))
                    .spawn_scoped(scope, worker_loop)
                    .expect("spawning a cim-pool worker thread failed");
            }
        });
    }
    let mut panics = panics.into_inner().expect("pool panic log poisoned");
    if let Some((job, text)) = panics.drain(..).min_by_key(|&(job, _)| job) {
        panic!("cim-pool worker panicked on job {job}: {text}");
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool worker poisoned a slot")
                .expect("every item index was claimed")
        })
        .collect()
}

/// Rejection returned by [`Pool::try_submit`] when the bounded queue is
/// full: the admission-control signal a server turns into a structured
/// "overloaded" response instead of unbounded buffering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolFull {
    /// Jobs queued (but not yet started) at rejection time.
    pub depth: usize,
    /// The queue's capacity.
    pub capacity: usize,
}

impl std::fmt::Display for PoolFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool queue full ({} of {} slots taken)",
            self.depth, self.capacity
        )
    }
}

impl std::error::Error for PoolFull {}

/// A pending job stamped with its enqueue time, so the dequeueing
/// worker can attribute queue wait without touching the clock twice.
struct Queued {
    job: Box<dyn FnOnce() + Send>,
    enqueued_us: u64,
}

struct PoolState {
    jobs: std::collections::VecDeque<Queued>,
    draining: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: std::sync::Condvar,
    capacity: usize,
}

/// A persistent, bounded-queue thread pool for long-running services.
///
/// Where [`run_ordered`] maps one batch and joins, a [`Pool`] keeps its
/// `cim-pool-{i}` workers alive across submissions — this is what
/// `cimc serve` multiplexes concurrent requests onto. Admission is
/// bounded: [`try_submit`](Pool::try_submit) rejects with [`PoolFull`]
/// instead of queueing without limit, so overload surfaces as a
/// structured response, not ballooning memory and latency.
///
/// A panicking job is caught and reported on stderr; the worker survives
/// and moves on to the next job, so one poisoned request cannot shrink
/// the pool. [`drain`](Pool::drain) finishes every queued job and joins
/// the workers (graceful shutdown).
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns `threads` workers (clamped to the available parallelism)
    /// fed from a queue bounded at `capacity` pending jobs
    /// (`capacity >= 1` enforced).
    ///
    /// # Panics
    /// Panics if the OS refuses to spawn a worker thread.
    #[must_use]
    pub fn new(threads: usize, capacity: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: std::collections::VecDeque::new(),
                draining: false,
            }),
            available: std::sync::Condvar::new(),
            capacity: capacity.max(1),
        });
        let workers = (0..effective_threads(threads))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cim-pool-{i}"))
                    .spawn(move || Pool::worker_loop(&shared))
                    .expect("spawning a cim-pool worker thread failed")
            })
            .collect();
        Pool { shared, workers }
    }

    fn worker_loop(shared: &PoolShared) {
        loop {
            let (queued, depth) = {
                let mut state = shared.state.lock().expect("pool state poisoned");
                loop {
                    if let Some(queued) = state.jobs.pop_front() {
                        break (queued, state.jobs.len());
                    }
                    if state.draining {
                        return;
                    }
                    state = shared
                        .available
                        .wait(state)
                        .expect("pool state poisoned while waiting");
                }
            };
            let Queued { job, enqueued_us } = queued;
            let dequeued_us = TraceClock::global().now_us();
            cim_obs::gauge_set("pool.queue_depth", depth as i64);
            cim_obs::observe_us(
                "pool.queue_wait_us",
                dequeued_us.saturating_sub(enqueued_us),
            );
            cim_obs::complete_span("pool", "queue_wait", enqueued_us, dequeued_us, Vec::new());
            cim_obs::count("pool.jobs", 1);
            let started = TraceClock::global().stopwatch();
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                let text = panic_text(&*payload);
                eprintln!("cim-pool worker: job panicked: {text}");
            }
            cim_obs::count("pool.busy_us", started.elapsed_us());
        }
    }

    /// Number of jobs queued but not yet started.
    ///
    /// # Panics
    /// Panics if a previous pool user panicked while holding the lock.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool state poisoned")
            .jobs
            .len()
    }

    /// The queue's capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues `job`, or rejects it with [`PoolFull`] when `capacity`
    /// jobs are already pending (or the pool is draining).
    ///
    /// # Errors
    /// Returns [`PoolFull`] with the observed depth when the queue is at
    /// capacity or [`drain`](Pool::drain) has begun.
    ///
    /// # Panics
    /// Panics if a previous pool user panicked while holding the lock.
    pub fn try_submit(&self, job: Box<dyn FnOnce() + Send>) -> Result<(), PoolFull> {
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        if state.draining || state.jobs.len() >= self.shared.capacity {
            return Err(PoolFull {
                depth: state.jobs.len(),
                capacity: self.shared.capacity,
            });
        }
        state.jobs.push_back(Queued {
            job,
            enqueued_us: TraceClock::global().now_us(),
        });
        let depth = state.jobs.len();
        drop(state);
        cim_obs::gauge_set("pool.queue_depth", depth as i64);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Finishes every queued job, then joins the workers. Further
    /// submissions are rejected the moment this is called.
    ///
    /// # Panics
    /// Panics if a previous pool user panicked while holding the lock,
    /// or if a worker thread cannot be joined.
    pub fn drain(mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.draining = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("cim-pool worker thread panicked");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Best-effort drain when the owner forgets: mark draining and
        // detach (joining in drop could deadlock a panicking thread).
        if let Ok(mut state) = self.shared.state.lock() {
            state.draining = true;
        }
        self.shared.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|n| n * n).collect();
        for threads in [1, 2, 4, 16, 200] {
            assert_eq!(run_ordered(&items, threads, |n| n * n), expect);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run_ordered(&[] as &[u32], 4, |n| *n);
        assert!(out.is_empty());
    }

    #[test]
    fn work_queue_balances_uneven_items() {
        // A deliberately skewed workload: one heavy item plus many light
        // ones. Correctness (order) must hold; this is primarily a
        // does-not-deadlock/does-not-partition-statically check.
        let items: Vec<u64> = (0..32).collect();
        let out = run_ordered(&items, 4, |n| {
            if *n == 0 {
                (0..10_000u64).fold(0, |a, b| a ^ b.wrapping_mul(*n + 1))
            } else {
                *n
            }
        });
        assert_eq!(out[5], 5);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn workers_are_named() {
        let names = run_ordered(&[(), (), (), ()], 4, |()| {
            std::thread::current().name().map(str::to_owned)
        });
        for name in names.into_iter().flatten() {
            assert!(name.starts_with("cim-pool-"), "{name}");
        }
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread_and_reraises_its_panic() {
        let caller = std::thread::current().id();
        let seen = run_ordered(&[(), ()], 1, |()| std::thread::current().id());
        assert_eq!(seen, [caller, caller]);
        let panic = catch_unwind(|| {
            run_ordered(&[0u32, 1, 2], 1, |&n| {
                assert!(n != 1, "job one fails");
                n
            })
        })
        .unwrap_err();
        let text = panic.downcast_ref::<String>().expect("a formatted message");
        assert_eq!(text, "cim-pool worker panicked on job 1: job one fails");
    }

    #[test]
    fn persistent_pool_runs_jobs_and_drains_gracefully() {
        let pool = Pool::new(2, 64);
        assert_eq!(pool.capacity(), 64);
        assert!(pool.workers() >= 1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..40 {
            let counter = Arc::clone(&counter);
            pool.try_submit(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }))
            .expect("queue has room");
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn full_queue_rejects_with_depth_and_capacity() {
        let pool = Pool::new(1, 2);
        let gate = Arc::new(Mutex::new(()));
        // Park the single worker on a held lock so the queue backs up.
        let held = gate.lock().unwrap();
        let block = Arc::clone(&gate);
        pool.try_submit(Box::new(move || {
            drop(block.lock());
        }))
        .expect("first job admitted");
        // Wait for the worker to pick the blocker up so the queue is
        // provably empty before we fill it.
        while pool.depth() > 0 {
            std::thread::yield_now();
        }
        pool.try_submit(Box::new(|| {})).expect("slot 1");
        pool.try_submit(Box::new(|| {})).expect("slot 2");
        let err = pool.try_submit(Box::new(|| {})).unwrap_err();
        assert_eq!(
            err,
            PoolFull {
                depth: 2,
                capacity: 2
            }
        );
        assert!(err.to_string().contains("2 of 2"), "{err}");
        drop(held);
        pool.drain();
    }

    #[test]
    fn draining_pool_rejects_new_work_but_finishes_the_queue() {
        let pool = Pool::new(1, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let counter = Arc::clone(&counter);
            pool.try_submit(Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }))
            .unwrap();
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = Pool::new(1, 8);
        pool.try_submit(Box::new(|| panic!("poisoned request")))
            .unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.try_submit(Box::new(move || {
            c.fetch_add(1, Ordering::Relaxed);
        }))
        .unwrap();
        pool.drain();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_names_the_job() {
        let items: Vec<u32> = (0..8).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_ordered(&items, 2, |n| {
                assert!(*n != 5, "job five is poisoned");
                *n
            })
        }))
        .unwrap_err();
        let text = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a formatted string");
        assert!(text.contains("job 5"), "{text}");
        assert!(text.contains("job five is poisoned"), "{text}");
    }
}
