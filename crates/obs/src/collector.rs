//! The process-wide event collector.
//!
//! Every thread that emits a span gets its own buffer (registered here
//! on first use), so the hot path locks an uncontended per-thread mutex
//! rather than a global one. [`Collector::drain`] takes every buffer's
//! events — per-thread order preserved, buffers ordered by thread id —
//! into a [`Trace`] for the exporters.
//!
//! # Disabled cost
//!
//! The enabled flag is a single `AtomicBool` read with
//! [`Ordering::Relaxed`] — the only work tracing does when off.

use crate::metrics::locked;
use crate::span::TraceEvent;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on buffered events per thread; beyond it new events are
/// counted as dropped instead of buffered, so a run that never drains
/// cannot grow without limit.
const PER_THREAD_CAP: usize = 1 << 20;

struct ThreadBuffer {
    tid: u64,
    name: String,
    events: Mutex<Vec<TraceEvent>>,
}

/// The global span collector: an on/off gate plus the registry of
/// per-thread event buffers. Obtain it via [`collector`].
pub struct Collector {
    enabled: AtomicBool,
    threads: Mutex<Vec<Arc<ThreadBuffer>>>,
    next_tid: AtomicU64,
    dropped: AtomicU64,
}

/// The process-wide [`Collector`].
#[must_use]
pub fn collector() -> &'static Collector {
    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    GLOBAL.get_or_init(|| Collector {
        enabled: AtomicBool::new(false),
        threads: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
    })
}

impl Collector {
    /// Starts recording spans.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording spans (already-buffered events stay until
    /// [`Collector::drain`]).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether spans are being recorded — the one relaxed atomic load
    /// on every disabled-path call.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Takes every buffered event into a [`Trace`], leaving the buffers
    /// empty (thread registrations persist, so long-lived workers keep
    /// their ids across drains).
    ///
    /// A lock that a panicking thread poisoned is still read: the
    /// registry only ever gains whole registrations and a buffer only
    /// whole events, so neither is left half-built.
    #[must_use]
    pub fn drain(&self) -> Trace {
        let mut buffers: Vec<Arc<ThreadBuffer>> = locked(&self.threads).clone();
        buffers.sort_by_key(|b| b.tid);
        let mut events = Vec::new();
        let mut threads = Vec::new();
        for buffer in buffers {
            let mut taken = std::mem::take(&mut *locked(&buffer.events));
            threads.push((buffer.tid, buffer.name.clone()));
            events.append(&mut taken);
        }
        Trace {
            events,
            threads,
            dropped: self.dropped.swap(0, Ordering::Relaxed),
        }
    }

    fn buffer_for_current_thread(&self) -> Arc<ThreadBuffer> {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{tid}"), str::to_owned);
        let buffer = Arc::new(ThreadBuffer {
            tid,
            name,
            events: Mutex::new(Vec::new()),
        });
        locked(&self.threads).push(Arc::clone(&buffer));
        buffer
    }
}

impl ThreadBuffer {
    /// Appends `event` unless the buffer already holds
    /// [`PER_THREAD_CAP`] events; returns whether it was kept.
    fn push(&self, event: TraceEvent) -> bool {
        let mut events = locked(&self.events);
        let kept = events.len() < PER_THREAD_CAP;
        if kept {
            events.push(event);
        }
        kept
    }
}

thread_local! {
    static BUFFER: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
}

/// Appends `event` to the current thread's buffer (registering the
/// thread on first use) and stamps its `tid`.
pub(crate) fn push(mut event: TraceEvent) {
    BUFFER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buffer = slot.get_or_insert_with(|| collector().buffer_for_current_thread());
        event.tid = buffer.tid;
        if !buffer.push(event) {
            collector().dropped.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// A drained batch of events, ready for an exporter.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All events: grouped by thread id, per-thread emission order
    /// preserved (timestamps within a thread are non-decreasing).
    pub events: Vec<TraceEvent>,
    /// `(tid, thread name)` for every thread that ever emitted, sorted
    /// by tid.
    pub threads: Vec<(u64, String)>,
    /// Events discarded because a thread exceeded its buffer cap.
    pub dropped: u64,
}

impl Trace {
    /// Events of phase [`Phase::Complete`](crate::Phase::Complete) plus
    /// matched begin/end pairs — the span count an exporter will emit.
    #[must_use]
    pub fn span_count(&self) -> usize {
        use crate::span::Phase;
        self.events
            .iter()
            .filter(|e| matches!(e.phase, Phase::End | Phase::Complete))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;

    fn event(name: &str) -> TraceEvent {
        TraceEvent {
            phase: Phase::Complete,
            name: name.to_owned(),
            cat: "test",
            ts_us: 1,
            dur_us: 2,
            tid: 0,
            args: Vec::new(),
        }
    }

    fn poison<T>(lock: &Mutex<T>) {
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = lock.lock();
            panic!("an emitter panicked holding the lock");
        }));
        assert!(panicked.is_err() && lock.is_poisoned());
    }

    #[test]
    fn a_poisoned_registry_and_buffer_still_record_and_drain() {
        // A private collector, so the global one other tests use stays
        // unpoisoned.
        let c = Collector {
            enabled: AtomicBool::new(true),
            threads: Mutex::new(Vec::new()),
            next_tid: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        };
        let first = c.buffer_for_current_thread();
        assert!(first.push(event("before")));
        poison(&c.threads);
        poison(&first.events);
        assert!(first.push(event("after")));
        let second = c.buffer_for_current_thread();
        assert!(second.push(event("second")));
        let trace = c.drain();
        let names: Vec<_> = trace.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["before", "after", "second"]);
        assert_eq!(
            trace.threads.iter().map(|t| t.0).collect::<Vec<_>>(),
            [0, 1]
        );
        assert!(c.drain().events.is_empty());
        assert!(first.push(event("again")));
        assert_eq!(c.drain().events.len(), 1);
    }
}
