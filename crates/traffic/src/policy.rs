//! The scheduling policies and the batching knob.
//!
//! A [`PolicyKind`] decides, each time a partition frees up, *which*
//! queued requests board the next batch: the engine keeps each
//! partition's queue in [`PolicyKind::key`] order (as FIFO runs, each
//! in rising key order) and boards the smallest keys. Policies therefore
//! compose with batching instead of replacing it — the [`Batching`]
//! limits (max batch size, max head-of-line wait) are honored
//! identically by every policy.
//!
//! | name       | key                                      | drop-on-miss |
//! |------------|------------------------------------------|--------------|
//! | `fifo`     | `(arrival, id, 0)`                       | no           |
//! | `priority` | `(u32::MAX − priority, arrival, id)`     | no           |
//! | `edf`      | `(deadline or u64::MAX, arrival, id)`    | yes          |
//!
//! `edf` is the deadline-aware policy: earliest-deadline-first order,
//! and a request whose deadline has already passed when the batch is
//! formed is *dropped* (counted, never served) instead of wasting the
//! partition on an answer nobody can use.

use crate::trace::TraceEvent;

/// Batch-forming limits honored by every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batching {
    /// Most requests one batch may carry (≥ 1).
    pub max_batch: usize,
    /// Longest the oldest queued request may wait, in cycles, before a
    /// partial batch is dispatched anyway. `0` dispatches as soon as
    /// the partition is free.
    pub max_wait: u64,
}

impl Default for Batching {
    fn default() -> Self {
        Batching {
            max_batch: 8,
            max_wait: 0,
        }
    }
}

/// The scheduling policies, nameable from the CLI and the wire API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// First-in, first-out: order of arrival, blind to everything else.
    Fifo,
    /// Strict priority: higher `priority` first, FIFO within a class.
    Priority,
    /// Earliest-deadline-first with drop-on-miss. Requests without a
    /// deadline sort last (an infinite deadline) and are never dropped.
    Edf,
}

impl PolicyKind {
    /// Every policy, in canonical order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Fifo, PolicyKind::Priority, PolicyKind::Edf];

    /// Canonical names accepted by [`PolicyKind::parse`] and the
    /// `cimc simulate --policies` flag, in [`PolicyKind::ALL`] order.
    pub const NAMES: [&'static str; 3] = ["fifo", "priority", "edf"];

    /// Stable CLI/report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::Priority => "priority",
            PolicyKind::Edf => "edf",
        }
    }

    /// Parses a name produced by [`PolicyKind::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The request's place in the queue: the lexicographically smallest
    /// key boards first. The key ends in the request id, so it is a
    /// total order in which no two requests of a trace tie (a trace's
    /// `(arrival, id)` pairs are distinct) and the dispatch order never
    /// depends on how the queue was built.
    #[must_use]
    pub fn key(self, event: &TraceEvent) -> (u64, u64, u64) {
        match self {
            PolicyKind::Fifo => (event.arrival, event.id, 0),
            PolicyKind::Priority => (
                u64::from(u32::MAX - event.priority),
                event.arrival,
                event.id,
            ),
            PolicyKind::Edf => (event.deadline.unwrap_or(u64::MAX), event.arrival, event.id),
        }
    }

    /// Whether a request whose deadline has passed at batch-forming
    /// time is dropped instead of served.
    ///
    /// Only `edf` drops, and its key leads with the absolute deadline
    /// (`u64::MAX` when there is none): the engine sheds by taking
    /// expired requests off the front of the queue, so every expired
    /// request must order before every live one.
    #[must_use]
    pub fn drop_on_miss(self) -> bool {
        self == PolicyKind::Edf
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64, arrival: u64, priority: u32, deadline: Option<u64>) -> TraceEvent {
        TraceEvent {
            id,
            tenant: 0,
            arrival,
            priority,
            deadline,
        }
    }

    #[test]
    fn fifo_orders_by_arrival_then_id() {
        let p = PolicyKind::Fifo;
        assert!(p.key(&event(0, 5, 9, None)) < p.key(&event(1, 6, 0, None)));
        assert!(p.key(&event(1, 5, 0, None)) > p.key(&event(0, 5, 9, None)));
        assert!(!p.drop_on_miss());
    }

    #[test]
    fn priority_prefers_urgent_then_fifo() {
        let p = PolicyKind::Priority;
        assert!(p.key(&event(9, 50, 2, None)) < p.key(&event(1, 1, 0, None)));
        assert!(p.key(&event(1, 1, 1, None)) < p.key(&event(2, 2, 1, None)));
        assert!(p.key(&event(1, 1, u32::MAX, None)) < p.key(&event(0, 0, 0, None)));
    }

    #[test]
    fn edf_prefers_earliest_deadline_and_sorts_deadline_free_last() {
        let p = PolicyKind::Edf;
        assert!(p.key(&event(9, 50, 0, Some(100))) < p.key(&event(1, 1, 9, Some(200))));
        assert!(p.key(&event(0, 1, 0, Some(1_000_000))) < p.key(&event(1, 2, 0, None)));
        assert!(p.drop_on_miss());
    }

    #[test]
    fn kinds_round_trip_names() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("lifo"), None);
    }
}
