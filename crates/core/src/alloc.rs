//! Duplication-allocation solvers.
//!
//! CG-grained optimization assigns each operator an integer *duplication
//! number* under the integer `core_number` budget (paper §3.3.2). Two
//! objectives arise:
//!
//! * **pipelined** schedules care about the bottleneck stage —
//!   [`minimize_bottleneck`] minimizes `max_i latency_i / D_i`;
//! * **non-pipelined** schedules care about the serial sum —
//!   [`minimize_total`] minimizes `Σ_i latency_i / D_i`.
//!
//! Latencies are whole cycles, so both solvers are exact: a `Ratio`
//! `latency / k` is compared with another by integer cross-multiplication,
//! and no float enters either answer.
//!
//! [`minimize_bottleneck`]'s answer is a greedy: start every stage at one
//! replica, then grant one replica at a time to the stage with the highest
//! `latency / D_i`, ties to the lowest index, skipping stages at their cap
//! or with no latency and dropping a stage for good once it cannot be paid
//! for. It is computed in two steps instead of one grant at a time:
//!
//! 1. A *threshold* `T`, a `Ratio`, asks every stage for
//!    `Q_i(T) = clamp(ceil(latency_i / T), 1, cap_i)` replicas. The least
//!    `T*` whose `Q(T*)` fits the budget is found by sweeping the stages'
//!    thresholds (`BottleneckSweep`). The greedy passes through `Q(T*)`
//!    without dropping a stage: while short of it, every stage below
//!    `Q_i(T*)` has a key above `T*`, every other stage is at its cap or
//!    has a key at most `T*`, and `Q(T*)` fits the budget.
//! 2. The cores `Q(T*)` leaves over go where the greedy grants them next:
//!    to the bottleneck stages, one *tie kind* of identical stages at a
//!    time.
//!
//! The caller names each stage's tie kind up front (equal [`AllocItem`]s,
//! equal kind; `tie_kinds`). `Q_i(T)` is a function of the item alone, so
//! every stage of a kind holds the same `Q`, and both steps run over the
//! `K` kinds with their member counts instead of over the `n` stages: a
//! raise of the threshold costs `O(log K)`, and the spend `O(K)` per key
//! level, plus one read per stage for a level that does not fit. The
//! segmentation DP prices every prefix of a budget window, and one sweep
//! answers them all in order.
//!
//! [`minimize_total`] is optimal marginal allocation (Fox's algorithm for
//! convex separable resource allocation): one replica per heap pop,
//! `O(n + G log n)` for `G` granted replicas.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One operator from the allocator's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocItem {
    /// Cores consumed per replica.
    pub cost: u32,
    /// Latency of the operator with a single replica (cycles).
    pub latency: u64,
    /// Upper bound on the duplication number (resource-independent caps:
    /// MVM count, bandwidth, ALU — computed by the caller).
    pub max_dup: u32,
}

/// Caller-leased working buffers of [`minimize_bottleneck`]'s threshold
/// sweep and leftover spend: per item, its tie kind's index; per kind, in
/// order of first appearance, its first member, member count and shared
/// `Q`; the threshold heap; per kind, the spend's duplication number,
/// member count while the kind takes replicas, and cut (see `KindDups`);
/// the kinds at the spend's current key level. None is longer than the
/// item list.
///
/// A sweep clears them all, so a caller that leases them once (the
/// segmentation DP, per row) allocates nothing per call, and may pass them
/// in with any contents.
pub type SpendBuffers = [Vec<u32>; 9];

/// The cut of a kind whose members a level that does not fit is walking.
const WALKING: u32 = u32::MAX;

/// The tie kind of every item: dense ids in order of first appearance,
/// equal for equal [`AllocItem`]s and only for them. `O(n·K)` for `K`
/// kinds; the segmentation DP derives them once per compile.
#[must_use]
pub(crate) fn tie_kinds(items: &[AllocItem]) -> Vec<u32> {
    let mut firsts: Vec<&AllocItem> = Vec::new();
    items
        .iter()
        .map(|item| {
            let kind = firsts.iter().position(|&first| first == item);
            kind.unwrap_or_else(|| {
                firsts.push(item);
                firsts.len() - 1
            }) as u32
        })
        .collect()
}

/// Minimizes `max_i latency_i / D_i` subject to `Σ D_i·cost_i ≤ budget`
/// and `1 ≤ D_i ≤ max_dup_i`: the one-replica greedy of the
/// [module docs](self).
///
/// Writes the duplication vector into the caller-supplied `dup`, so hot
/// callers (the segmentation DP evaluates thousands of candidate segments)
/// reuse one scratch allocation; all-ones if even the base allocation
/// exceeds the budget (the caller is responsible for segmentation).
///
/// This is the last prefix of a `BottleneckSweep` over `items`: the DP's
/// row sweep and the schedule of a chosen segment get the same vector by
/// construction. It derives the items' tie kinds itself; a caller that
/// already has them calls `minimize_bottleneck_of_kinds`.
pub fn minimize_bottleneck(
    items: &[AllocItem],
    budget: u64,
    dup: &mut Vec<u32>,
    spend: &mut SpendBuffers,
) {
    minimize_bottleneck_of_kinds(items, &tie_kinds(items), budget, dup, spend);
}

/// [`minimize_bottleneck`] of items whose [`tie_kinds`] are `kinds`.
pub(crate) fn minimize_bottleneck_of_kinds(
    items: &[AllocItem],
    kinds: &[u32],
    budget: u64,
    dup: &mut Vec<u32>,
    spend: &mut SpendBuffers,
) {
    let mut sweep = BottleneckSweep::new(items, kinds, budget, spend);
    items.iter().for_each(|_| sweep.push());
    dup.clear();
    dup.extend(sweep.solution().iter());
}

/// A latency over a count, `latency / k`, ordered by value exactly for
/// `k < 2^96`. As a bottleneck threshold it is the latency per replica of
/// a stage of `latency` cycles run as `k` replicas, and [`Ratio::ZERO`]
/// asks every stage with latency for its cap; [`minimize_total`] ranks
/// marginal gains with it.
#[derive(Debug, Clone, Copy)]
struct Ratio {
    latency: u64,
    k: u128,
}

impl Ratio {
    const ZERO: Ratio = Ratio::of(0, 1);

    const fn of(latency: u64, k: u128) -> Ratio {
        Ratio { latency, k }
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        wide_mul(self.latency, other.k).cmp(&wide_mul(other.latency, self.k))
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ratio {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ratio {}

/// `a · b` as the bits above its low 64 and those 64 bits: exact while
/// `b < 2^96`, so the pairs order such products as their values do.
fn wide_mul(a: u64, b: u128) -> (u128, u64) {
    let low = u128::from(a) * (b & u128::from(u64::MAX));
    (u128::from(a) * (b >> 64) + (low >> 64), low as u64)
}

/// Cores one replica of `item` consumes.
fn cost(item: &AllocItem) -> u64 {
    u64::from(item.cost.max(1))
}

/// The most replicas `item` may take.
fn cap(item: &AllocItem) -> u32 {
    item.max_dup.max(1)
}

/// `Q_i(t) = clamp(ceil(latency_i / t), 1, cap_i)`: the replicas `item`
/// needs for its latency per replica to reach `t`, capped. Feasibility of
/// a threshold depends on this vector only. The division runs in `u64`
/// whenever `latency · t.k` fits one, as it does on every real input; a
/// threshold's `k` is below `2^64`.
fn replicas(item: &AllocItem, t: Ratio) -> u32 {
    let cap = cap(item);
    let want = u128::from(item.latency) * t.k;
    if want == 0 {
        1
    } else if want > u128::from(cap - 1) * u128::from(t.latency) {
        cap
    } else {
        // The quotient is below `cap`, and `t.latency` is positive.
        match u64::try_from(want) {
            Ok(want) => want.div_ceil(t.latency) as u32,
            Err(_) => want.div_ceil(u128::from(t.latency)) as u32,
        }
    }
}

/// The answer of [`BottleneckSweep::solution`]: every item's duplication
/// number, read from its tie kind. A kind's members share `dups`, and its
/// members before item `cut` take one replica more: those a key level that
/// did not fit paid for before one of them could not be paid for.
pub(crate) struct KindDups<'s> {
    kind_of: &'s [u32],
    dups: &'s [u32],
    cut: &'s [u32],
}

impl KindDups<'_> {
    /// The duplication numbers, in item order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.kind_of.len()).map(|idx| self.of(idx))
    }

    /// The duplication number of item `idx`. Always inlined: the DP reads
    /// it once per stage of every candidate it prices.
    #[inline(always)]
    pub(crate) fn of(&self, idx: usize) -> u32 {
        let kind = self.kind_of[idx] as usize;
        self.dups[kind] + u32::from(idx < self.cut[kind] as usize)
    }
}

/// [`minimize_bottleneck`] for every prefix of one item list, in order —
/// the segmentation DP's row, whose candidate segments `[i..=i]`,
/// `[i..=i+1]`, … are the prefixes of its budget window.
///
/// A prefix's answer is decided by `T*`, the least threshold whose `Q(T*)`
/// fits the budget. Appending an item raises `Q(T)` at every `T`, so `T*`
/// only rises along a row. The sweep keeps, per tie kind, its member
/// count and the `Q` its members share, and a min-heap of every kind's
/// *last-grant threshold* `latency / (Q − 1)`, the least `T` at which its
/// members need one replica fewer. Every key lies above `T`, so raising
/// `T` to the least key gives back exactly one replica from each member of
/// each kind at that key. [`Self::push`] adds an item at the current `T`
/// (a member of a kind already pushed adds cores and nothing to the heap),
/// then raises `T` key by key until the budget fits. A kind that would
/// cost more than a few raises per kind in the prefix (caps in the
/// thousands) makes the sweep jump instead: an integer bisection brackets
/// `T*`, and raises finish from the bracket's low end.
///
/// The buffers are the caller's (scratch leases in the DP), so a row
/// allocates nothing.
pub(crate) struct BottleneckSweep<'a> {
    items: &'a [AllocItem],
    /// The [`tie_kinds`] of `items` (or of any list they are a slice of).
    kinds: &'a [u32],
    budget: u64,
    /// Per item pushed, its kind's index in the per-kind buffers.
    kind_of: &'a mut Vec<u32>,
    /// Per kind pushed, in order of first appearance: its first member,
    /// its member count and `Q(threshold)` of its members.
    first: &'a mut Vec<u32>,
    count: &'a mut Vec<u32>,
    q: &'a mut Vec<u32>,
    /// Kinds above one replica: a binary min-heap on their last-grant
    /// thresholds.
    heap: &'a mut Vec<u32>,
    /// The leftover spend's, per kind: its duplication number, its
    /// member count while it still takes replicas (0 once it reached its
    /// cap or could not pay for one) and its cut (see [`KindDups`]).
    dups: &'a mut Vec<u32>,
    members: &'a mut Vec<u32>,
    cut: &'a mut Vec<u32>,
    /// The kinds at the spend's current key level.
    top: &'a mut Vec<u32>,
    /// The current threshold; the least feasible one once settled.
    threshold: Ratio,
    /// Cores of the all-ones allocation of the prefix.
    base: u64,
    /// Cores `q` uses. `u128`: at [`Ratio::ZERO`] every item sits at
    /// its cap.
    used: u128,
}

impl<'a> BottleneckSweep<'a> {
    /// A sweep over the prefixes of `items`, whose tie kinds are `kinds`,
    /// none pushed yet.
    pub(crate) fn new(
        items: &'a [AllocItem],
        kinds: &'a [u32],
        budget: u64,
        bufs: &'a mut SpendBuffers,
    ) -> Self {
        debug_assert!(items.len() < WALKING as usize && kinds.len() >= items.len());
        for buf in bufs.iter_mut() {
            buf.clear();
        }
        let [kind_of, first, count, q, heap, dups, members, cut, top] = bufs;
        BottleneckSweep {
            items,
            kinds,
            budget,
            kind_of,
            first,
            count,
            q,
            heap,
            dups,
            members,
            cut,
            top,
            threshold: Ratio::ZERO,
            base: 0,
            used: 0,
        }
    }

    /// Extends the prefix by the next item and raises the threshold to its
    /// least feasible value.
    pub(crate) fn push(&mut self) {
        self.insert();
        if self.base > self.budget {
            return; // all ones from here on
        }
        let limit = 4 * self.first.len() + 16;
        let mut raised = 0;
        while self.over_budget() {
            if raised > limit {
                self.jump();
                return;
            }
            raised += self.raise();
        }
    }

    /// The duplication numbers of the prefix pushed so far: exactly
    /// [`minimize_bottleneck`] of that prefix. All ones if the prefix's
    /// base does not fit, else `Q(T*)` plus the leftover spend.
    pub(crate) fn solution(&mut self) -> KindDups<'_> {
        let fits = self.base <= self.budget;
        for buf in [&mut *self.dups, self.members, self.cut] {
            buf.resize(self.first.len(), 0);
        }
        for kind in 0..self.first.len() {
            let item = self.item(kind);
            let takes = fits && self.q[kind] < cap(item) && item.latency > 0;
            self.dups[kind] = if fits { self.q[kind] } else { 1 };
            self.members[kind] = if takes { self.count[kind] } else { 0 };
            self.cut[kind] = 0;
        }
        if fits {
            self.spend();
        }
        KindDups {
            kind_of: self.kind_of,
            dups: self.dups,
            cut: self.cut,
        }
    }

    /// The item every member of `kind` equals.
    fn item(&self, kind: usize) -> &'a AllocItem {
        &self.items[self.first[kind] as usize]
    }

    fn over_budget(&self) -> bool {
        self.used > u128::from(self.budget)
    }

    /// The cores `Q(t)` of the prefix uses.
    fn cores_at(&self, t: Ratio) -> u128 {
        let cores = |kind: usize| {
            let (n, item) = (self.count[kind], self.item(kind));
            u128::from(n) * u128::from(replicas(item, t)) * u128::from(cost(item))
        };
        (0..self.first.len()).map(cores).sum()
    }

    /// Appends the next item at the current threshold, over budget or not.
    /// A member of a kind already pushed holds its kind's `Q`.
    fn insert(&mut self) {
        let idx = self.kind_of.len();
        let item = &self.items[idx];
        // A prefix holds few kinds: look this one up among them.
        let known = self.first.iter().map(|&first| self.kinds[first as usize]);
        let kind = match known.zip(0..).find(|&(kind, _)| kind == self.kinds[idx]) {
            Some((_, kind)) => kind,
            None => {
                self.first.push(idx as u32);
                self.count.push(0);
                self.q.push(replicas(item, self.threshold));
                let kind = self.first.len() - 1;
                if self.q[kind] > 1 {
                    self.heap.push(kind as u32);
                    self.sift_up(self.heap.len() - 1);
                }
                kind
            }
        };
        self.kind_of.push(kind as u32);
        self.count[kind] += 1;
        self.base += cost(item);
        self.used += u128::from(self.q[kind]) * u128::from(cost(item));
    }

    /// The least threshold at which the members of `kind` need one
    /// replica fewer; the kind is above one replica.
    fn last_grant(&self, kind: u32) -> Ratio {
        let kind = kind as usize;
        Ratio::of(self.item(kind).latency, u128::from(self.q[kind] - 1))
    }

    /// Raises the threshold to the least last-grant threshold and gives
    /// back one replica from every member of every kind at it. Returns how
    /// many kinds did.
    fn raise(&mut self) -> usize {
        // Over budget with a fitting base: some kind is above one replica.
        self.threshold = self.last_grant(self.heap[0]);
        let mut raised = 0;
        while let Some(&kind) = self.heap.first() {
            if self.last_grant(kind) > self.threshold {
                break;
            }
            let k = kind as usize;
            self.q[k] -= 1;
            self.used -= u128::from(self.count[k]) * u128::from(cost(self.item(k)));
            if self.q[k] == 1 {
                self.heap.swap_remove(0);
            }
            self.sift_down(0);
            raised += 1;
        }
        raised
    }

    /// Moves the threshold straight to the least feasible one. The current
    /// threshold is infeasible and the largest latency `top` is feasible
    /// (every item at one replica, and the base fits). Bisecting the
    /// fixed-point thresholds `x / 2^s` between them, with `s` as large as
    /// keeps `top << s` in a `u64`, brackets `T*` within `2^-s`; from the
    /// bracket's infeasible end the few keys left are raised through.
    fn jump(&mut self) {
        let latencies = (0..self.first.len()).map(|kind| self.item(kind).latency);
        let top = latencies.max().unwrap_or(0);
        let shift = top.leading_zeros();
        let fixed = |x: u64| Ratio::of(x, 1 << shift);
        let Ratio { latency, k } = self.threshold;
        // At or below the current threshold, so infeasible too.
        let mut lo = ((u128::from(latency) << shift) / k) as u64;
        let mut hi = top << shift;
        debug_assert!(
            lo < hi,
            "an infeasible threshold lies below the top latency"
        );
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.cores_at(fixed(mid)) <= u128::from(self.budget) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        self.threshold = fixed(lo);
        self.used = self.cores_at(self.threshold);
        self.heap.clear();
        for kind in 0..self.first.len() {
            self.q[kind] = replicas(self.item(kind), self.threshold);
            if self.q[kind] > 1 {
                self.heap.push(kind as u32);
            }
        }
        for pos in (0..self.heap.len() / 2).rev() {
            self.sift_down(pos);
        }
        while self.over_budget() {
            self.raise();
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.last_grant(self.heap[parent]) <= self.last_grant(self.heap[pos]) {
                break;
            }
            self.heap.swap(parent, pos);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let mut least = pos;
            for child in [2 * pos + 1, 2 * pos + 2] {
                if child < self.heap.len()
                    && self.last_grant(self.heap[child]) < self.last_grant(self.heap[least])
                {
                    least = child;
                }
            }
            if least == pos {
                return;
            }
            self.heap.swap(pos, least);
            pos = least;
        }
    }

    /// Grants the cores `Q(T*)` leaves over of the budget to the
    /// bottleneck kinds.
    ///
    /// The answer is the greedy that grants one replica at a time to the
    /// stage with the highest key `latency / D_i`, ties to the lowest index,
    /// skipping stages at their cap or with no latency and dropping a stage
    /// for good once it cannot be paid for (`used` only grows). It is
    /// computed a kind at a time instead of one grant at a time:
    ///
    /// * The greedy grants whole *key levels* — every member whose key is the
    ///   highest — before any lower key, and one grant strictly lowers a
    ///   member's key (its latency is positive). A level whose cost fits the
    ///   budget left gives each member of its kinds one replica, in one step.
    /// * Order only matters in a level that does not fit: see
    ///   [`Self::walk_level`]. Such a level retires at least one kind.
    ///
    /// Each of the `L` levels costs `O(K)` for the `K` kinds present — a
    /// kind's key is computed once per level — plus, for a level that does
    /// not fit, one read per item from its first member on.
    fn spend(&mut self) {
        let mut left = self.budget - self.used as u64;
        loop {
            // The highest key of a kind still taking replicas (every one
            // lies above zero), the kinds at it, and what one more replica
            // for each of their members costs.
            let (mut level, mut level_cost) = (Ratio::ZERO, 0u64);
            self.top.clear();
            for kind in 0..self.first.len() {
                let (item, members) = (self.item(kind), self.members[kind]);
                if members == 0 {
                    continue;
                }
                let key = Ratio::of(item.latency, u128::from(self.dups[kind]));
                let cost = u64::from(members) * cost(item);
                match key.cmp(&level) {
                    Ordering::Greater => {
                        (level, level_cost) = (key, cost);
                        self.top.clear();
                    }
                    Ordering::Equal => level_cost = level_cost.saturating_add(cost),
                    Ordering::Less => continue,
                }
                self.top.push(kind as u32);
            }
            if self.top.is_empty() {
                break; // no kind takes replicas any more
            }
            if level_cost <= left {
                left -= level_cost;
            } else {
                left = self.walk_level(left);
            }
            // Every kind of the level still taking replicas was paid in full.
            for t in 0..self.top.len() {
                let (kind, item) = (self.top[t] as usize, self.item(self.top[t] as usize));
                if self.members[kind] == 0 {
                    continue;
                }
                self.dups[kind] += 1;
                self.cut[kind] = 0;
                debug_assert!(Ratio::of(item.latency, u128::from(self.dups[kind])) < level);
                if self.dups[kind] == cap(item) {
                    self.members[kind] = 0;
                }
            }
        }
    }

    /// Grants one replica to the members of the current level's kinds in
    /// index order, as the greedy pops them, from `left` cores; returns
    /// the cores left. A member that cannot be paid for retires its kind
    /// with its cut at that member, since the kind's cost only grows
    /// relative to the budget left. The walk reads the kind of every item
    /// from the level's first member on, until no kind of the level is
    /// left to pay for.
    fn walk_level(&mut self, mut left: u64) -> u64 {
        let mut start = u32::MAX;
        for t in 0..self.top.len() {
            let kind = self.top[t] as usize;
            (self.cut[kind], start) = (WALKING, start.min(self.first[kind]));
        }
        let mut walking = self.top.len();
        for idx in start as usize..self.kind_of.len() {
            let kind = self.kind_of[idx] as usize;
            if self.cut[kind] != WALKING {
                continue; // not at this level, or retired by it
            }
            let cost = cost(self.item(kind));
            if cost <= left {
                left -= cost;
            } else {
                (self.members[kind], self.cut[kind]) = (0, idx as u32);
                walking -= 1;
                if walking == 0 {
                    break;
                }
            }
        }
        left
    }
}

/// Minimizes `Σ_i latency_i / D_i` subject to `Σ D_i·cost_i ≤ budget` and
/// `1 ≤ D_i ≤ max_dup_i`, via optimal marginal allocation (the objective
/// is separable convex, so granting each increment to the best marginal
/// gain per core is optimal). The gain of a replica at `d` replicas is
/// exactly `latency / (d(d+1)·cost)`; equal gains go to the lowest index.
///
/// Writes the duplication vector into the caller-supplied `dup`; all-ones
/// if the base allocation exceeds the budget.
pub fn minimize_total(items: &[AllocItem], budget: u64, dup: &mut Vec<u32>) {
    let gain = |idx: usize, d: u32| {
        let per_core = u128::from(u64::from(d) * u64::from(d + 1));
        let gain = Ratio::of(items[idx].latency, per_core * u128::from(cost(&items[idx])));
        (gain, Reverse(idx))
    };
    dup.clear();
    dup.resize(items.len(), 1);
    if items.is_empty() || !base_fits(items, budget) {
        return;
    }
    let mut used: u64 = items.iter().map(cost).sum();
    let mut heap: BinaryHeap<_> = (0..items.len())
        .filter(|&idx| items[idx].max_dup > 1)
        .map(|idx| gain(idx, 1))
        .collect();
    while let Some((_, Reverse(idx))) = heap.pop() {
        let item = &items[idx];
        if used + cost(item) > budget {
            continue; // cannot afford this one; cheaper ones may still fit
        }
        dup[idx] += 1;
        used += cost(item);
        if dup[idx] < item.max_dup {
            heap.push(gain(idx, dup[idx]));
        }
    }
}

/// Whether the all-ones allocation fits the budget.
#[must_use]
pub fn base_fits(items: &[AllocItem], budget: u64) -> bool {
    items.iter().map(cost).sum::<u64>() <= budget
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimize_bottleneck(items: &[AllocItem], budget: u64) -> Vec<u32> {
        let mut dup = Vec::new();
        super::minimize_bottleneck(items, budget, &mut dup, &mut SpendBuffers::default());
        dup
    }

    fn minimize_total(items: &[AllocItem], budget: u64) -> Vec<u32> {
        let mut dup = Vec::new();
        super::minimize_total(items, budget, &mut dup);
        dup
    }

    /// The greedy of the module docs, one heap pop per granted replica:
    /// from `dup`, the highest `latency / D_i` first, ties to the lowest
    /// index, dropping a stage for good once it cannot be paid for. From
    /// all ones it is `minimize_bottleneck`'s spec; from `Q(T*)`, the
    /// leftover spend's.
    fn grant_one_at_a_time(items: &[AllocItem], dup: &mut [u32], budget: u64) {
        let mut used = used(items, dup);
        let key = |idx: usize, d: u32| (Ratio::of(items[idx].latency, u128::from(d)), Reverse(idx));
        let mut heap: BinaryHeap<_> = (0..items.len())
            .filter(|&idx| dup[idx] < cap(&items[idx]) && items[idx].latency > 0)
            .map(|idx| key(idx, dup[idx]))
            .collect();
        while let Some((_, Reverse(idx))) = heap.pop() {
            let item = &items[idx];
            if used + cost(item) > budget {
                continue; // unaffordable now means unaffordable forever: drop it
            }
            dup[idx] += 1;
            used += cost(item);
            if dup[idx] < cap(item) {
                heap.push(key(idx, dup[idx]));
            }
        }
    }

    /// [`grant_one_at_a_time`] from all ones.
    fn greedy(items: &[AllocItem], budget: u64) -> Vec<u32> {
        let mut dup = vec![1; items.len()];
        grant_one_at_a_time(items, &mut dup, budget);
        dup
    }

    fn items(spec: &[(u32, u64, u32)]) -> Vec<AllocItem> {
        spec.iter()
            .map(|&(cost, latency, max_dup)| AllocItem {
                cost,
                latency,
                max_dup,
            })
            .collect()
    }

    fn bottleneck(items: &[AllocItem], dup: &[u32]) -> Ratio {
        let stages = items.iter().zip(dup);
        stages
            .map(|(i, &d)| Ratio::of(i.latency, u128::from(d)))
            .fold(Ratio::ZERO, Ratio::max)
    }

    /// `Σ latency_i / D_i` as one fraction over `Π D_i`.
    fn total(items: &[AllocItem], dup: &[u32]) -> Ratio {
        let k: u64 = dup.iter().map(|&d| u64::from(d)).product();
        let stages = items.iter().zip(dup);
        let latency = stages.map(|(i, &d)| i.latency * (k / u64::from(d))).sum();
        Ratio::of(latency, u128::from(k))
    }

    fn used(items: &[AllocItem], dup: &[u32]) -> u64 {
        items
            .iter()
            .zip(dup)
            .map(|(i, &d)| cost(i) * u64::from(d))
            .sum()
    }

    /// Whether `Q(t)` fits the budget.
    fn fits_at(items: &[AllocItem], budget: u64, t: Ratio) -> bool {
        let cores = items.iter().map(|i| u64::from(replicas(i, t)) * cost(i));
        cores.sum::<u64>() <= budget
    }

    /// Calls `visit` with every duplication vector within caps and budget.
    fn every_dup(items: &[AllocItem], budget: u64, visit: &mut impl FnMut(&[u32])) {
        fn rec(items: &[AllocItem], left: u64, dup: &mut Vec<u32>, visit: &mut impl FnMut(&[u32])) {
            let Some(item) = items.get(dup.len()) else {
                return visit(dup);
            };
            let rest: u64 = items[dup.len() + 1..].iter().map(cost).sum();
            for d in 1..=cap(item) {
                let Some(left) = left.checked_sub(cost(item) * u64::from(d) + rest) else {
                    break;
                };
                dup.push(d);
                rec(items, left + rest, dup, visit);
                dup.pop();
            }
        }
        rec(items, budget, &mut Vec::new(), visit);
    }

    #[test]
    fn total_matches_brute_force() {
        let cases = vec![
            items(&[(1, 100, 10), (2, 50, 10), (1, 10, 10)]),
            items(&[(3, 90, 4), (1, 80, 8), (2, 70, 8)]),
        ];
        for its in cases {
            for budget in [6u64, 12, 24] {
                if !base_fits(&its, budget) {
                    continue;
                }
                let dup = minimize_total(&its, budget);
                assert!(used(&its, &dup) <= budget);
                let mut opt: Option<Ratio> = None;
                every_dup(&its, budget, &mut |dup| {
                    let t = total(&its, dup);
                    opt = Some(opt.map_or(t, |o| o.min(t)));
                });
                assert_eq!(total(&its, &dup), opt.unwrap(), "budget {budget}: {dup:?}");
            }
        }
    }

    #[test]
    fn respects_caps_and_budget() {
        let its = items(&[(1, 1000, 3), (1, 1, 100)]);
        let dup = minimize_bottleneck(&its, 1000);
        assert_eq!(dup[0], 3); // capped despite huge latency
        assert!(used(&its, &dup) <= 1000);
        let dup2 = minimize_total(&its, 1000);
        assert_eq!(dup2[0], 3);
    }

    #[test]
    fn infeasible_base_returns_ones() {
        let its = items(&[(100, 10, 5), (100, 10, 5)]);
        assert_eq!(minimize_bottleneck(&its, 50), vec![1, 1]);
        assert_eq!(minimize_total(&its, 50), vec![1, 1]);
        assert!(!base_fits(&its, 50));
    }

    #[test]
    fn an_exact_bottleneck_tie_goes_to_the_lowest_index() {
        // 250 880 / 15 = 50 176 / 3 exactly, and 17 replicas are left to
        // grant: the 17th breaks the tie at [3, 15, 1] toward stage 0.
        let its = items(&[(1, 50_176, 5), (1, 250_880, 62), (4, 401_408, 1)]);
        assert_eq!(minimize_bottleneck(&its, 23), vec![4, 15, 1]);
        assert_eq!(greedy(&its, 23), vec![4, 15, 1]);
    }

    #[test]
    fn an_exact_total_tie_goes_to_the_lowest_index() {
        // After stage 2 takes its second replica, stages 0 and 1 gain
        // exactly 100 / (1·2·2) = 25 per core, and one replica is left.
        let its = items(&[(2, 100, 6), (2, 100, 5), (3, 720, 2)]);
        assert_eq!(minimize_total(&its, 12), vec![2, 1, 2]);
    }

    #[test]
    fn tie_kinds_name_equal_items_alike_in_order_of_first_appearance() {
        let its = items(&[(2, 9, 4), (1, 9, 4), (2, 9, 4), (2, 9, 5), (1, 9, 4)]);
        assert_eq!(tie_kinds(&its), vec![0, 1, 0, 2, 1]);
        assert!(tie_kinds(&[]).is_empty());
    }

    /// Buffers left holding anything (an earlier caller's state) change
    /// no answer: a sweep clears them all.
    #[test]
    fn junk_spend_buffers_change_nothing() {
        let mut its = items(&[(1, 600, 8); 6]);
        its.extend(items(&[(2, 500, 8); 2]));
        let junk = || -> SpendBuffers {
            let mut spend = SpendBuffers::default();
            for (b, buf) in spend.iter_mut().enumerate() {
                buf.extend((0..12).map(|k| (k + b as u32) % 4));
            }
            spend
        };
        for budget in 8..40 {
            let mut got = Vec::new();
            super::minimize_bottleneck(&its, budget, &mut got, &mut junk());
            assert_eq!(got, minimize_bottleneck(&its, budget), "budget {budget}");
            assert_eq!(got, greedy(&its, budget), "budget {budget}");
        }
    }

    #[test]
    fn empty_items() {
        assert!(minimize_bottleneck(&[], 10).is_empty());
        assert!(minimize_total(&[], 10).is_empty());
    }

    #[test]
    fn big_instance_runs_fast_and_improves() {
        // 100 ops, heavy head — the shape of a ResNet on the baseline.
        let its: Vec<AllocItem> = (0..100)
            .map(|i| AllocItem {
                cost: 1 + (i % 7),
                latency: 1_000_000 / u64::from(i + 1),
                max_dup: 64,
            })
            .collect();
        let ones = vec![1; 100];
        let dup = minimize_bottleneck(&its, 768);
        assert!(used(&its, &dup) <= 768);
        let base = bottleneck(&its, &ones);
        assert!(bottleneck(&its, &dup) < Ratio { k: 4, ..base });
        let dup2 = minimize_total(&its, 768);
        // `total`'s common denominator overflows at 100 stages.
        let sum = |dup: &[u32]| -> f64 {
            let stages = its.iter().zip(dup);
            stages.map(|(i, &d)| i.latency as f64 / f64::from(d)).sum()
        };
        assert!(sum(&dup2) < sum(&ones) / 2.0);
    }

    /// Items drawn from `(latency kind, raw, cost, cap kind, raw cap)`:
    /// zero latencies, tie-heavy multiples of 50 176 (the zoo's 200 704 and
    /// 401 408 among them), plain latencies and latencies near 2⁴³; caps up
    /// to 8, 1 000 or 10⁶. The first three drawn items, ResNet's period-3
    /// bottleneck block, come `blocks` more times before them, so identical
    /// items cross a threshold together.
    fn drawn_items(spec: &[(u32, u32, u32, u32, u32)], blocks: usize) -> Vec<AllocItem> {
        let drawn: Vec<AllocItem> = spec
            .iter()
            .map(|&(lat_kind, raw, cost, cap_kind, raw_cap)| AllocItem {
                cost,
                latency: match lat_kind {
                    0 => 0,
                    1 | 2 => 50_176 * u64::from(1 + raw % 8),
                    3 => u64::from(raw),
                    _ => u64::from(raw) * 1_000_003,
                },
                max_dup: 1 + raw_cap % [8, 1_000, 1_000_000][cap_kind as usize],
            })
            .collect();
        let block = &drawn[..drawn.len().min(3)];
        let repeated = block.iter().cycle().take(block.len() * blocks);
        repeated.chain(&drawn).copied().collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// At every prefix of a row, the sweep's vector, the one-shot
        /// `minimize_bottleneck` and the one-replica greedy from all ones
        /// are equal, and the sweep settles on a feasible threshold.
        #[test]
        fn sweep_is_the_one_replica_greedy_at_every_prefix(
            spec in proptest::collection::vec((0u32..5, 0u32..10_000_000, 0u32..6, 0u32..3, 0u32..1_000_000), 1..24),
            blocks in 0usize..13,
            slack in 0u64..1_001,
        ) {
            let items = drawn_items(&spec, blocks);
            let base: u64 = items.iter().map(cost).sum();
            let budget = base + base * 3 * slack / 1_000;
            let (kinds, mut spend) = (tie_kinds(&items), SpendBuffers::default());
            let mut sweep = BottleneckSweep::new(&items, &kinds, budget, &mut spend);
            for len in 1..=items.len() {
                let prefix = &items[..len];
                sweep.push();
                let got: Vec<u32> = sweep.solution().iter().collect();
                proptest::prop_assert_eq!(&got, &minimize_bottleneck(prefix, budget));
                proptest::prop_assert_eq!(&got, &greedy(prefix, budget), "budget {}: {:?}", budget, prefix);
                if base_fits(prefix, budget) {
                    proptest::prop_assert!(fits_at(prefix, budget, sweep.threshold));
                }
            }
        }

        /// After every push, every pushed item's `Q_i(T)` at the sweep's
        /// threshold is the `q` its tie kind holds: all items of one kind
        /// hold the same `q`, the premise of keeping one per kind. Caps
        /// reach 10⁶, so `jump` runs too.
        #[test]
        fn items_of_one_tie_kind_share_their_q_after_every_push(
            spec in proptest::collection::vec((0u32..5, 0u32..10_000_000, 0u32..6, 0u32..3, 0u32..1_000_000), 1..24),
            blocks in 0usize..13,
            slack in 0u64..1_001,
        ) {
            let items = drawn_items(&spec, blocks);
            let kinds = tie_kinds(&items);
            let base: u64 = items.iter().map(cost).sum();
            let budget = base + base * 3 * slack / 1_000;
            let mut spend = SpendBuffers::default();
            let mut sweep = BottleneckSweep::new(&items, &kinds, budget, &mut spend);
            for len in 1..=items.len() {
                sweep.push();
                for (idx, item) in items[..len].iter().enumerate() {
                    let q = sweep.q[sweep.kind_of[idx] as usize];
                    proptest::prop_assert_eq!(q, replicas(item, sweep.threshold), "item {} of {:?}", idx, &items[..len]);
                }
            }
        }

        /// On ≤ 6 items with caps ≤ 6 and costs 1–4, `minimize_bottleneck`
        /// reaches the exhaustive optimum exactly, within the budget.
        #[test]
        fn bottleneck_matches_brute_force(
            spec in proptest::collection::vec((1u32..5, 0u32..3, 0u64..1_000, 1u32..7), 1..7),
            extra in 0u64..30,
        ) {
            let items: Vec<AllocItem> = spec
                .iter()
                .map(|&(cost, lat_kind, raw, max_dup)| AllocItem {
                    cost,
                    latency: [raw, 60 * (raw % 8), raw % 3][lat_kind as usize],
                    max_dup,
                })
                .collect();
            let budget = items.iter().map(cost).sum::<u64>() + extra;
            let dup = minimize_bottleneck(&items, budget);
            proptest::prop_assert!(used(&items, &dup) <= budget);
            let mut opt: Option<Ratio> = None;
            every_dup(&items, budget, &mut |dup| {
                let t = bottleneck(&items, dup);
                opt = Some(opt.map_or(t, |o| o.min(t)));
            });
            proptest::prop_assert_eq!(bottleneck(&items, &dup), opt.unwrap(), "{:?}", items);
        }

        /// The per-kind leftover spend grants exactly what the one-grant
        /// greedy does, from a `Q` drawn per tie kind over a pool of 1–6
        /// distinct items, 40 picks per pool item at most: kinds of many
        /// members, distinct items sharing a key (multiples of 50 176 over
        /// small `d`), costs 1–36 and budgets from exactly tight to 3× the
        /// cores in use. The kinds are those of a longer list the items
        /// end, as a DP window's are, and one set of buffers serves two
        /// calls.
        #[test]
        fn per_kind_spend_equals_the_one_grant_greedy(
            pool in proptest::collection::vec((0u32..10, 0u32..1_000_000, 1u32..37, 0u32..3, 0u32..1_000_000, 0u32..8), 1..7),
            picks in proptest::collection::vec(0usize..6, 1..241),
            slack in 0u64..1_001,
        ) {
            let (mut items, mut raw_dups) = (Vec::new(), Vec::new());
            for &pick in picks.iter().take(40 * pool.len()) {
                let (lat_kind, raw, cost, cap_kind, raw_cap, raw_d) = pool[pick % pool.len()];
                items.push(AllocItem {
                    cost,
                    latency: match lat_kind {
                        0 => 0,
                        9 => u64::from(raw),
                        k => 50_176 * u64::from(k),
                    },
                    max_dup: 1 + raw_cap % [8, 64, 1_000_000][cap_kind as usize],
                });
                raw_dups.push(raw_d);
            }
            let list: Vec<AllocItem> = items.iter().rev().chain(&items).copied().collect();
            let kinds = &tie_kinds(&list)[items.len()..];
            // A kind's first member draws the `Q` all its members hold.
            let mut q = vec![None; list.len()];
            let dup: Vec<u32> = items
                .iter()
                .zip(kinds)
                .zip(&raw_dups)
                .map(|((item, &kind), &raw_d)| {
                    *q[kind as usize].get_or_insert(1 + raw_d % item.max_dup)
                })
                .collect();
            let used = used(&items, &dup);
            let budget = used + used * 2 * slack / 1_000;
            let mut want = dup.clone();
            grant_one_at_a_time(&items, &mut want, budget);
            let mut spend = SpendBuffers::default();
            for _ in 0..2 {
                let mut sweep = BottleneckSweep::new(&items, kinds, budget, &mut spend);
                items.iter().for_each(|_| sweep.insert());
                for (&kind, &d) in sweep.kind_of.iter().zip(&dup) {
                    sweep.q[kind as usize] = d;
                }
                sweep.used = u128::from(used);
                let got: Vec<u32> = sweep.solution().iter().collect();
                proptest::prop_assert_eq!(&got, &want, "budget {}: {:?}", budget, pool);
            }
        }
    }
}
