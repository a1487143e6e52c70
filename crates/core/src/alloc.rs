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
//!    to the bottleneck stages, one *tie class* of identical stages at a
//!    time. The caller names each stage's *tie kind* up front (equal
//!    [`AllocItem`]s, equal kind; `tie_kinds`), so grouping the stages into
//!    classes is one `O(n)` pass, and the spend costs `O(n + L·C)` for `n`
//!    stages in `C` classes and `L` key levels, plus `O(n)` per level that
//!    does not fit.
//!
//! The segmentation DP prices every prefix of a budget window, and one
//! sweep answers them all in order.
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

/// Caller-leased working buffers of the leftover spend that finishes
/// [`minimize_bottleneck`], in this order:
///
/// 1. per item, its tie class, or `u32::MAX` if it takes no replica;
/// 2. per class, its lowest-index member;
/// 3. per class, the duplication number its members share;
/// 4. per class, its member count while it still takes replicas; 0 once
///    it reached its cap or could not pay for one;
/// 5. per class, 1 if its key is the current level's top key, else 0;
/// 6. per tie kind, the class of its first member. An entry that names
///    no class of that kind in the current call reads as empty, so stale
///    or arbitrary contents are harmless.
///
/// Every call clears the first five, which hold at most one entry per
/// item; the last holds one per kind. A caller that leases them once (the
/// segmentation DP, per row) allocates nothing per call, and may pass
/// them in with any contents. The one-shot [`minimize_bottleneck`] also
/// keeps its threshold heap in the first one before the spend starts.
pub type SpendBuffers = [Vec<u32>; 6];

/// Tag of an item the leftover spend never grants to: at its cap, or with
/// no latency to cut. Also the class slot of a kind with no class yet.
const UNTAGGED: u32 = u32::MAX;

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
/// construction. It derives the items'
/// tie kinds itself; a caller that already has them calls
/// `minimize_bottleneck_of_kinds`.
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
    let mut sweep = BottleneckSweep::new(items, budget, dup, &mut spend[0]);
    items.iter().for_each(|_| sweep.push());
    let base = sweep.base;
    finish_bottleneck(items, kinds, budget, base, dup, spend);
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

/// Whether `Q(t)` fits the budget.
fn fits_at(items: &[AllocItem], budget: u64, t: Ratio) -> bool {
    let mut used: u64 = 0;
    for item in items {
        used = used.saturating_add(u64::from(replicas(item, t)) * cost(item));
        if used > budget {
            return false;
        }
    }
    true
}

/// Turns `dup`, holding `Q(T*)` of a prefix whose all-ones allocation
/// takes `base` cores, into [`minimize_bottleneck`]'s answer: all ones if
/// the base does not fit, else `Q(T*)` plus the leftover spend.
fn finish_bottleneck(
    items: &[AllocItem],
    kinds: &[u32],
    budget: u64,
    base: u64,
    dup: &mut [u32],
    spend: &mut SpendBuffers,
) {
    if base > budget {
        dup.fill(1);
    } else {
        spend_leftover_on_bottleneck(items, kinds, dup, budget, spend);
    }
}

/// [`minimize_bottleneck`] for every prefix of one item list, in order —
/// the segmentation DP's row, whose candidate segments `[i..=i]`,
/// `[i..=i+1]`, … are the prefixes of its budget window.
///
/// A prefix's answer is decided by `T*`, the least threshold whose `Q(T*)`
/// fits the budget. Appending an item raises `Q(T)` at every `T`, so `T*`
/// only rises along a row. The sweep keeps `Q(T)` and a min-heap of every
/// item's *last-grant threshold* `latency / (Q_i − 1)`, the least `T` at
/// which it needs one replica fewer, read from `Q_i` itself. Every key
/// lies above `T`, so raising `T` to the least key gives back exactly one
/// replica from each item at that key. [`Self::push`] adds an item at the
/// current `T`, then raises `T` key by key until the budget fits. An item
/// that would cost more than a few raises per item in the prefix (caps in
/// the thousands) makes the sweep jump instead: an integer bisection
/// brackets `T*`, and raises finish from the bracket's low end.
///
/// The buffers are the caller's (scratch leases in the DP), so a row
/// allocates nothing.
pub(crate) struct BottleneckSweep<'a> {
    items: &'a [AllocItem],
    budget: u64,
    /// `Q(threshold)` of the items pushed so far.
    q: &'a mut Vec<u32>,
    /// Pushed items above one replica: a binary min-heap on their
    /// last-grant thresholds.
    heap: &'a mut Vec<u32>,
    /// The current threshold; the least feasible one once settled.
    threshold: Ratio,
    /// Cores of the all-ones allocation of the prefix.
    base: u64,
    /// Cores `q` uses. `u128`: at [`Ratio::ZERO`] every item sits at
    /// its cap.
    used: u128,
}

impl<'a> BottleneckSweep<'a> {
    /// A sweep over the prefixes of `items`, none pushed yet.
    pub(crate) fn new(
        items: &'a [AllocItem],
        budget: u64,
        q: &'a mut Vec<u32>,
        heap: &'a mut Vec<u32>,
    ) -> Self {
        debug_assert!(items.len() < u32::MAX as usize);
        q.clear();
        heap.clear();
        BottleneckSweep {
            items,
            budget,
            q,
            heap,
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
        let limit = 4 * self.q.len() + 16;
        let mut raised = 0;
        while self.over_budget() {
            if raised > limit {
                self.jump();
                return;
            }
            raised += self.raise();
        }
    }

    /// Writes the duplication vector of the prefix pushed so far into
    /// `dup`: exactly [`minimize_bottleneck`] of that prefix. `kinds` are
    /// the [`tie_kinds`] of the sweep's items (or of any list they are a
    /// slice of).
    pub(crate) fn solution(&self, dup: &mut Vec<u32>, kinds: &[u32], spend: &mut SpendBuffers) {
        dup.clear();
        dup.extend_from_slice(self.q);
        let n = dup.len();
        finish_bottleneck(
            &self.items[..n],
            &kinds[..n],
            self.budget,
            self.base,
            dup,
            spend,
        );
    }

    fn over_budget(&self) -> bool {
        self.used > u128::from(self.budget)
    }

    /// Appends the next item at the current threshold, over budget or not.
    fn insert(&mut self) {
        let idx = self.q.len();
        let item = &self.items[idx];
        let d = replicas(item, self.threshold);
        self.base += cost(item);
        self.used += u128::from(d) * u128::from(cost(item));
        self.q.push(d);
        if d > 1 {
            self.heap.push(idx as u32);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// The least threshold at which item `idx` needs one replica fewer;
    /// the item is above one replica.
    fn last_grant(&self, idx: u32) -> Ratio {
        let idx = idx as usize;
        Ratio::of(self.items[idx].latency, u128::from(self.q[idx] - 1))
    }

    /// Raises the threshold to the least last-grant threshold and gives
    /// back one replica from every item at it. Returns how many items did.
    fn raise(&mut self) -> usize {
        // Over budget with a fitting base: some item is above one replica.
        self.threshold = self.last_grant(self.heap[0]);
        let mut raised = 0;
        while let Some(&idx) = self.heap.first() {
            if self.last_grant(idx) > self.threshold {
                break;
            }
            let i = idx as usize;
            self.q[i] -= 1;
            self.used -= u128::from(cost(&self.items[i]));
            if self.q[i] == 1 {
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
        let items = &self.items[..self.q.len()];
        let top = items.iter().map(|i| i.latency).max().unwrap_or(0);
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
            if fits_at(items, self.budget, fixed(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        self.threshold = fixed(lo);
        self.used = 0;
        self.heap.clear();
        for (idx, (d, item)) in self.q.iter_mut().zip(items).enumerate() {
            *d = replicas(item, self.threshold);
            self.used += u128::from(*d) * u128::from(cost(item));
            if *d > 1 {
                self.heap.push(idx as u32);
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
}

/// Grants the cores `dup` leaves over of the budget to the bottleneck
/// stages. `kinds` are the items' [`tie_kinds`].
///
/// The answer is the greedy that grants one replica at a time to the
/// stage with the highest key `latency / D_i`, ties to the lowest index,
/// skipping stages at their cap or with no latency and dropping a stage
/// for good once it cannot be paid for (`used` only grows). It is
/// computed in batches instead of one grant at a time:
///
/// * Items of the same tie kind with the same `D_i` form a *tie class*:
///   the greedy treats its members alike, up to index order. An item finds
///   its class through its kind's slot, which holds the class of the
///   kind's first member; only a kind whose members start from two
///   different `D_i` searches the classes. A slot whose class is not of
///   its kind is stale and reads as empty, so slots are never reset.
/// * The greedy grants whole *key levels* — every member whose key is the
///   highest — before any lower key, and one grant strictly lowers a
///   member's key (its latency is positive). A level whose cost fits the
///   budget left gives each member one replica, in one step.
/// * Order only matters in a level that does not fit. Its members are
///   walked in index order, as the greedy pops them; a member that cannot
///   be paid for retires its whole class, since its cost only grows
///   relative to the budget left. Such a level retires at least one class.
///
/// Grouping costs `O(n)` for `n` items, plus `O(C)` for `C` classes per
/// member of a kind split over several `D_i`. Each of `L` levels costs
/// `O(C)` — whether a class is at the level's key is decided once per
/// level, not once per member — plus `O(n)` for each of the `P ≤ C` levels
/// that do not fit: `O(n + L·C + P·n)` in all, where the greedy made one
/// heap round trip per replica. The buffers are the caller's, so a call
/// allocates nothing.
fn spend_leftover_on_bottleneck(
    items: &[AllocItem],
    kinds: &[u32],
    dup: &mut [u32],
    budget: u64,
    spend: &mut SpendBuffers,
) {
    let [tags, reps, dups, members, at_top, slots] = spend;
    for buf in [&mut *tags, reps, dups, members, at_top] {
        buf.clear();
    }
    debug_assert!(items.len() < UNTAGGED as usize);
    for (idx, ((item, &kind), &d)) in items.iter().zip(kinds).zip(dup.iter()).enumerate() {
        if !(d < cap(item) && item.latency > 0) {
            tags.push(UNTAGGED);
            continue;
        }
        if kind as usize >= slots.len() {
            slots.resize(kind as usize + 1, UNTAGGED);
        }
        // The slot counts only if it names a class of this call whose
        // members are of this kind; anything else reads as empty.
        let slot = slots[kind as usize] as usize;
        let live = slot < reps.len() && kinds[reps[slot] as usize] == kind;
        let found = if !live {
            None
        } else if dups[slot] == d {
            Some(slot)
        } else {
            // A kind whose members carry a second `d`: search the classes.
            (0..reps.len()).find(|&c| dups[c] == d && items[reps[c] as usize] == *item)
        };
        let class = found.unwrap_or_else(|| {
            if !live {
                slots[kind as usize] = reps.len() as u32;
            }
            reps.push(idx as u32);
            dups.push(d);
            members.push(0);
            at_top.push(0);
            reps.len() - 1
        });
        members[class] += 1;
        tags.push(class as u32);
    }
    let key = |rep: u32, d: u32| Ratio::of(items[rep as usize].latency, u128::from(d));
    let used: u64 = dup
        .iter()
        .zip(items)
        .map(|(&d, i)| u64::from(d) * cost(i))
        .sum();
    let mut left = budget.saturating_sub(used);
    loop {
        // The highest key of a class still taking replicas (every one lies
        // above zero), and what one more replica for every member at that
        // key costs.
        let (mut top, mut level_cost) = (Ratio::ZERO, 0u64);
        for c in 0..reps.len() {
            if members[c] == 0 {
                continue;
            }
            let (k, cost) = (
                key(reps[c], dups[c]),
                u64::from(members[c]) * cost(&items[reps[c] as usize]),
            );
            if k > top {
                (top, level_cost) = (k, cost);
            } else if k == top {
                level_cost = level_cost.saturating_add(cost);
            }
        }
        if level_cost == 0 {
            break; // no class takes replicas any more
        }
        for c in 0..reps.len() {
            at_top[c] = u32::from(members[c] != 0 && key(reps[c], dups[c]) == top);
        }
        if level_cost <= left {
            left -= level_cost;
        } else {
            // Granted members take their replica now; a class that could
            // not pay for one keeps its duplication from here on.
            for (idx, &class) in tags.iter().enumerate() {
                let c = class as usize;
                if class == UNTAGGED || at_top[c] == 0 || members[c] == 0 {
                    continue;
                }
                let cost = cost(&items[idx]);
                if cost <= left {
                    left -= cost;
                    dup[idx] = dups[c] + 1;
                } else {
                    members[c] = 0;
                }
            }
        }
        // Every class of the level still taking replicas was paid in full.
        for c in 0..reps.len() {
            if at_top[c] == 0 || members[c] == 0 {
                continue;
            }
            dups[c] += 1;
            debug_assert!(key(reps[c], dups[c]) < top, "a grant lowers the key");
            if dups[c] == cap(&items[reps[c] as usize]) {
                members[c] = 0;
            }
        }
    }
    for (d, &class) in dup.iter_mut().zip(tags.iter()) {
        if class != UNTAGGED {
            *d = (*d).max(dups[class as usize]);
        }
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

    #[test]
    fn a_kind_split_over_two_dups_spends_like_the_greedy() {
        // Kind 0 starts at 1 and at 2 replicas, interleaved, so its members
        // fall into two classes and every second one searches for its own.
        let mut its = items(&[(1, 600, 8); 6]);
        its.extend(items(&[(2, 500, 8); 2]));
        let kinds = tie_kinds(&its);
        assert_eq!(kinds, vec![0, 0, 0, 0, 0, 0, 1, 1]);
        let mut spend = SpendBuffers::default();
        for budget in 15..40 {
            let (mut want, mut got) = (vec![1, 2, 1, 2, 1, 2, 1, 1], vec![1, 2, 1, 2, 1, 2, 1, 1]);
            grant_one_at_a_time(&its, &mut want, budget);
            spend_leftover_on_bottleneck(&its, &kinds, &mut got, budget, &mut spend);
            assert_eq!(got, want, "budget {budget}");
        }
    }

    #[test]
    fn junk_spend_buffers_change_nothing() {
        // Kind 0 split over two `d`s, and a kind 1 whose junk slot names
        // kind 0's first class, whose `d` it shares.
        let mut its = items(&[(1, 600, 8); 6]);
        its.extend(items(&[(2, 500, 8); 2]));
        let kinds = tie_kinds(&its);
        let junk = || -> SpendBuffers {
            let mut spend = SpendBuffers::default();
            for (b, buf) in spend.iter_mut().enumerate() {
                buf.extend((0..12).map(|k| (k + b as u32) % 4));
            }
            spend[5].fill(0);
            spend
        };
        for budget in 8..40 {
            let (mut want, mut got) = (vec![1, 2, 1, 2, 1, 2, 1, 1], vec![1, 2, 1, 2, 1, 2, 1, 1]);
            grant_one_at_a_time(&its, &mut want, budget);
            spend_leftover_on_bottleneck(&its, &kinds, &mut got, budget, &mut junk());
            assert_eq!(got, want, "budget {budget}");

            let mut got = Vec::new();
            super::minimize_bottleneck(&its, budget, &mut got, &mut junk());
            assert_eq!(got, minimize_bottleneck(&its, budget), "budget {budget}");
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
            let (mut q, mut heap) = (Vec::new(), Vec::new());
            let mut sweep = BottleneckSweep::new(&items, budget, &mut q, &mut heap);
            let (mut got, mut spend) = (Vec::new(), SpendBuffers::default());
            let kinds = tie_kinds(&items);
            for len in 1..=items.len() {
                let prefix = &items[..len];
                sweep.push();
                sweep.solution(&mut got, &kinds, &mut spend);
                proptest::prop_assert_eq!(&got, &minimize_bottleneck(prefix, budget));
                proptest::prop_assert_eq!(&got, &greedy(prefix, budget), "budget {}: {:?}", budget, prefix);
                if base_fits(prefix, budget) {
                    proptest::prop_assert!(fits_at(prefix, budget, sweep.threshold));
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

        /// The class-batched leftover spend grants exactly what the
        /// one-grant greedy does, on a `dup` drawn from a pool of 1–6
        /// distinct items, 40 picks per pool item at most: tie classes, a
        /// kind split over two duplication numbers, distinct items sharing a
        /// key (multiples of 50 176 over small `d`), costs 1–36 and budgets
        /// from exactly tight to 3× the cores in use. The kinds are those of
        /// a longer list the items end, as a DP window's are, and one set of
        /// buffers serves two calls.
        #[test]
        fn class_batched_spend_equals_the_one_grant_greedy(
            pool in proptest::collection::vec((0u32..10, 0u32..1_000_000, 1u32..37, 0u32..3, 0u32..1_000_000, 0u32..8), 1..7),
            picks in proptest::collection::vec((0usize..6, 0u32..8), 1..241),
            slack in 0u64..1_001,
        ) {
            let (mut items, mut dup) = (Vec::new(), Vec::new());
            for &(pick, bump) in picks.iter().take(40 * pool.len()) {
                let (lat_kind, raw, cost, cap_kind, raw_cap, raw_d) = pool[pick % pool.len()];
                let max_dup = 1 + raw_cap % [8, 64, 1_000_000][cap_kind as usize];
                items.push(AllocItem {
                    cost,
                    latency: match lat_kind {
                        0 => 0,
                        9 => u64::from(raw),
                        k => 50_176 * u64::from(k),
                    },
                    max_dup,
                });
                let d = 1 + raw_d % max_dup;
                dup.push(if bump == 0 { (d + 1).min(max_dup) } else { d });
            }
            let used = used(&items, &dup);
            let budget = used + used * 2 * slack / 1_000;
            let mut want = dup.clone();
            grant_one_at_a_time(&items, &mut want, budget);
            let list: Vec<AllocItem> = items.iter().rev().chain(&items).copied().collect();
            let kinds = &tie_kinds(&list)[items.len()..];
            let mut spend = SpendBuffers::default();
            for _ in 0..2 {
                let mut got = dup.clone();
                spend_leftover_on_bottleneck(&items, kinds, &mut got, budget, &mut spend);
                proptest::prop_assert_eq!(&got, &want, "budget {}: {:?}", budget, pool);
            }
        }
    }
}
