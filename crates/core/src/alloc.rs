//! Duplication-allocation solvers.
//!
//! CG-grained optimization assigns each operator a *duplication number*
//! under the total `core_number` budget (paper §3.3.2). Two objectives
//! arise:
//!
//! * **pipelined** schedules care about the bottleneck stage —
//!   [`minimize_bottleneck`] minimizes `max_i latency_i / D_i`;
//! * **non-pipelined** schedules care about the serial sum —
//!   [`minimize_total`] minimizes `Σ_i latency_i / D_i`.
//!
//! The paper solves the allocation with dynamic programming; because both
//! objectives are separable and convex in the integer duplication numbers,
//! the optimal allocation is also reachable by parametric search
//! (bottleneck) and by optimal marginal allocation (sum — Fox's algorithm
//! for convex separable resource allocation), which return the same optima
//! as a reference DP on small instances (the tests cross-check) without
//! the DP's `O(n·B·D)` table.
//!
//! The parametric search is exact: it finds the least `f64` bottleneck
//! target λ whose quantized duplication vector fits the budget, by
//! sweeping per-operator thresholds (`BottleneckSweep`). The
//! segmentation DP prices every prefix of a budget window, and one sweep
//! answers them all in order. The cores that vector leaves over go to the
//! bottleneck stages, one *tie class* of identical stages at a time. The
//! caller names each stage's *tie kind* up front (equal [`AllocItem`]s,
//! equal kind; `tie_kinds`), so grouping the stages into classes is one
//! `O(n)` pass, and the spend costs `O(n + L·C)` for `n` stages in `C`
//! classes and `L` key levels, plus `O(n)` per level that does not fit.
//!
//! [`minimize_total`] grants one replica per heap pop: `O(n + G log n)`
//! for `G` granted replicas.

/// One operator from the allocator's perspective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocItem {
    /// Cores consumed per replica.
    pub cost: u32,
    /// Latency of the operator with a single replica (cycles). Finite.
    pub latency: f64,
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
/// them in with any contents.
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
/// and `1 ≤ D_i ≤ max_dup_i`.
///
/// Writes the duplication vector into the caller-supplied `dup`, so hot
/// callers (the segmentation DP evaluates thousands of candidate segments)
/// reuse one scratch allocation; all-ones if even the base allocation
/// exceeds the budget (the caller is responsible for segmentation).
///
/// This is the last prefix of a `BottleneckSweep` over `items`, pushed
/// all at once: the DP's row sweep and the schedule of a chosen segment
/// get the same vector by construction. It derives the items'
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
    let prefix =
        BottleneckSweep::new(items, budget, dup, &mut Vec::new(), &mut Vec::new()).push_rest();
    finish_bottleneck(items, kinds, budget, prefix, dup, spend);
}

/// Least λ a sweep starts from. No prefix's search bracket starts below it
/// (`lo` in [`finish_bottleneck`] divides at least 1 by at most
/// `u32::MAX` and by 2), so the least feasible λ at or above it decides
/// every prefix's answer.
const LAMBDA_FLOOR: f64 = 1.0 / u32::MAX as f64 / 2.0;

/// `Q_i(λ) = clamp(ceil(latency_i / λ), 1, cap_i)`: the replicas `item`
/// needs for its latency per replica to reach `lambda`, capped. Feasibility
/// of a bottleneck target depends on this quantized vector only.
fn replicas(item: &AllocItem, lambda: f64) -> u32 {
    let want = (item.latency / lambda).ceil().max(1.0);
    (want as u64).min(u64::from(item.max_dup.max(1))) as u32
}

/// Cores one replica of `item` consumes.
fn cost(item: &AllocItem) -> u64 {
    u64::from(item.cost.max(1))
}

/// Whether `Q(lambda)` fits the budget.
fn fits_at(items: &[AllocItem], budget: u64, lambda: f64) -> bool {
    let mut used: u64 = 0;
    for item in items {
        used = used.saturating_add(u64::from(replicas(item, lambda)) * cost(item));
        if used > budget {
            return false;
        }
    }
    true
}

/// The *last-grant threshold* of `item` at `d` replicas: the least `f64`
/// λ at which it needs one replica fewer, i.e. `latency / λ ≤ d - 1` as
/// rounded — exact, not an approximation of `latency / (d - 1)`. Rounded
/// division is monotone in λ, so the condition flips once; stepping by one
/// float from `latency / (d - 1)` finds where. `INFINITY` at one replica,
/// which an item never gives back.
fn last_grant(item: &AllocItem, d: u32) -> f64 {
    if d <= 1 {
        return f64::INFINITY;
    }
    let (latency, fewer) = (item.latency, f64::from(d - 1));
    let mut t = latency / fewer;
    while latency / t > fewer {
        t = t.next_up();
    }
    while latency / t.next_down() <= fewer {
        t = t.next_down();
    }
    t
}

/// What finishing a prefix takes besides its `Q(λ)`. The sweep keeps it
/// current as items are pushed, so finishing a candidate rescans nothing.
#[derive(Debug, Clone, Copy)]
struct Prefix {
    /// Least feasible λ of the prefix, never below [`LAMBDA_FLOOR`].
    lambda: f64,
    /// Cores of the all-ones allocation of the prefix.
    base: u64,
    /// The prefix's largest latency, at least 1.
    top: f64,
    /// The prefix's largest duplication cap, at least 1.
    max_cap: u32,
}

/// Turns `dup`, holding `Q(prefix.lambda)` for the least feasible
/// `lambda ≥ LAMBDA_FLOOR`, into [`minimize_bottleneck`]'s answer.
///
/// The answer is `Q(max(lambda, lo))`, where `lo = max latency / max cap
/// / 2` is the low end of the allocator's search bracket: a prefix whose
/// `Q(lo)` already fits gets `Q(lo)`. Any budget left over then goes to the
/// bottleneck stages.
fn finish_bottleneck(
    items: &[AllocItem],
    kinds: &[u32],
    budget: u64,
    prefix: Prefix,
    dup: &mut [u32],
    spend: &mut SpendBuffers,
) {
    if prefix.base > budget {
        dup.fill(1);
        return;
    }
    let lo = prefix.top / f64::from(prefix.max_cap) / 2.0;
    if prefix.lambda <= lo {
        for (d, item) in dup.iter_mut().zip(items) {
            *d = replicas(item, lo);
        }
    }
    let mut used: u64 = dup
        .iter()
        .zip(items)
        .map(|(&d, i)| u64::from(d) * cost(i))
        .sum();
    spend_leftover_on_bottleneck(items, kinds, dup, budget, &mut used, spend);
}

/// [`minimize_bottleneck`] for every prefix of one item list, in order —
/// the segmentation DP's row, whose candidate segments `[i..=i]`,
/// `[i..=i+1]`, … are the prefixes of its budget window.
///
/// A prefix's answer is decided by `T`, the least `f64` λ whose quantized
/// vector `Q(T)` fits the budget. Appending an item raises `Q(λ)` at every
/// λ, so `T` only rises along a row. The sweep keeps `Q(T)` and a min-heap
/// of every item's [last-grant threshold](last_grant), the least λ at which
/// it needs one replica fewer. [`Self::push`] adds an item at the
/// current λ, then pops whole groups of equal thresholds until the budget
/// fits. An item that would cost more than a few pops per item in the
/// prefix (caps in the thousands) makes the sweep jump instead: an exact
/// bisection over `f64` bit patterns, after which the heap is rebuilt on
/// the next push that needs it.
///
/// The buffers are the caller's (scratch leases in the DP), so a row
/// allocates nothing.
pub(crate) struct BottleneckSweep<'a> {
    items: &'a [AllocItem],
    budget: u64,
    /// `Q(prefix.lambda)` of the items pushed so far.
    q: &'a mut Vec<u32>,
    /// Per pushed item, its [`last_grant`] threshold while the heap is live.
    keys: &'a mut Vec<f64>,
    /// Pushed items above one replica: a binary min-heap on `keys`.
    heap: &'a mut Vec<usize>,
    /// False after a jump until the heap is next needed.
    heap_live: bool,
    prefix: Prefix,
    /// Cores `q` uses. `u128`: at the floor every item sits at its cap.
    used: u128,
}

impl<'a> BottleneckSweep<'a> {
    /// A sweep over the prefixes of `items`, none pushed yet.
    pub(crate) fn new(
        items: &'a [AllocItem],
        budget: u64,
        q: &'a mut Vec<u32>,
        keys: &'a mut Vec<f64>,
        heap: &'a mut Vec<usize>,
    ) -> Self {
        q.clear();
        keys.clear();
        heap.clear();
        BottleneckSweep {
            items,
            budget,
            q,
            keys,
            heap,
            heap_live: true,
            prefix: Prefix {
                lambda: LAMBDA_FLOOR,
                base: 0,
                top: 1.0,
                max_cap: 1,
            },
            used: 0,
        }
    }

    /// Extends the prefix by the next item and raises λ to its least
    /// feasible value.
    pub(crate) fn push(&mut self) {
        self.insert();
        if self.prefix.base > self.budget {
            return; // all ones from here on
        }
        let limit = 4 * self.q.len() + 16;
        let mut pops = 0;
        while self.over_budget() {
            if pops > limit {
                self.jump();
                return;
            }
            if !self.heap_live {
                self.rebuild_heap();
            }
            let next = self.keys[self.heap[0]];
            pops += self.raise_to(next);
        }
    }

    /// Writes the duplication vector of the prefix pushed so far into
    /// `dup`: exactly [`minimize_bottleneck`] of that prefix. `kinds` are
    /// the [`tie_kinds`] of the sweep's items (or of any list they are a
    /// slice of).
    pub(crate) fn solution(&self, dup: &mut Vec<u32>, kinds: &[u32], spend: &mut SpendBuffers) {
        dup.clear();
        dup.extend_from_slice(self.q);
        finish_bottleneck(
            &self.items[..dup.len()],
            &kinds[..dup.len()],
            self.budget,
            self.prefix,
            dup,
            spend,
        );
    }

    /// Pushes every remaining item at once, then jumps: the one-shot
    /// solve, which needs no heap.
    fn push_rest(mut self) -> Prefix {
        self.heap_live = false;
        while self.q.len() < self.items.len() {
            self.insert();
        }
        if self.prefix.base <= self.budget && self.over_budget() {
            self.jump();
        }
        self.prefix
    }

    fn over_budget(&self) -> bool {
        self.used > u128::from(self.budget)
    }

    /// Appends the next item at the current λ, over budget or not.
    fn insert(&mut self) {
        let idx = self.q.len();
        let item = &self.items[idx];
        let d = replicas(item, self.prefix.lambda);
        let prefix = &mut self.prefix;
        prefix.base += cost(item);
        prefix.top = prefix.top.max(item.latency);
        prefix.max_cap = prefix.max_cap.max(item.max_dup);
        self.used += u128::from(d) * u128::from(cost(item));
        self.q.push(d);
        if self.heap_live {
            self.keys.push(last_grant(item, d));
            if d > 1 {
                let last = self.heap.len();
                self.heap.push(idx);
                sift_up(self.heap, self.keys, last);
            }
        }
    }

    /// Raises λ to `lambda` and gives back the replicas every item whose
    /// threshold it reaches no longer needs. Returns how many items did.
    fn raise_to(&mut self, lambda: f64) -> usize {
        self.prefix.lambda = lambda;
        let mut popped = 0;
        while let Some(&idx) = self.heap.first() {
            if self.keys[idx] > lambda {
                break;
            }
            let item = &self.items[idx];
            let d = replicas(item, lambda);
            self.used -= u128::from(self.q[idx] - d) * u128::from(cost(item));
            self.q[idx] = d;
            self.keys[idx] = last_grant(item, d);
            if d == 1 {
                let last = self.heap.pop().expect("heap is non-empty");
                if let Some(root) = self.heap.first_mut() {
                    *root = last;
                }
            }
            sift_down(self.heap, self.keys, 0);
            popped += 1;
        }
        popped
    }

    /// Moves λ straight to the least feasible value. The current λ is
    /// infeasible and the max latency is feasible (every item at one
    /// replica, and the base fits), and positive floats order like their
    /// bit patterns, so bisecting the patterns ends on adjacent floats
    /// within 64 steps.
    fn jump(&mut self) {
        let items = &self.items[..self.q.len()];
        let (mut lo, mut hi) = (self.prefix.lambda.to_bits(), self.prefix.top.to_bits());
        debug_assert!(lo < hi, "an infeasible λ lies below the max latency");
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits_at(items, self.budget, f64::from_bits(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        self.prefix.lambda = f64::from_bits(hi);
        self.used = 0;
        for (d, item) in self.q.iter_mut().zip(items) {
            *d = replicas(item, self.prefix.lambda);
            self.used += u128::from(*d) * u128::from(cost(item));
        }
        self.heap_live = false;
    }

    fn rebuild_heap(&mut self) {
        self.keys.clear();
        self.heap.clear();
        for (idx, (item, &d)) in self.items.iter().zip(self.q.iter()).enumerate() {
            self.keys.push(last_grant(item, d));
            if d > 1 {
                self.heap.push(idx);
            }
        }
        for pos in (0..self.heap.len() / 2).rev() {
            sift_down(self.heap, self.keys, pos);
        }
        self.heap_live = true;
    }
}

fn sift_up(heap: &mut [usize], keys: &[f64], mut pos: usize) {
    while pos > 0 {
        let parent = (pos - 1) / 2;
        if keys[heap[parent]] <= keys[heap[pos]] {
            break;
        }
        heap.swap(parent, pos);
        pos = parent;
    }
}

fn sift_down(heap: &mut [usize], keys: &[f64], mut pos: usize) {
    loop {
        let mut least = pos;
        for child in [2 * pos + 1, 2 * pos + 2] {
            if child < heap.len() && keys[heap[child]] < keys[heap[least]] {
                least = child;
            }
        }
        if least == pos {
            return;
        }
        heap.swap(pos, least);
        pos = least;
    }
}

/// Grants the budget left over after `dup` (which uses `used` cores) to
/// the bottleneck stages, adding what it spends to `used`. `kinds` are the
/// items' [`tie_kinds`].
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
///   member's key (latencies are finite). A level whose cost fits the
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
    used: &mut u64,
    spend: &mut SpendBuffers,
) {
    let [tags, reps, dups, members, at_top, slots] = spend;
    for buf in [&mut *tags, reps, dups, members, at_top] {
        buf.clear();
    }
    debug_assert!(items.len() < UNTAGGED as usize);
    for (idx, ((item, &kind), &d)) in items.iter().zip(kinds).zip(dup.iter()).enumerate() {
        if !(d < item.max_dup.max(1) && item.latency > 0.0) {
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
    let key = |rep: u32, d: u32| items[rep as usize].latency / f64::from(d);
    let budget_left = budget.saturating_sub(*used);
    let mut left = budget_left;
    loop {
        // The highest key of a class still taking replicas, and what one
        // more replica for every member at that key costs.
        let (mut top, mut level_cost) = (f64::NEG_INFINITY, 0u64);
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
            if dups[c] == items[reps[c] as usize].max_dup.max(1) {
                members[c] = 0;
            }
        }
    }
    for (d, &class) in dup.iter_mut().zip(tags.iter()) {
        if class != UNTAGGED {
            *d = (*d).max(dups[class as usize]);
        }
    }
    *used += budget_left - left;
}

/// Minimizes `Σ_i latency_i / D_i` subject to `Σ D_i·cost_i ≤ budget` and
/// `1 ≤ D_i ≤ max_dup_i`, via optimal marginal allocation (the objective
/// is separable convex, so granting each increment to the best marginal
/// gain per core is optimal).
///
/// Writes the duplication vector into the caller-supplied `dup`; all-ones
/// if the base allocation exceeds the budget.
pub fn minimize_total(items: &[AllocItem], budget: u64, dup: &mut Vec<u32>) {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Cand {
        gain_per_core: f64,
        idx: usize,
    }
    impl Eq for Cand {}
    impl PartialOrd for Cand {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Cand {
        fn cmp(&self, other: &Self) -> Ordering {
            self.gain_per_core
                .partial_cmp(&other.gain_per_core)
                .unwrap_or(Ordering::Equal)
        }
    }

    dup.clear();
    dup.resize(items.len(), 1);
    if items.is_empty() || !base_fits(items, budget) {
        return;
    }
    let mut used: u64 = items.iter().map(|i| u64::from(i.cost.max(1))).sum();
    let gain = |item: &AllocItem, d: u32| -> f64 {
        (item.latency / f64::from(d) - item.latency / f64::from(d + 1))
            / f64::from(item.cost.max(1))
    };
    let mut heap: BinaryHeap<Cand> = items
        .iter()
        .enumerate()
        .filter(|(_, it)| it.max_dup > 1)
        .map(|(idx, it)| Cand {
            gain_per_core: gain(it, 1),
            idx,
        })
        .collect();
    while let Some(c) = heap.pop() {
        let item = &items[c.idx];
        let cost = u64::from(item.cost.max(1));
        if used + cost > budget {
            continue; // cannot afford this one; cheaper ones may still fit
        }
        dup[c.idx] += 1;
        used += cost;
        if dup[c.idx] < item.max_dup {
            heap.push(Cand {
                gain_per_core: gain(item, dup[c.idx]),
                idx: c.idx,
            });
        }
    }
}

/// Whether the all-ones allocation fits the budget.
#[must_use]
pub fn base_fits(items: &[AllocItem], budget: u64) -> bool {
    let base: u64 = items.iter().map(|i| u64::from(i.cost.max(1))).sum();
    base <= budget
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimize_bottleneck(items: &[AllocItem], budget: u64) -> Vec<u32> {
        let mut dup = Vec::new();
        super::minimize_bottleneck(items, budget, &mut dup, &mut SpendBuffers::default());
        dup
    }

    /// The leftover spend as it ran before the class-batched one, kept as
    /// its oracle: one heap pop per granted replica, on a max-heap of
    /// `(latency/D_i, lowest index)`, dropping a stage for good once it
    /// cannot be paid for.
    fn grant_one_at_a_time(items: &[AllocItem], dup: &mut [u32], budget: u64, used: &mut u64) {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        struct Cand {
            lat: f64,
            idx: usize,
        }
        impl PartialEq for Cand {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> Ordering {
                // Max latency first; on ties the lower index wins the pop.
                self.lat
                    .partial_cmp(&other.lat)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| other.idx.cmp(&self.idx))
            }
        }

        let mut heap: BinaryHeap<Cand> = items
            .iter()
            .enumerate()
            .filter(|(i, item)| dup[*i] < item.max_dup.max(1) && item.latency > 0.0)
            .map(|(idx, item)| Cand {
                lat: item.latency / f64::from(dup[idx]),
                idx,
            })
            .collect();
        while let Some(c) = heap.pop() {
            let item = &items[c.idx];
            let cost = u64::from(item.cost.max(1));
            if *used + cost > budget {
                continue; // unaffordable now means unaffordable forever: drop it
            }
            dup[c.idx] += 1;
            *used += cost;
            if dup[c.idx] < item.max_dup.max(1) {
                heap.push(Cand {
                    lat: item.latency / f64::from(dup[c.idx]),
                    idx: c.idx,
                });
            }
        }
    }

    fn minimize_total(items: &[AllocItem], budget: u64) -> Vec<u32> {
        let mut dup = Vec::new();
        super::minimize_total(items, budget, &mut dup);
        dup
    }

    fn items(spec: &[(u32, f64, u32)]) -> Vec<AllocItem> {
        spec.iter()
            .map(|&(cost, latency, max_dup)| AllocItem {
                cost,
                latency,
                max_dup,
            })
            .collect()
    }

    fn bottleneck(items: &[AllocItem], dup: &[u32]) -> f64 {
        items
            .iter()
            .zip(dup)
            .map(|(i, &d)| i.latency / f64::from(d))
            .fold(0.0, f64::max)
    }

    fn total(items: &[AllocItem], dup: &[u32]) -> f64 {
        items
            .iter()
            .zip(dup)
            .map(|(i, &d)| i.latency / f64::from(d))
            .sum()
    }

    fn used(items: &[AllocItem], dup: &[u32]) -> u64 {
        items
            .iter()
            .zip(dup)
            .map(|(i, &d)| u64::from(i.cost) * u64::from(d))
            .sum()
    }

    /// Exhaustive reference optimum for tiny instances.
    fn brute_force(items: &[AllocItem], budget: u64, max_obj: bool) -> f64 {
        fn rec(
            items: &[AllocItem],
            budget: u64,
            idx: usize,
            dup: &mut Vec<u32>,
            best: &mut f64,
            max_obj: bool,
        ) {
            if idx == items.len() {
                let obj = if max_obj {
                    items
                        .iter()
                        .zip(dup.iter())
                        .map(|(i, &d)| i.latency / f64::from(d))
                        .fold(0.0, f64::max)
                } else {
                    items
                        .iter()
                        .zip(dup.iter())
                        .map(|(i, &d)| i.latency / f64::from(d))
                        .sum()
                };
                if obj < *best {
                    *best = obj;
                }
                return;
            }
            for d in 1..=items[idx].max_dup {
                let cost: u64 = items
                    .iter()
                    .zip(dup.iter())
                    .take(idx)
                    .map(|(i, &x)| u64::from(i.cost) * u64::from(x))
                    .sum::<u64>()
                    + u64::from(items[idx].cost) * u64::from(d)
                    + items[idx + 1..]
                        .iter()
                        .map(|i| u64::from(i.cost))
                        .sum::<u64>();
                if cost > budget {
                    break;
                }
                dup.push(d);
                rec(items, budget, idx + 1, dup, best, max_obj);
                dup.pop();
            }
        }
        let mut best = f64::INFINITY;
        rec(items, budget, 0, &mut Vec::new(), &mut best, max_obj);
        best
    }

    #[test]
    fn bottleneck_matches_brute_force() {
        let cases = vec![
            items(&[(1, 100.0, 10), (2, 50.0, 10), (1, 10.0, 10)]),
            items(&[(3, 90.0, 4), (1, 80.0, 8), (2, 70.0, 8)]),
            items(&[(1, 5.0, 2), (1, 5.0, 2), (1, 5.0, 2)]),
        ];
        for its in cases {
            for budget in [6u64, 10, 20] {
                if !base_fits(&its, budget) {
                    continue;
                }
                let dup = minimize_bottleneck(&its, budget);
                assert!(used(&its, &dup) <= budget);
                let got = bottleneck(&its, &dup);
                let opt = brute_force(&its, budget, true);
                assert!(
                    got <= opt * 1.0 + 1e-9,
                    "budget {budget}: got {got}, optimal {opt}"
                );
            }
        }
    }

    #[test]
    fn total_matches_brute_force() {
        let cases = vec![
            items(&[(1, 100.0, 10), (2, 50.0, 10), (1, 10.0, 10)]),
            items(&[(3, 90.0, 4), (1, 80.0, 8), (2, 70.0, 8)]),
        ];
        for its in cases {
            for budget in [6u64, 12, 24] {
                if !base_fits(&its, budget) {
                    continue;
                }
                let dup = minimize_total(&its, budget);
                assert!(used(&its, &dup) <= budget);
                let got = total(&its, &dup);
                let opt = brute_force(&its, budget, false);
                assert!(
                    got <= opt + 1e-9,
                    "budget {budget}: got {got}, optimal {opt}"
                );
            }
        }
    }

    #[test]
    fn respects_caps_and_budget() {
        let its = items(&[(1, 1000.0, 3), (1, 1.0, 100)]);
        let dup = minimize_bottleneck(&its, 1000);
        assert_eq!(dup[0], 3); // capped despite huge latency
        assert!(used(&its, &dup) <= 1000);
        let dup2 = minimize_total(&its, 1000);
        assert_eq!(dup2[0], 3);
    }

    #[test]
    fn infeasible_base_returns_ones() {
        let its = items(&[(100, 10.0, 5), (100, 10.0, 5)]);
        assert_eq!(minimize_bottleneck(&its, 50), vec![1, 1]);
        assert_eq!(minimize_total(&its, 50), vec![1, 1]);
        assert!(!base_fits(&its, 50));
    }

    #[test]
    fn tie_kinds_name_equal_items_alike_in_order_of_first_appearance() {
        let its = items(&[
            (2, 9.0, 4),
            (1, 9.0, 4),
            (2, 9.0, 4),
            (2, 9.0, 5),
            (1, 9.0, 4),
        ]);
        assert_eq!(tie_kinds(&its), vec![0, 1, 0, 2, 1]);
        assert!(tie_kinds(&[]).is_empty());
    }

    #[test]
    fn a_kind_split_over_two_dups_spends_like_the_greedy() {
        // Kind 0 starts at 1 and at 2 replicas, interleaved, so its members
        // fall into two classes and every second one searches for its own.
        let mut its = items(&[(1, 600.0, 8); 6]);
        its.extend(items(&[(2, 500.0, 8); 2]));
        let kinds = tie_kinds(&its);
        assert_eq!(kinds, vec![0, 0, 0, 0, 0, 0, 1, 1]);
        let mut spend = SpendBuffers::default();
        for budget in 15..40 {
            let dup = vec![1, 2, 1, 2, 1, 2, 1, 1];
            let used = used(&its, &dup);
            let (mut want, mut want_used) = (dup.clone(), used);
            grant_one_at_a_time(&its, &mut want, budget, &mut want_used);
            let (mut got, mut got_used) = (dup, used);
            spend_leftover_on_bottleneck(&its, &kinds, &mut got, budget, &mut got_used, &mut spend);
            assert_eq!((got, got_used), (want, want_used), "budget {budget}");
        }
    }

    #[test]
    fn junk_spend_buffers_change_nothing() {
        // Kind 0 split over two `d`s, and a kind 1 whose junk slot names
        // kind 0's first class, whose `d` it shares.
        let mut its = items(&[(1, 600.0, 8); 6]);
        its.extend(items(&[(2, 500.0, 8); 2]));
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
            let dup = vec![1, 2, 1, 2, 1, 2, 1, 1];
            let used = used(&its, &dup);
            let (mut want, mut want_used) = (dup.clone(), used);
            grant_one_at_a_time(&its, &mut want, budget, &mut want_used);
            let (mut got, mut got_used) = (dup, used);
            spend_leftover_on_bottleneck(
                &its,
                &kinds,
                &mut got,
                budget,
                &mut got_used,
                &mut junk(),
            );
            assert_eq!((got, got_used), (want, want_used), "budget {budget}");

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
                latency: 1000.0 / f64::from(i + 1),
                max_dup: 64,
            })
            .collect();
        let dup = minimize_bottleneck(&its, 768);
        assert!(used(&its, &dup) <= 768);
        let base = bottleneck(&its, &vec![1; 100]);
        assert!(bottleneck(&its, &dup) < base / 4.0);
        let dup2 = minimize_total(&its, 768);
        assert!(total(&its, &dup2) < total(&its, &vec![1; 100]) / 2.0);
    }

    /// The float λ-bisection `minimize_bottleneck` ran before the threshold
    /// sweep, kept as the sweep's oracle: 64 halvings of
    /// `[max latency / max cap / 2, max latency]` with the quantized early
    /// exit. Also returns the λ whose quantized vector it settled on.
    fn bisection(items: &[AllocItem], budget: u64) -> (Vec<u32>, f64) {
        let mut dup = vec![1; items.len()];
        if items.is_empty() || !base_fits(items, budget) {
            return (dup, f64::NAN);
        }
        let hi_start = items.iter().map(|i| i.latency).fold(1.0_f64, f64::max);
        let mut lo = hi_start
            / items
                .iter()
                .map(|i| f64::from(i.max_dup.max(1)))
                .fold(1.0, f64::max)
            / 2.0;
        let mut hi = hi_start;
        let quantize = |item: &AllocItem, lambda: f64| -> u64 {
            let want = (item.latency / lambda).ceil().max(1.0);
            (want as u64).min(u64::from(item.max_dup.max(1)))
        };
        let feasible = |lambda: f64| -> bool {
            let mut used: u64 = 0;
            for item in items {
                used = used.saturating_add(quantize(item, lambda) * u64::from(item.cost.max(1)));
                if used > budget {
                    return false;
                }
            }
            true
        };
        assert!(feasible(hi), "the base fits, so one replica each fits");
        let quantized_equal = |lo: f64, hi: f64| -> bool {
            items
                .iter()
                .all(|item| quantize(item, lo) == quantize(item, hi))
        };
        for iter in 0..64 {
            let mid = 0.5 * (lo + hi);
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
            if iter >= 8 && quantized_equal(lo, hi) {
                break;
            }
        }
        let mut used: u64 = 0;
        for (d, item) in dup.iter_mut().zip(items) {
            *d = quantize(item, hi) as u32;
            used += u64::from(*d) * u64::from(item.cost.max(1));
        }
        grant_one_at_a_time(items, &mut dup, budget, &mut used);
        (dup, hi)
    }

    /// Items drawn from `(latency kind, raw, cost, cap kind, raw cap)`:
    /// zero latencies, tie-heavy multiples of 50 176 (the zoo's 200 704 and
    /// 401 408 among them), plain and fractional latencies; caps up to 8,
    /// 1 000 or 10⁶. The first three drawn items, ResNet's period-3
    /// bottleneck block, come `blocks` more times before them, so identical
    /// items cross a threshold together.
    fn drawn_items(spec: &[(u32, u32, u32, u32, u32)], blocks: usize) -> Vec<AllocItem> {
        let drawn: Vec<AllocItem> = spec
            .iter()
            .map(|&(lat_kind, raw, cost, cap_kind, raw_cap)| AllocItem {
                cost,
                latency: match lat_kind {
                    0 => 0.0,
                    1 | 2 => 50_176.0 * f64::from(1 + raw % 8),
                    3 => f64::from(raw),
                    _ => f64::from(raw) / 7.0,
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

        /// At every prefix of a row, the sweep's λ is exactly the least
        /// feasible `f64` (at or above the floor), its vector equals the
        /// one-shot `minimize_bottleneck`, and it equals the float
        /// bisection wherever that bisection reached the same quantized
        /// vector. The bisection misses it in two ways only, and only
        /// there may the two differ:
        /// * 64 halvings cannot shrink its bracket (ratio `2·max cap`) to
        ///   one float, so it stops on an approximation;
        /// * the bracket start `lo` already fits but is never tested, and a
        ///   threshold sits at `lo.next_up()`: when `lo`'s last mantissa
        ///   bit is odd, `0.5 * (lo + lo.next_up())` rounds up, so `hi`
        ///   stalls one float above `lo` and the early exit never fires.
        #[test]
        fn sweep_is_the_exact_bisection_at_every_prefix(
            spec in proptest::collection::vec((0u32..5, 0u32..10_000_000, 0u32..6, 0u32..3, 0u32..1_000_000), 1..24),
            blocks in 0usize..13,
            slack in 0u64..1_001,
        ) {
            let items = drawn_items(&spec, blocks);
            let base: u64 = items.iter().map(cost).sum();
            let budget = base + base * 3 * slack / 1_000;
            let (mut q, mut keys, mut heap) = (Vec::new(), Vec::new(), Vec::new());
            let mut sweep = BottleneckSweep::new(&items, budget, &mut q, &mut keys, &mut heap);
            let (mut got, mut spend) = (Vec::new(), SpendBuffers::default());
            let kinds = tie_kinds(&items);
            for len in 1..=items.len() {
                let prefix = &items[..len];
                sweep.push();
                sweep.solution(&mut got, &kinds, &mut spend);
                proptest::prop_assert_eq!(&got, &minimize_bottleneck(prefix, budget));
                let lambda = sweep.prefix.lambda;
                if base_fits(prefix, budget) {
                    proptest::prop_assert!(fits_at(prefix, budget, lambda));
                    proptest::prop_assert!(
                        lambda == LAMBDA_FLOOR || !fits_at(prefix, budget, lambda.next_down()),
                        "λ {lambda} is not the least feasible float"
                    );
                }
                let (oracle, settled) = bisection(prefix, budget);
                let max_cap = prefix.iter().map(|i| i.max_dup.max(1)).max().unwrap_or(1);
                let hi = prefix.iter().map(|i| i.latency).fold(1.0_f64, f64::max);
                let lo = hi / f64::from(max_cap) / 2.0;
                let exact = lambda.max(lo);
                let converged = !base_fits(prefix, budget)
                    || prefix.iter().all(|i| replicas(i, settled) == replicas(i, exact));
                if converged {
                    proptest::prop_assert_eq!(
                        &got,
                        &oracle,
                        "budget {budget}: sweep {got:?} vs bisection {oracle:?} on {prefix:?}"
                    );
                } else {
                    let stalled = lambda <= lo && settled == lo.next_up();
                    proptest::prop_assert!(
                        2 * u64::from(max_cap) >= 1 << 10 || stalled,
                        "the bisection missed the least feasible λ with caps ≤ {max_cap}: {prefix:?}"
                    );
                }
            }
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
                        0 => 0.0,
                        9 => f64::from(raw) / 7.0,
                        k => 50_176.0 * f64::from(k),
                    },
                    max_dup,
                });
                let d = 1 + raw_d % max_dup;
                dup.push(if bump == 0 { (d + 1).min(max_dup) } else { d });
            }
            let used: u64 = items.iter().zip(&dup).map(|(i, &d)| u64::from(d) * cost(i)).sum();
            let budget = used + used * 2 * slack / 1_000;
            let (mut want, mut want_used) = (dup.clone(), used);
            grant_one_at_a_time(&items, &mut want, budget, &mut want_used);
            let list: Vec<AllocItem> = items.iter().rev().chain(&items).copied().collect();
            let kinds = &tie_kinds(&list)[items.len()..];
            let mut spend = SpendBuffers::default();
            for _ in 0..2 {
                let (mut got, mut got_used) = (dup.clone(), used);
                spend_leftover_on_bottleneck(&items, kinds, &mut got, budget, &mut got_used, &mut spend);
                proptest::prop_assert_eq!(&got, &want, "budget {}: {:?}", budget, pool);
                proptest::prop_assert_eq!(got_used, want_used);
            }
        }
    }
}
