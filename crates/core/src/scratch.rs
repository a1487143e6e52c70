//! Reusable scratch buffers for the scheduling passes.
//!
//! The CG-grained segmentation DP and the MVM-grained refinement are
//! called thousands of times per compile (once per candidate segment) and
//! each call needs a handful of short-lived vectors — duplication
//! numbers, latency/fill pairs, DP tables. Allocating them fresh on every
//! evaluation dominated the pre-arena profile, so a [`ScratchArena`]
//! owned by the [`Session`](crate::Session) pools them instead: a pass
//! leases a [`ScratchVec`] (recycling a previously returned buffer when
//! one is available), uses it like a `Vec`, and the buffer returns to the
//! pool on drop with its capacity intact.
//!
//! One thread at a time uses an arena: the free lists are plain
//! [`RefCell`]s, so the arena is `Send` (a session moves between
//! threads) but not `Sync`. Leases only touch the pool on construction
//! and drop, never per element.
//!
//! Peak accounting: per element kind, the arena keeps the largest *length*
//! any one lease held when it was returned since the last
//! [`ScratchArena::reset_peak`]; [`ScratchArena::peak_bytes`] is the sum
//! of those four lengths in bytes — the scratch one worker needs to run
//! the pass. (The schedulers' leases only grow, so a lease's length when
//! it comes back is the longest it ever was; one that shrank first would
//! be under-reported.) It counts what a pass wrote, not the capacity of whichever
//! recycled buffer it happened to be handed, and it is a maximum per
//! lease, never a sum across leases that overlap in time — so it is a
//! pure function of the work done.
//! The session resets it before each pass and stores it in the pass's
//! [`PassRecord`](crate::PassRecord), which is what
//! `cimc compile --timings` surfaces per pass.

use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};

/// The free list of one element kind plus the longest lease returned.
#[derive(Debug, Default)]
struct FreeList<T> {
    free: RefCell<Vec<Vec<T>>>,
    peak_len: Cell<usize>,
}

impl<T> FreeList<T> {
    /// A spare buffer, or a fresh one when none is left.
    fn pop(&self) -> Vec<T> {
        self.free.borrow_mut().pop().unwrap_or_default()
    }

    /// Returns `buf` to the spares, emptied, and counts its length toward
    /// the peak.
    fn give_back(&self, mut buf: Vec<T>) {
        self.peak_len.set(self.peak_len.get().max(buf.len()));
        buf.clear();
        self.free.borrow_mut().push(buf);
    }

    fn peak_bytes(&self) -> usize {
        self.peak_len.get() * std::mem::size_of::<T>()
    }
}

/// A pool of reusable scratch buffers with peak-usage accounting.
///
/// See the [module docs](self) for the lifecycle. One arena per
/// [`Session`](crate::Session); passes reach it through
/// [`PassContext::scratch`](crate::PassContext::scratch).
#[derive(Debug, Default)]
pub struct ScratchArena {
    f64s: FreeList<f64>,
    u32s: FreeList<u32>,
    usizes: FreeList<usize>,
    pairs: FreeList<(f64, f64)>,
}

impl ScratchArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Leases an empty `f64` buffer with at least `capacity` slots.
    #[must_use]
    pub fn f64s(&self, capacity: usize) -> ScratchVec<'_, f64> {
        lease(&self.f64s, capacity)
    }

    /// Leases an empty `u32` buffer with at least `capacity` slots.
    #[must_use]
    pub fn u32s(&self, capacity: usize) -> ScratchVec<'_, u32> {
        lease(&self.u32s, capacity)
    }

    /// Leases `N` empty `u32` buffers with at least `capacity` slots each,
    /// as one value: for a pass that needs several buffers of one kind
    /// per call. Each buffer counts toward the peak as a lease of its own.
    #[must_use]
    pub fn u32_array<const N: usize>(&self, capacity: usize) -> ScratchArray<'_, u32, N> {
        let mut array = ScratchArray {
            pool: &self.u32s,
            bufs: std::array::from_fn(|_| self.u32s.pop()),
        };
        for buf in array.iter_mut() {
            buf.reserve(capacity);
        }
        array
    }

    /// Leases an empty `usize` buffer with at least `capacity` slots.
    #[must_use]
    pub fn usizes(&self, capacity: usize) -> ScratchVec<'_, usize> {
        lease(&self.usizes, capacity)
    }

    /// Leases an empty `(f64, f64)` buffer with at least `capacity`
    /// slots (latency/fill pairs, or the DP's cached duplication/latency
    /// pairs).
    #[must_use]
    pub fn pairs(&self, capacity: usize) -> ScratchVec<'_, (f64, f64)> {
        lease(&self.pairs, capacity)
    }

    /// Bytes of the longest lease of each element kind returned since the
    /// last [`Self::reset_peak`] (or arena creation), summed over the
    /// four kinds — see the [module docs](self).
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        (self.f64s.peak_bytes()
            + self.u32s.peak_bytes()
            + self.usizes.peak_bytes()
            + self.pairs.peak_bytes()) as u64
    }

    /// Forgets the leases returned so far.
    pub fn reset_peak(&self) {
        self.f64s.peak_len.set(0);
        self.u32s.peak_len.set(0);
        self.usizes.peak_len.set(0);
        self.pairs.peak_len.set(0);
    }
}

fn lease<T>(pool: &FreeList<T>, capacity: usize) -> ScratchVec<'_, T> {
    let mut buf = pool.pop();
    buf.reserve(capacity);
    ScratchVec { pool, buf }
}

/// A leased scratch buffer: dereferences to `Vec<T>`, returns to its
/// arena's pool (capacity intact) on drop.
#[derive(Debug)]
pub struct ScratchVec<'a, T> {
    pool: &'a FreeList<T>,
    buf: Vec<T>,
}

impl<T> Deref for ScratchVec<'_, T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T> DerefMut for ScratchVec<'_, T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T> Drop for ScratchVec<'_, T> {
    fn drop(&mut self) {
        self.pool.give_back(std::mem::take(&mut self.buf));
    }
}

/// `N` leased scratch buffers of one kind: dereferences to `[Vec<T>; N]`,
/// and all of them return to their arena's pool (capacity intact) on drop.
#[derive(Debug)]
pub struct ScratchArray<'a, T, const N: usize> {
    pool: &'a FreeList<T>,
    bufs: [Vec<T>; N],
}

impl<T, const N: usize> Deref for ScratchArray<'_, T, N> {
    type Target = [Vec<T>; N];
    fn deref(&self) -> &[Vec<T>; N] {
        &self.bufs
    }
}

impl<T, const N: usize> DerefMut for ScratchArray<'_, T, N> {
    fn deref_mut(&mut self) -> &mut [Vec<T>; N] {
        &mut self.bufs
    }
}

impl<T, const N: usize> Drop for ScratchArray<'_, T, N> {
    fn drop(&mut self) {
        for buf in &mut self.bufs {
            self.pool.give_back(std::mem::take(buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled_across_leases() {
        let arena = ScratchArena::new();
        let ptr = {
            let mut v = arena.f64s(128);
            v.extend(std::iter::repeat_n(1.0, 100));
            v.as_ptr()
        };
        // The returned buffer (capacity >= 128) is reused by the next lease.
        let v2 = arena.f64s(64);
        assert_eq!(v2.as_ptr(), ptr);
        assert!(v2.is_empty());
        assert!(v2.capacity() >= 128);
    }

    #[test]
    fn peak_is_the_longest_lease_of_each_kind() {
        let arena = ScratchArena::new();
        {
            let mut a = arena.f64s(100);
            a.resize(7, 0.0);
            let mut b = arena.u32s(50);
            b.resize(3, 0);
            // Nothing is counted until a lease comes back.
            assert_eq!(arena.peak_bytes(), 0);
        }
        // Lengths, not the 100- and 50-slot capacities.
        assert_eq!(arena.peak_bytes(), 7 * 8 + 3 * 4);
        // A shorter lease of a kind does not lower it; a longer one raises it.
        arena.f64s(0).resize(2, 0.0);
        assert_eq!(arena.peak_bytes(), 7 * 8 + 3 * 4);
        arena.pairs(0).resize(10_000, (0.0, 0.0));
        assert_eq!(arena.peak_bytes(), 7 * 8 + 3 * 4 + 10_000 * 16);
        arena.reset_peak();
        assert_eq!(arena.peak_bytes(), 0);
        arena.usizes(10).push(1);
        assert_eq!(arena.peak_bytes(), std::mem::size_of::<usize>() as u64);
    }

    #[test]
    fn an_array_lease_recycles_and_counts_like_single_leases() {
        let arena = ScratchArena::new();
        let ptrs = {
            let mut bufs = arena.u32_array::<3>(16);
            bufs[0].resize(5, 0);
            bufs[2].resize(9, 0);
            bufs.each_ref().map(|b| b.as_ptr())
        };
        assert_eq!(arena.peak_bytes(), 9 * 4);
        // The three buffers are back in the pool: single leases reuse them.
        let (a, b, c) = (arena.u32s(1), arena.u32s(1), arena.u32s(1));
        let mut reused = [a.as_ptr(), b.as_ptr(), c.as_ptr()];
        let mut leased = ptrs;
        reused.sort();
        leased.sort();
        assert_eq!(reused, leased);
        assert!(a.is_empty() && a.capacity() >= 16);
    }

    #[test]
    fn a_panic_while_leasing_still_returns_and_recycles() {
        let arena = ScratchArena::new();
        drop(arena.f64s(64));
        drop(arena.u32_array::<2>(64));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut f64s = arena.f64s(8);
            let mut u32s = arena.u32_array::<2>(8);
            f64s.push(1.0);
            u32s[1].push(1);
            panic!("a pass failed mid-lease");
        }));
        assert!(panicked.is_err());
        // Unwinding returned every buffer: each lease gets a spare back (a
        // fresh buffer would hold only the 8 slots asked for), and each
        // return goes back to the list.
        for _ in 0..2 {
            let v = arena.f64s(8);
            assert!(v.is_empty() && v.capacity() >= 64);
            let bufs = arena.u32_array::<2>(8);
            assert!(bufs.iter().all(|b| b.is_empty() && b.capacity() >= 64));
        }
        assert_eq!(arena.peak_bytes(), 8 + 4);
    }
}
