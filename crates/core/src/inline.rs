//! Short lists held in place.
//!
//! A schedule is made of many short lists: most segments hold one stage
//! plan, most stages attach two or three digital nodes, and a stage's name
//! is a dozen bytes. As `Vec`s and `String`s each is a heap block of its
//! own, so a compiled artifact with `n` stages was about `4n` blocks, which
//! every decode of a cached entry allocates and every drop frees one by
//! one. An [`InlineVec`] keeps up to `N` items inside itself and puts only
//! a longer list on the heap.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` `Copy` items in place, a longer list on the heap.
///
/// It dereferences to a slice, and its `Debug` and `PartialEq` are the
/// slice's, so it prints and compares exactly like the `Vec` it stands in
/// for. Build one with `collect()` or from a slice.
#[derive(Clone)]
pub struct InlineVec<T: Copy, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T: Copy, const N: usize> {
    /// `1..=N` items; the slots from `len` on repeat the first.
    Inline { len: u8, items: [T; N] },
    /// No items (an empty box allocates nothing), or more than `N`.
    Heap(Box<[T]>),
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// The in-place capacity must fit the `u8` length and hold an item.
    const CAPACITY_OK: () = assert!(N >= 1 && N <= u8::MAX as usize);

    /// An empty list.
    #[must_use]
    pub fn new() -> Self {
        InlineVec(Repr::Heap(Box::default()))
    }

    /// The items.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Heap(items) => items,
        }
    }

    /// The items, mutably.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Heap(items) => items,
        }
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(items: &[T]) -> Self {
        let () = Self::CAPACITY_OK;
        match items {
            [] => Self::new(),
            [first, ..] if items.len() <= N => {
                let mut inline = [*first; N];
                inline[..items.len()].copy_from_slice(items);
                InlineVec(Repr::Inline {
                    len: items.len() as u8,
                    items: inline,
                })
            }
            _ => InlineVec(Repr::Heap(items.into())),
        }
    }
}

impl<T: Copy, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    /// A longer list keeps its heap block, shrunk to its length.
    fn from(items: Vec<T>) -> Self {
        if items.len() <= N {
            Self::from(items.as_slice())
        } else {
            InlineVec(Repr::Heap(items.into_boxed_slice()))
        }
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let () = Self::CAPACITY_OK;
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Self::new();
        };
        let mut items = [first; N];
        let mut len = 1;
        for item in iter.by_ref() {
            if len == N {
                let mut heap = Vec::with_capacity(N + 1 + iter.size_hint().0);
                heap.extend_from_slice(&items);
                heap.push(item);
                heap.extend(iter);
                return InlineVec(Repr::Heap(heap.into_boxed_slice()));
            }
            items[len] = item;
            len += 1;
        }
        InlineVec(Repr::Inline {
            len: len as u8,
            items,
        })
    }
}

impl<T: Copy, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a mut InlineVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for InlineVec<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_lists_stay_in_place_and_long_ones_spill_to_the_heap() {
        for n in 0..=6 {
            let items: Vec<u32> = (10..10 + n).collect();
            let collected: InlineVec<u32, 3> = items.iter().copied().collect();
            let copied = InlineVec::<u32, 3>::from(items.as_slice());
            let moved = InlineVec::<u32, 3>::from(items.clone());
            for list in [&collected, &copied, &moved] {
                assert_eq!(list.as_slice(), items.as_slice());
                assert_eq!(format!("{list:?}"), format!("{items:?}"));
                let in_place = matches!(list.0, Repr::Inline { .. });
                assert_eq!(in_place, (1..=3).contains(&n), "{n} items");
            }
            assert_eq!(collected, copied);
            assert_eq!(collected, moved);
        }
    }

    #[test]
    fn items_are_mutable_in_place_and_compare_by_content() {
        let mut list: InlineVec<u32, 2> = [1, 2].into_iter().collect();
        for item in &mut list {
            *item *= 10;
        }
        assert_eq!(list.as_slice(), &[10, 20]);
        assert_ne!(list, InlineVec::from(&[10u32][..]));
        assert_eq!(InlineVec::<u32, 2>::new(), InlineVec::default());
        assert!(InlineVec::<u32, 2>::new().is_empty());
    }
}
