//! Tensor shapes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A tensor shape: the per-sample extent of a value flowing along a graph
/// edge. Batch dimensions are excluded — the paper's scheduling problem is
/// single-image inference (§4.2 "the internal computation pipeline of a
/// single input image").
///
/// Common layouts:
/// * feature maps: `[C, H, W]` (see [`Shape::chw`]);
/// * token matrices: `[tokens, dim]` (see [`Shape::tokens`]);
/// * flat vectors: `[features]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from explicit dimensions.
    ///
    /// # Panics
    /// Panics if any dimension is zero; zero-extent tensors are never
    /// meaningful in this IR.
    #[must_use]
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        let dims = dims.into();
        assert!(
            !dims.is_empty() && dims.iter().all(|&d| d > 0),
            "shape dimensions must be non-empty and non-zero, got {dims:?}"
        );
        Shape(dims)
    }

    /// `[channels, height, width]` feature-map shape.
    #[must_use]
    pub fn chw(c: usize, h: usize, w: usize) -> Self {
        Shape::new([c, h, w])
    }

    /// `[tokens, dim]` token-matrix shape (transformers).
    #[must_use]
    pub fn tokens(t: usize, d: usize) -> Self {
        Shape::new([t, d])
    }

    /// `[features]` flat vector shape.
    #[must_use]
    pub fn vec(n: usize) -> Self {
        Shape::new([n])
    }

    /// The dimensions as a slice.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements.
    #[must_use]
    pub fn elements(&self) -> u64 {
        self.0.iter().map(|&d| d as u64).product()
    }

    /// The element count of a well-formed shape: `None` when it has no
    /// dimension, a zero one, or more than `u64::MAX` elements. A shape
    /// read from a model file skips [`Shape::new`]'s check, so shape
    /// inference asks this of every shape it returns.
    pub(crate) fn checked_elements(&self) -> Option<u64> {
        if self.0.is_empty() {
            return None;
        }
        self.0.iter().try_fold(1u64, |n, &d| match d {
            0 => None,
            d => n.checked_mul(d as u64),
        })
    }

    /// The last dimension (the "feature" axis for linear layers).
    #[must_use]
    pub fn last(&self) -> usize {
        *self.0.last().expect("shapes are non-empty")
    }

    /// Interprets the shape as `[C, H, W]`.
    ///
    /// Returns `None` for non-rank-3 shapes.
    #[must_use]
    pub fn as_chw(&self) -> Option<(usize, usize, usize)> {
        match *self.0.as_slice() {
            [c, h, w] => Some((c, h, w)),
            _ => None,
        }
    }

    /// Interprets the shape as `[tokens, dim]`.
    ///
    /// Returns `None` for non-rank-2 shapes.
    #[must_use]
    pub fn as_tokens(&self) -> Option<(usize, usize)> {
        match *self.0.as_slice() {
            [t, d] => Some((t, d)),
            _ => None,
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Shape> for Vec<usize> {
    fn from(s: Shape) -> Vec<usize> {
        s.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let s = Shape::chw(3, 32, 32);
        assert_eq!(s.dims(), &[3, 32, 32]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.elements(), 3 * 32 * 32);
        assert_eq!(s.as_chw(), Some((3, 32, 32)));
        assert_eq!(s.as_tokens(), None);
        assert_eq!(Shape::tokens(197, 768).as_tokens(), Some((197, 768)));
        assert_eq!(Shape::vec(10).last(), 10);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Shape::new([1, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_shape_panics() {
        let _ = Shape::new(Vec::new());
    }

    #[test]
    fn display_is_bracketed() {
        assert_eq!(Shape::chw(3, 224, 224).to_string(), "[3, 224, 224]");
        assert_eq!(Shape::vec(1000).to_string(), "[1000]");
    }

    #[test]
    fn serde_round_trip() {
        let s = Shape::tokens(197, 768);
        let j = serde_json::to_string(&s).unwrap();
        let back: Shape = serde_json::from_str(&j).unwrap();
        assert_eq!(back, s);
    }
}
