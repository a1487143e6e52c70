//! Deterministic synthesis of weights and inputs.
//!
//! The paper evaluates latency and power — never accuracy — so tensor
//! *values* only need to be realistic in shape and deterministic so the
//! functional simulator and the reference executor agree. Values derive
//! from the FNV-1a64 hash of the tensor
//! name (the compile cache's [`fnv1a`] step) mixed with the element
//! index: small signed integers for weights, small unsigned for
//! activations.

use cim_compiler::cache::{fnv1a, FNV_OFFSET};
use cim_mop::{MatId, MopFlow};
use std::collections::HashMap;

/// A synthesized weight matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    /// Row count.
    pub rows: u32,
    /// Column count.
    pub cols: u32,
    data: Vec<i64>,
}

impl Matrix {
    /// Element at `(row, col)`.
    ///
    /// # Panics
    /// Panics when out of range.
    #[must_use]
    pub fn at(&self, row: u32, col: u32) -> i64 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of range"
        );
        self.data[row as usize * self.cols as usize + col as usize]
    }

    /// The backing row-major data.
    #[must_use]
    pub fn data(&self) -> &[i64] {
        &self.data
    }
}

fn fnv(name: &str) -> u64 {
    name.bytes().fold(FNV_OFFSET, |h, b| fnv1a(h, u64::from(b)))
}

fn mix(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Synthesizes the weight matrix named `name` (small signed values in
/// `[-8, 7]`).
#[must_use]
pub fn synth_matrix(name: &str, rows: u32, cols: u32) -> Matrix {
    let seed = fnv(name);
    let n = rows as usize * cols as usize;
    let data = (0..n)
        .map(|i| (mix(seed, i as u64) % 16) as i64 - 8)
        .collect();
    Matrix { rows, cols, data }
}

/// Synthesizes an activation tensor named `name` (small unsigned values in
/// `[0, 15]`).
#[must_use]
pub fn synth_input(name: &str, len: u64) -> Vec<i64> {
    let seed = fnv(name).wrapping_add(0x5151);
    (0..len).map(|i| (mix(seed, i) % 16) as i64).collect()
}

/// All weight matrices a flow references, synthesized from its
/// declarations.
#[derive(Debug, Clone, Default)]
pub struct WeightStore {
    mats: HashMap<MatId, Matrix>,
}

impl WeightStore {
    /// Synthesizes matrices for every declaration of `flow`.
    #[must_use]
    pub fn for_flow(flow: &MopFlow) -> Self {
        let mats = flow
            .mats()
            .iter()
            .map(|d| (d.id, synth_matrix(&d.name, d.rows, d.cols)))
            .collect();
        WeightStore { mats }
    }

    /// Looks up a matrix.
    #[must_use]
    pub fn mat(&self, id: MatId) -> Option<&Matrix> {
        self.mats.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_hash_with_standard_fnv1a64() {
        assert_eq!(fnv(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synth_matrix("conv1", 4, 4);
        let b = synth_matrix("conv1", 4, 4);
        assert_eq!(a, b);
        let c = synth_matrix("conv2", 4, 4);
        assert_ne!(a.data(), c.data());
        assert_eq!(synth_input("x", 16), synth_input("x", 16));
    }

    #[test]
    fn values_are_small() {
        let m = synth_matrix("w", 16, 16);
        assert!(m.data().iter().all(|&v| (-8..=7).contains(&v)));
        let x = synth_input("x", 256);
        assert!(x.iter().all(|&v| (0..=15).contains(&v)));
        // and not constant
        assert!(m.data().iter().any(|&v| v != m.data()[0]));
    }

    #[test]
    fn store_covers_flow_declarations() {
        let mut flow = MopFlow::new("t");
        let a = flow.declare_mat(3, 5, "alpha");
        let store = WeightStore::for_flow(&flow);
        let m = store.mat(a).unwrap();
        assert_eq!((m.rows, m.cols), (3, 5));
        assert_eq!(m.at(2, 4), synth_matrix("alpha", 3, 5).at(2, 4));
        assert!(store.mat(MatId(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn matrix_bounds_checked() {
        let _ = synth_matrix("w", 2, 2).at(2, 0);
    }
}
