//! The searchable architecture space: axes, bounds, points.
//!
//! A [`DesignSpace`] names a base preset and, per mutable axis, the
//! candidate values a search may pick — the paper's `Abs-arch`
//! parameterization (crossbar geometry, tier fan-outs, device bit-width,
//! converter resolution) plus the scheduling-depth axis the sweep driver
//! already exposes. A [`DesignPoint`] is one concrete choice per axis;
//! [`DesignPoint::realize`] turns it into a buildable
//! [`CimArchitecture`] by mutating the base preset through
//! [`CimArchitectureBuilder`](cim_arch::CimArchitectureBuilder) and the
//! crossbar-tier `with_*` helpers.
//!
//! Axis values are explicit lists (not ranges): grids, neighborhoods and
//! crossover all become index arithmetic, and a JSON space file states
//! exactly what will be explored.

use cim_arch::{presets, ArchError, CimArchitecture, XbShape};
use cim_compiler::OptLevel;
use serde::{Deserialize, Serialize};

/// Number of axes of a [`DesignSpace`] / coordinates of a point.
pub const NUM_AXES: usize = 7;

/// Stable axis names, in coordinate order.
pub const AXIS_NAMES: [&str; NUM_AXES] = [
    "xb_rows",
    "xb_cols",
    "xb_per_core",
    "cores",
    "cell_bits",
    "adc_bits",
    "mode",
];

/// Hard validation bounds per numeric axis: `(name, min, max)`.
/// Values outside these are rejected by [`DesignSpace::validate`]
/// regardless of what the base preset would accept, keeping runaway
/// space files from requesting nonsensical hardware.
pub const AXIS_BOUNDS: [(&str, u32, u32); 6] = [
    ("xb_rows", 1, 8192),
    ("xb_cols", 1, 8192),
    ("xb_per_core", 1, 4096),
    ("cores", 1, 1_048_576),
    ("cell_bits", 1, 16),
    ("adc_bits", 1, 32),
];

/// One concrete architecture + scheduling choice: a coordinate per axis
/// of the enclosing [`DesignSpace`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Crossbar wordlines (`xb_size` rows).
    pub xb_rows: u32,
    /// Crossbar bitlines (`xb_size` cols).
    pub xb_cols: u32,
    /// Crossbars (macros) per core (`xb_number`).
    pub xb_per_core: u32,
    /// Cores on the chip (`core_number`).
    pub cores: u32,
    /// Bits stored per memory cell (`Precision`).
    pub cell_bits: u32,
    /// ADC resolution in bits.
    pub adc_bits: u32,
    /// Scheduling depth the candidate is compiled at.
    pub mode: OptLevel,
}

impl DesignPoint {
    /// Stable identifier of this point — the dedup/memoization key of an
    /// exploration and the label reports render.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "r{}x{}-xb{}-c{}-b{}-a{}#{}",
            self.xb_rows,
            self.xb_cols,
            self.xb_per_core,
            self.cores,
            self.cell_bits,
            self.adc_bits,
            self.mode.name()
        )
    }

    /// Builds the concrete architecture this point describes by mutating
    /// `base` (NoCs, buffers, DAC, cell technology and computing mode are
    /// inherited; `parallel_row` is clamped to the new row count). The
    /// cost model is re-derived from the mutated crossbar tier via
    /// [`CimArchitectureBuilder::build`](cim_arch::CimArchitectureBuilder::build).
    ///
    /// # Errors
    /// Propagates tier validation errors (a point can be structurally
    /// valid for the space yet unbuildable on a particular base, e.g. an
    /// ADC resolution the cost model rejects).
    pub fn realize(&self, base: &CimArchitecture) -> Result<CimArchitecture, ArchError> {
        let resized = base
            .with_core_count(self.cores)?
            .with_xb_count(self.xb_per_core)?;
        let crossbar = resized
            .crossbar()
            .with_shape(XbShape::new(self.xb_rows, self.xb_cols)?)?
            .with_adc_bits(self.adc_bits)?
            .with_cell_bits(self.cell_bits)?;
        resized.to_builder().crossbar(crossbar).build()
    }
}

/// Why a [`DesignSpace`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// `base` is not a known architecture preset.
    UnknownBase(String),
    /// An axis has no candidate values.
    EmptyAxis(&'static str),
    /// An axis lists the same value twice.
    DuplicateValue {
        /// Axis name.
        axis: &'static str,
        /// The repeated value.
        value: String,
    },
    /// A value is outside the axis's hard bounds ([`AXIS_BOUNDS`]).
    OutOfBounds {
        /// Axis name.
        axis: &'static str,
        /// The offending value.
        value: u32,
        /// Inclusive lower bound.
        min: u32,
        /// Inclusive upper bound.
        max: u32,
    },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::UnknownBase(name) => write!(
                f,
                "unknown base preset `{name}` (known: {})",
                presets::NAMES.join(", ")
            ),
            SpaceError::EmptyAxis(axis) => write!(f, "design space axis `{axis}` has no values"),
            SpaceError::DuplicateValue { axis, value } => {
                write!(f, "design space axis `{axis}` lists `{value}` twice")
            }
            SpaceError::OutOfBounds {
                axis,
                value,
                min,
                max,
            } => write!(
                f,
                "design space axis `{axis}` value `{value}` is outside {min}..={max}"
            ),
        }
    }
}

impl std::error::Error for SpaceError {}

/// The searchable space: a base preset plus candidate values per axis.
///
/// Serializes to/from JSON (`cimc explore --space <file.json>`); see
/// [`DesignSpace::default_space`] for the committed default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpace {
    /// Architecture preset every candidate starts from
    /// ([`presets::NAMES`]).
    pub base: String,
    /// Candidate crossbar row counts.
    pub xb_rows: Vec<u32>,
    /// Candidate crossbar column counts.
    pub xb_cols: Vec<u32>,
    /// Candidate crossbars-per-core counts.
    pub xb_per_core: Vec<u32>,
    /// Candidate chip core counts.
    pub cores: Vec<u32>,
    /// Candidate per-cell precisions.
    pub cell_bits: Vec<u32>,
    /// Candidate ADC resolutions.
    pub adc_bits: Vec<u32>,
    /// Candidate scheduling modes.
    pub modes: Vec<OptLevel>,
}

impl DesignSpace {
    /// The committed default space around the paper's WLM-exposed
    /// Table 3 baseline: 3 × 3 × 4 × 3 × 3 × 3 × 4 = 3888 points
    /// spanning the Figure 22 sensitivity axes plus device precision,
    /// ADC resolution and scheduling depth.
    #[must_use]
    pub fn default_space() -> Self {
        DesignSpace {
            base: "isaac-wlm".to_owned(),
            xb_rows: vec![64, 128, 256],
            xb_cols: vec![64, 128, 256],
            xb_per_core: vec![4, 8, 16, 32],
            cores: vec![192, 384, 768],
            cell_bits: vec![1, 2, 4],
            adc_bits: vec![4, 6, 8],
            modes: OptLevel::ALL.to_vec(),
        }
    }

    fn numeric_axes(&self) -> [(&'static str, &Vec<u32>); 6] {
        [
            ("xb_rows", &self.xb_rows),
            ("xb_cols", &self.xb_cols),
            ("xb_per_core", &self.xb_per_core),
            ("cores", &self.cores),
            ("cell_bits", &self.cell_bits),
            ("adc_bits", &self.adc_bits),
        ]
    }

    /// Checks the base resolves and every axis is non-empty, duplicate
    /// free and within its hard bounds.
    ///
    /// # Errors
    /// Returns the first failing [`SpaceError`], naming the offending
    /// axis and value.
    pub fn validate(&self) -> Result<(), SpaceError> {
        if presets::by_name(&self.base).is_none() {
            return Err(SpaceError::UnknownBase(self.base.clone()));
        }
        for ((axis, values), (_, min, max)) in self.numeric_axes().into_iter().zip(AXIS_BOUNDS) {
            if values.is_empty() {
                return Err(SpaceError::EmptyAxis(axis));
            }
            for (i, &v) in values.iter().enumerate() {
                if !(min..=max).contains(&v) {
                    return Err(SpaceError::OutOfBounds {
                        axis,
                        value: v,
                        min,
                        max,
                    });
                }
                if values[..i].contains(&v) {
                    return Err(SpaceError::DuplicateValue {
                        axis,
                        value: v.to_string(),
                    });
                }
            }
        }
        if self.modes.is_empty() {
            return Err(SpaceError::EmptyAxis("mode"));
        }
        for (i, m) in self.modes.iter().enumerate() {
            if self.modes[..i].contains(m) {
                return Err(SpaceError::DuplicateValue {
                    axis: "mode",
                    value: m.name().to_owned(),
                });
            }
        }
        Ok(())
    }

    /// The base preset every candidate mutates.
    ///
    /// # Panics
    /// Panics if the space was not validated (`base` unknown).
    #[must_use]
    pub fn base_arch(&self) -> CimArchitecture {
        presets::by_name(&self.base).expect("space validated")
    }

    /// Number of candidate values along axis `axis` (coordinate order of
    /// [`AXIS_NAMES`]).
    ///
    /// # Panics
    /// Panics if `axis >= NUM_AXES`.
    #[must_use]
    pub fn cardinality(&self, axis: usize) -> usize {
        match axis {
            0 => self.xb_rows.len(),
            1 => self.xb_cols.len(),
            2 => self.xb_per_core.len(),
            3 => self.cores.len(),
            4 => self.cell_bits.len(),
            5 => self.adc_bits.len(),
            6 => self.modes.len(),
            _ => panic!("axis {axis} out of range (NUM_AXES = {NUM_AXES})"),
        }
    }

    /// Total number of points in the space (product of cardinalities,
    /// saturating at `u64::MAX`).
    #[must_use]
    pub fn size(&self) -> u64 {
        (0..NUM_AXES).fold(1u64, |acc, axis| {
            acc.saturating_mul(self.cardinality(axis) as u64)
        })
    }

    /// The point at coordinates `coords` (one index per axis).
    ///
    /// # Panics
    /// Panics if a coordinate is out of range for its axis.
    #[must_use]
    pub fn point(&self, coords: &[usize; NUM_AXES]) -> DesignPoint {
        DesignPoint {
            xb_rows: self.xb_rows[coords[0]],
            xb_cols: self.xb_cols[coords[1]],
            xb_per_core: self.xb_per_core[coords[2]],
            cores: self.cores[coords[3]],
            cell_bits: self.cell_bits[coords[4]],
            adc_bits: self.adc_bits[coords[5]],
            mode: self.modes[coords[6]],
        }
    }

    /// Coordinates of the point at lexicographic index `index`
    /// (axis 0 most significant — the [`Exhaustive`](crate::Exhaustive)
    /// enumeration order).
    ///
    /// # Panics
    /// Panics if `index >= self.size()`.
    #[must_use]
    pub fn coords_at(&self, index: u64) -> [usize; NUM_AXES] {
        assert!(index < self.size(), "index {index} out of range");
        let mut coords = [0usize; NUM_AXES];
        let mut rest = index;
        for axis in (0..NUM_AXES).rev() {
            let card = self.cardinality(axis) as u64;
            coords[axis] = usize::try_from(rest % card).expect("cardinality fits usize");
            rest /= card;
        }
        coords
    }

    /// Coordinates whose values are closest to the base preset's own
    /// axis values (ties to the smaller value; the mode coordinate
    /// starts at the first listed mode) — the deterministic starting
    /// point of local searches.
    #[must_use]
    pub fn start_coords(&self) -> [usize; NUM_AXES] {
        let base = self.base_arch();
        let target = [
            base.axis("xb_rows").unwrap_or(0),
            base.axis("xb_cols").unwrap_or(0),
            base.axis("xb_number").unwrap_or(0),
            base.axis("core_number").unwrap_or(0),
            base.axis("cell_bits").unwrap_or(0),
            base.axis("adc_bits").unwrap_or(0),
        ];
        let mut coords = [0usize; NUM_AXES];
        for (axis, (_, values)) in self.numeric_axes().into_iter().enumerate() {
            coords[axis] = values
                .iter()
                .enumerate()
                .min_by_key(|(_, &v)| (u64::from(v).abs_diff(target[axis]), v))
                .map(|(i, _)| i)
                .expect("validated axes are non-empty");
        }
        coords[6] = 0;
        coords
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_validates_and_sizes() {
        let s = DesignSpace::default_space();
        s.validate().unwrap();
        assert_eq!(s.size(), 3 * 3 * 4 * 3 * 3 * 3 * 4);
        assert_eq!(NUM_AXES, AXIS_NAMES.len());
    }

    #[test]
    fn validation_names_the_offender() {
        let mut s = DesignSpace::default_space();
        s.base = "nope".into();
        assert!(s.validate().unwrap_err().to_string().contains("`nope`"));

        let mut s = DesignSpace::default_space();
        s.adc_bits = vec![];
        assert_eq!(s.validate(), Err(SpaceError::EmptyAxis("adc_bits")));

        let mut s = DesignSpace::default_space();
        s.cell_bits = vec![2, 2];
        let msg = s.validate().unwrap_err().to_string();
        assert!(msg.contains("cell_bits") && msg.contains("`2`"), "{msg}");

        let mut s = DesignSpace::default_space();
        s.xb_rows = vec![0];
        let msg = s.validate().unwrap_err().to_string();
        assert!(msg.contains("xb_rows") && msg.contains("`0`"), "{msg}");

        let mut s = DesignSpace::default_space();
        s.modes = vec![OptLevel::Cg, OptLevel::Cg];
        let msg = s.validate().unwrap_err().to_string();
        assert!(msg.contains("mode") && msg.contains("`cg`"), "{msg}");
    }

    #[test]
    fn coords_round_trip_lexicographically() {
        let s = DesignSpace::default_space();
        assert_eq!(s.coords_at(0), [0; NUM_AXES]);
        // Index 1 increments the least-significant (mode) axis.
        assert_eq!(s.coords_at(1), [0, 0, 0, 0, 0, 0, 1]);
        // The last index is the all-max coordinate.
        let last = s.coords_at(s.size() - 1);
        for (axis, &c) in last.iter().enumerate() {
            assert_eq!(c, s.cardinality(axis) - 1, "axis {axis}");
        }
        // Distinct indices give distinct points.
        assert_ne!(s.point(&s.coords_at(17)), s.point(&s.coords_at(18)));
    }

    #[test]
    fn realize_mutates_the_base() {
        let s = DesignSpace::default_space();
        let base = s.base_arch();
        let p = DesignPoint {
            xb_rows: 64,
            xb_cols: 256,
            xb_per_core: 4,
            cores: 192,
            cell_bits: 4,
            adc_bits: 6,
            mode: OptLevel::Auto,
        };
        let arch = p.realize(&base).unwrap();
        assert_eq!(arch.axis("xb_rows"), Some(64));
        assert_eq!(arch.axis("xb_cols"), Some(256));
        assert_eq!(arch.axis("xb_number"), Some(4));
        assert_eq!(arch.axis("core_number"), Some(192));
        assert_eq!(arch.axis("cell_bits"), Some(4));
        assert_eq!(arch.axis("adc_bits"), Some(6));
        // Inherited from the base preset.
        assert_eq!(arch.mode(), base.mode());
        assert_eq!(arch.crossbar().dac_bits(), base.crossbar().dac_bits());
        assert_eq!(arch.crossbar().cell_type(), base.crossbar().cell_type());
        // parallel_row clamps when the crossbar shrinks below it.
        let tiny = DesignPoint { xb_rows: 4, ..p };
        assert_eq!(tiny.realize(&base).unwrap().crossbar().parallel_row(), 4);
    }

    #[test]
    fn start_coords_recover_the_base_preset() {
        let s = DesignSpace::default_space();
        let coords = s.start_coords();
        let p = s.point(&coords);
        // isaac-wlm: 128x128 crossbars, 16 per core, 768 cores, 2-bit
        // cells, 8-bit ADC.
        assert_eq!(
            (
                p.xb_rows,
                p.xb_cols,
                p.xb_per_core,
                p.cores,
                p.cell_bits,
                p.adc_bits
            ),
            (128, 128, 16, 768, 2, 8)
        );
        assert_eq!(p.mode, s.modes[0]);
    }

    #[test]
    fn space_json_round_trips() {
        let s = DesignSpace::default_space();
        let json = serde_json::to_string(&s).unwrap();
        let back: DesignSpace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn point_keys_are_unique_per_point() {
        let s = DesignSpace::default_space();
        let a = s.point(&s.coords_at(0));
        let b = s.point(&s.coords_at(1));
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key(), s.point(&s.coords_at(0)).key());
    }
}
