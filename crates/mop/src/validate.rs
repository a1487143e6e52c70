//! Flow validation against a concrete architecture.

use crate::{MatId, MetaOp, MopFlow, XbAddr};
use cim_arch::{CimArchitecture, ComputingMode};
use std::error::Error;
use std::fmt;

/// Error produced when a flow references hardware or weights that do not
/// exist, or uses meta-operators finer than the target's computing mode
/// allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A core index is out of range.
    BadCore {
        /// The offending index.
        core: u32,
        /// Available cores.
        core_count: u32,
    },
    /// A crossbar address is out of range.
    BadXb {
        /// The offending address.
        xb: XbAddr,
        /// Crossbars per core.
        xb_count: u32,
    },
    /// A wordline/column region exceeds the crossbar shape.
    BadRegion {
        /// The offending address.
        xb: XbAddr,
        /// Description of the violation.
        message: String,
    },
    /// A weight matrix id is not declared by the flow.
    UnknownMat {
        /// The dangling id.
        mat: MatId,
    },
    /// A weight-matrix slice exceeds the declaration.
    BadMatSlice {
        /// The referenced matrix.
        mat: MatId,
        /// Description of the violation.
        message: String,
    },
    /// A row activation engages more wordlines than `parallel_row`.
    TooManyRows {
        /// The offending address.
        xb: XbAddr,
        /// Rows requested.
        rows: u32,
        /// Hardware limit.
        parallel_row: u32,
    },
    /// The meta-operator requires a finer computing mode than the target
    /// exposes (e.g. `cim.readrow` on an XBM machine).
    ModeViolation {
        /// The required minimum mode.
        required: ComputingMode,
        /// What the target exposes.
        exposed: ComputingMode,
    },
    /// The flow is keep-bounded and dropped statements, so it is not the
    /// whole program.
    Truncated {
        /// Statements the flow stores.
        kept: usize,
        /// Statements pushed into it.
        pushed: usize,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadCore { core, core_count } => {
                write!(f, "core {core} out of range (chip has {core_count} cores)")
            }
            ValidateError::BadXb { xb, xb_count } => {
                write!(f, "{xb} out of range (cores have {xb_count} crossbars)")
            }
            ValidateError::BadRegion { xb, message } => {
                write!(f, "bad region on {xb}: {message}")
            }
            ValidateError::UnknownMat { mat } => write!(f, "undeclared weight matrix {mat}"),
            ValidateError::BadMatSlice { mat, message } => {
                write!(f, "bad slice of {mat}: {message}")
            }
            ValidateError::TooManyRows {
                xb,
                rows,
                parallel_row,
            } => write!(
                f,
                "{xb}: {rows} rows activated at once but parallel_row is {parallel_row}"
            ),
            ValidateError::ModeViolation { required, exposed } => write!(
                f,
                "meta-operator requires mode {required} but the target exposes {exposed}"
            ),
            ValidateError::Truncated { kept, pushed } => write!(
                f,
                "the flow keeps {kept} of its {pushed} statements and cannot be validated"
            ),
        }
    }
}

impl Error for ValidateError {}

impl MopFlow {
    /// Validates every meta-operator against the target architecture:
    /// addresses in range, regions within crossbar shapes, weight slices
    /// within declarations, row activations within `parallel_row`, and the
    /// operator granularity allowed by the computing mode.
    ///
    /// # Errors
    /// Returns [`ValidateError::Truncated`] for a keep-bounded flow that
    /// dropped statements (see [`MopFlow::bounded`]), otherwise the first
    /// [`ValidateError`] encountered, in flow order.
    pub fn validate(&self, arch: &CimArchitecture) -> Result<(), ValidateError> {
        if !self.is_complete() {
            return Err(ValidateError::Truncated {
                kept: self.stmts().len(),
                pushed: self.pushed(),
            });
        }
        let core_count = arch.chip().core_count();
        let xb_count = arch.core().xb_count();
        let shape = arch.crossbar().shape();
        let parallel_row = arch.crossbar().parallel_row();
        let mode = arch.mode();

        let check_core = |core: u32| {
            if core >= core_count {
                Err(ValidateError::BadCore { core, core_count })
            } else {
                Ok(())
            }
        };
        let check_xb = |xb: XbAddr| {
            check_core(xb.core)?;
            if xb.xb >= xb_count {
                Err(ValidateError::BadXb { xb, xb_count })
            } else {
                Ok(())
            }
        };
        let check_region = |xb: XbAddr, row0: u32, rows: u32, col0: u32, cols: u32| {
            if row0 + rows > shape.rows {
                return Err(ValidateError::BadRegion {
                    xb,
                    message: format!(
                        "rows {row0}..{} exceed crossbar height {}",
                        row0 + rows,
                        shape.rows
                    ),
                });
            }
            if col0 + cols > shape.cols {
                return Err(ValidateError::BadRegion {
                    xb,
                    message: format!(
                        "cols {col0}..{} exceed crossbar width {}",
                        col0 + cols,
                        shape.cols
                    ),
                });
            }
            Ok(())
        };
        let check_mat = |mat: MatId, row0: u32, rows: u32, col0: u32, cols: u32| {
            let decl = self.mat(mat).ok_or(ValidateError::UnknownMat { mat })?;
            if row0 + rows > decl.rows || col0 + cols > decl.cols {
                return Err(ValidateError::BadMatSlice {
                    mat,
                    message: format!(
                        "slice [{row0}:{}, {col0}:{}] exceeds declaration [{} x {}]",
                        row0 + rows,
                        col0 + cols,
                        decl.rows,
                        decl.cols
                    ),
                });
            }
            Ok(())
        };
        let check_mode = |required: ComputingMode| {
            if mode.supports(required) {
                Ok(())
            } else {
                Err(ValidateError::ModeViolation {
                    required,
                    exposed: mode,
                })
            }
        };

        for op in self.iter_ops() {
            match op {
                MetaOp::ReadCore { core, weights, .. } => {
                    check_mode(ComputingMode::Cm)?;
                    check_core(*core)?;
                    check_mat(*weights, 0, 0, 0, 0)?;
                }
                MetaOp::WriteXb {
                    xb,
                    weights,
                    src_row,
                    src_col,
                    dst_row,
                    dst_col,
                    rows,
                    cols,
                } => {
                    check_mode(ComputingMode::Xbm)?;
                    check_xb(*xb)?;
                    check_region(*xb, *dst_row, *rows, *dst_col, *cols)?;
                    check_mat(*weights, *src_row, *rows, *src_col, *cols)?;
                }
                MetaOp::ReadXb {
                    xb,
                    row_start,
                    rows,
                    col_start,
                    cols,
                    ..
                } => {
                    check_mode(ComputingMode::Xbm)?;
                    check_xb(*xb)?;
                    check_region(*xb, *row_start, *rows, *col_start, *cols)?;
                }
                MetaOp::WriteRow {
                    xb,
                    row,
                    weights,
                    src_row,
                    src_col,
                    dst_col,
                    cols,
                } => {
                    check_mode(ComputingMode::Wlm)?;
                    check_xb(*xb)?;
                    check_region(*xb, *row, 1, *dst_col, *cols)?;
                    check_mat(*weights, *src_row, 1, *src_col, *cols)?;
                }
                MetaOp::ReadRow {
                    xb,
                    row_start,
                    rows,
                    col_start,
                    cols,
                    ..
                } => {
                    check_mode(ComputingMode::Wlm)?;
                    check_xb(*xb)?;
                    check_region(*xb, *row_start, *rows, *col_start, *cols)?;
                    if *rows > parallel_row {
                        return Err(ValidateError::TooManyRows {
                            xb: *xb,
                            rows: *rows,
                            parallel_row,
                        });
                    }
                }
                MetaOp::Dcom { .. } | MetaOp::Mov { .. } => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufRef, MopFlow};
    use cim_arch::presets;

    fn read_xb(core: u32, xb: u32, rows: u32) -> MetaOp {
        MetaOp::ReadXb {
            xb: XbAddr::new(core, xb),
            row_start: 0,
            rows,
            col_start: 0,
            cols: 4,
            src: BufRef::l1(core, 0),
            dst: BufRef::l1(core, 64),
            accumulate: false,
        }
    }

    #[test]
    fn valid_flow_passes() {
        let arch = presets::isaac_baseline();
        let mut flow = MopFlow::new("ok");
        let w = flow.declare_mat(128, 16, "w");
        flow.push(MetaOp::WriteXb {
            xb: XbAddr::new(0, 0),
            weights: w,
            src_row: 0,
            src_col: 0,
            dst_row: 0,
            dst_col: 0,
            rows: 128,
            cols: 16,
        });
        flow.push(read_xb(0, 0, 128));
        assert_eq!(flow.validate(&arch), Ok(()));
    }

    #[test]
    fn bad_core_rejected() {
        let arch = presets::table2_example(); // 2 cores
        let mut flow = MopFlow::new("bad");
        flow.push(read_xb(2, 0, 8));
        assert!(matches!(
            flow.validate(&arch),
            Err(ValidateError::BadCore { core: 2, .. })
        ));
    }

    #[test]
    fn bad_xb_rejected() {
        let arch = presets::table2_example(); // 2 xbs per core
        let mut flow = MopFlow::new("bad");
        flow.push(read_xb(0, 5, 8));
        assert!(matches!(
            flow.validate(&arch),
            Err(ValidateError::BadXb { .. })
        ));
    }

    #[test]
    fn region_overflow_rejected() {
        let arch = presets::table2_example(); // 32x128 crossbars
        let mut flow = MopFlow::new("bad");
        flow.push(read_xb(0, 0, 64)); // 64 > 32 rows
        assert!(matches!(
            flow.validate(&arch),
            Err(ValidateError::BadRegion { .. })
        ));
    }

    #[test]
    fn undeclared_matrix_rejected() {
        let arch = presets::isaac_baseline();
        let mut flow = MopFlow::new("bad");
        flow.push(MetaOp::WriteXb {
            xb: XbAddr::new(0, 0),
            weights: MatId(3),
            src_row: 0,
            src_col: 0,
            dst_row: 0,
            dst_col: 0,
            rows: 1,
            cols: 1,
        });
        assert!(matches!(
            flow.validate(&arch),
            Err(ValidateError::UnknownMat { .. })
        ));
    }

    #[test]
    fn mat_slice_overflow_rejected() {
        let arch = presets::isaac_baseline();
        let mut flow = MopFlow::new("bad");
        let w = flow.declare_mat(8, 8, "w");
        flow.push(MetaOp::WriteXb {
            xb: XbAddr::new(0, 0),
            weights: w,
            src_row: 4,
            src_col: 0,
            dst_row: 0,
            dst_col: 0,
            rows: 8, // 4 + 8 > 8 declared rows
            cols: 8,
        });
        assert!(matches!(
            flow.validate(&arch),
            Err(ValidateError::BadMatSlice { .. })
        ));
    }

    #[test]
    fn parallel_row_limit_enforced() {
        let arch = presets::jain_sram(); // parallel_row = 32
        let mut flow = MopFlow::new("bad");
        flow.push(MetaOp::ReadRow {
            xb: XbAddr::new(0, 0),
            row_start: 0,
            rows: 64,
            col_start: 0,
            cols: 4,
            src: BufRef::l1(0, 0),
            dst: BufRef::l1(0, 64),
            accumulate: false,
        });
        assert!(matches!(
            flow.validate(&arch),
            Err(ValidateError::TooManyRows {
                rows: 64,
                parallel_row: 32,
                ..
            })
        ));
    }

    #[test]
    fn truncated_flow_rejected() {
        let arch = presets::isaac_baseline();
        let mut flow = MopFlow::bounded("head", 1);
        flow.push(read_xb(0, 0, 8));
        assert_eq!(flow.validate(&arch), Ok(()), "nothing dropped yet");
        flow.push(read_xb(0, 1, 8));
        let err = flow.validate(&arch).unwrap_err();
        assert_eq!(err, ValidateError::Truncated { kept: 1, pushed: 2 });
        assert!(err.to_string().contains("keeps 1 of its 2 statements"));
    }

    #[test]
    fn mode_violation_rejected() {
        // readrow on an XBM-only machine
        let arch = presets::isaac_baseline(); // XBM
        let mut flow = MopFlow::new("bad");
        flow.push(MetaOp::ReadRow {
            xb: XbAddr::new(0, 0),
            row_start: 0,
            rows: 8,
            col_start: 0,
            cols: 4,
            src: BufRef::l1(0, 0),
            dst: BufRef::l1(0, 64),
            accumulate: false,
        });
        let err = flow.validate(&arch).unwrap_err();
        assert!(matches!(err, ValidateError::ModeViolation { .. }));
        assert!(err.to_string().contains("WLM"));
        // but fine on the WLM variant
        let wlm = presets::isaac_baseline_wlm();
        let mut ok = MopFlow::new("ok");
        ok.push(MetaOp::ReadRow {
            xb: XbAddr::new(0, 0),
            row_start: 0,
            rows: 8,
            col_start: 0,
            cols: 4,
            src: BufRef::l1(0, 0),
            dst: BufRef::l1(0, 64),
            accumulate: false,
        });
        assert_eq!(ok.validate(&wlm), Ok(()));
    }
}
