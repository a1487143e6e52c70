//! # cim-arch — CIM hardware abstraction (Abs-arch + Abs-com)
//!
//! This crate implements the hardware abstraction layer of the CIM-MLC
//! compilation stack (ASPLOS'24, §3.2): a three-tier parameterization of
//! computing-in-memory accelerators together with the *computing mode*
//! abstraction that tells the compiler which scheduling granularity the
//! accelerator's programming interface exposes.
//!
//! The three architecture tiers are:
//!
//! * **Chip tier** ([`ChipTier`]) — cores, chip-level NoC, global (L0)
//!   buffer, digital ALU. Exposed to the compiler in *core mode* (CM).
//! * **Core tier** ([`CoreTier`]) — crossbars inside one core, core-level
//!   NoC, local (L1) buffer, digital ALU. Exposed in *crossbar mode* (XBM).
//! * **Crossbar tier** ([`CrossbarTier`]) — the memory crossbar itself:
//!   shape, number of simultaneously-activatable wordlines
//!   (`parallel_row`), DAC/ADC precision, memory-cell type and precision.
//!   Exposed in *wordline mode* (WLM).
//!
//! A complete accelerator description is a [`CimArchitecture`], built either
//! directly, through [`CimArchitectureBuilder`], or from one of the paper's
//! [`presets`].
//!
//! ```
//! use cim_arch::{presets, ComputingMode};
//!
//! let arch = presets::isaac_baseline();
//! assert_eq!(arch.mode(), ComputingMode::Xbm);
//! assert_eq!(arch.chip().core_count(), 768);
//! assert_eq!(arch.crossbar().shape().rows, 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod cost;
mod error;
mod mode;
pub mod presets;
mod serde_io;
mod tier;

pub use arch::{CimArchitecture, CimArchitectureBuilder};
pub use cost::{CostModel, EnergyBreakdown, PowerEstimate};
pub use error::ArchError;
pub use mode::ComputingMode;
pub use serde_io::{from_json, to_json};
pub use tier::{CellType, ChipTier, CoreTier, CrossbarTier, NocCost, NocKind, XbShape};

// Architectures are shared by reference across `cim_compiler::pool`'s
// worker threads; pin thread-safety down at compile time.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<CimArchitecture>();
    assert_send_sync::<CostModel>();
    assert_send_sync::<ArchError>();
};

/// Convenient result alias for fallible architecture operations.
pub type Result<T> = std::result::Result<T, ArchError>;
