//! Meta-operator definitions.

use crate::MatId;

/// An address space in the on-chip buffer hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufSpace {
    /// The chip-level global buffer (shared by all cores).
    L0,
    /// The local buffer of one core.
    L1(u32),
}

/// A buffer location: an element offset inside one buffer space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufRef {
    /// Which buffer.
    pub space: BufSpace,
    /// Element offset within the buffer.
    pub offset: u64,
}

impl BufRef {
    /// A location in the global buffer.
    #[must_use]
    pub fn l0(offset: u64) -> Self {
        BufRef {
            space: BufSpace::L0,
            offset,
        }
    }

    /// A location in core `core`'s local buffer.
    #[must_use]
    pub fn l1(core: u32, offset: u64) -> Self {
        BufRef {
            space: BufSpace::L1(core),
            offset,
        }
    }

    /// This location shifted forward by `delta` elements.
    #[must_use]
    pub fn at(self, delta: u64) -> Self {
        BufRef {
            space: self.space,
            offset: self.offset + delta,
        }
    }
}

/// Physical crossbar address: core index and crossbar index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XbAddr {
    /// Core index within the chip.
    pub core: u32,
    /// Crossbar index within the core.
    pub xb: u32,
}

impl XbAddr {
    /// Creates a crossbar address.
    #[must_use]
    pub fn new(core: u32, xb: u32) -> Self {
        XbAddr { core, xb }
    }
}

/// The operator a `cim.readcore` executes (MOP_CM carries the whole DNN
/// operator description — Figure 11's `type` + `params`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreOp {
    /// Convolution over a `[in_c, in_h, in_w]` input.
    Conv {
        /// Input channels.
        in_c: u32,
        /// Input height.
        in_h: u32,
        /// Input width.
        in_w: u32,
        /// Output channels.
        out_c: u32,
        /// Square kernel size.
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Zero padding.
        padding: u32,
    },
    /// Fully-connected layer applied to `batch` rows.
    Linear {
        /// Input features.
        in_f: u32,
        /// Output features.
        out_f: u32,
        /// Number of independent rows pushed through the layer.
        batch: u32,
    },
    /// Dense matrix product `[m, k] × [k, n]`.
    MatMul {
        /// Left rows.
        m: u32,
        /// Inner dimension.
        k: u32,
        /// Right columns.
        n: u32,
    },
}

impl CoreOp {
    /// Mnemonic matching the paper's `type` field.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CoreOp::Conv { .. } => "conv",
            CoreOp::Linear { .. } => "linear",
            CoreOp::MatMul { .. } => "matmul",
        }
    }

    /// Number of input elements the operator consumes.
    #[must_use]
    pub fn input_len(&self) -> u64 {
        match self {
            CoreOp::Conv {
                in_c, in_h, in_w, ..
            } => u64::from(*in_c) * u64::from(*in_h) * u64::from(*in_w),
            CoreOp::Linear { in_f, batch, .. } => u64::from(*in_f) * u64::from(*batch),
            CoreOp::MatMul { m, k, .. } => u64::from(*m) * u64::from(*k),
        }
    }

    /// Number of output elements the operator produces.
    #[must_use]
    pub fn output_len(&self) -> u64 {
        match self {
            CoreOp::Conv {
                in_h,
                in_w,
                out_c,
                kernel,
                stride,
                padding,
                ..
            } => {
                let oh = (in_h + 2 * padding - kernel) / stride + 1;
                let ow = (in_w + 2 * padding - kernel) / stride + 1;
                u64::from(*out_c) * u64::from(oh) * u64::from(ow)
            }
            CoreOp::Linear { out_f, batch, .. } => u64::from(*out_f) * u64::from(*batch),
            CoreOp::MatMul { m, n, .. } => u64::from(*m) * u64::from(*n),
        }
    }
}

/// Digital-compute functions (the DCOM meta-operator family, Figure 10).
///
/// Users of the real stack "have the flexibility to extend meta-operators,
/// aligning them with the hardware-supported functions" (§3.3.2); this enum
/// covers everything the benchmark networks need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DcomFunc {
    /// Fills the destination with zeros (staging-buffer preparation for
    /// padded gathers). Takes no sources.
    Zero,
    /// Element-wise ReLU.
    Relu,
    /// Element-wise GELU.
    Gelu,
    /// Row-wise softmax over `groups` rows of `len/groups` elements.
    Softmax {
        /// Number of independent softmax rows.
        groups: u32,
    },
    /// Element-wise addition of two operands.
    AddEw,
    /// Shift-and-accumulate merge of bit-sliced partial sums.
    ShiftAcc,
    /// Inference-mode batch normalization (affine, folded scale = 1).
    BatchNorm,
    /// Row-wise layer normalization over `groups` rows.
    LayerNorm {
        /// Number of independent rows.
        groups: u32,
    },
    /// 2-D max pooling over a `[c, h, w]` operand.
    MaxPool {
        /// Channels.
        c: u32,
        /// Input height.
        h: u32,
        /// Input width.
        w: u32,
        /// Window size.
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Zero padding.
        padding: u32,
    },
    /// 2-D average pooling over a `[c, h, w]` operand.
    AvgPool {
        /// Channels.
        c: u32,
        /// Input height.
        h: u32,
        /// Input width.
        w: u32,
        /// Window size.
        kernel: u32,
        /// Stride.
        stride: u32,
        /// Zero padding.
        padding: u32,
    },
    /// Global average pooling over a `[c, h, w]` operand.
    GlobalAvgPool {
        /// Channels.
        c: u32,
        /// Input height.
        h: u32,
        /// Input width.
        w: u32,
    },
    /// Fused multi-head attention core over `[tokens, dim]` Q/K/V.
    Attention {
        /// Head count.
        heads: u32,
        /// Token count.
        tokens: u32,
        /// Embedding dimension.
        dim: u32,
    },
}

impl DcomFunc {
    /// Mnemonic used by the pretty printer (lower-case, paper style).
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            DcomFunc::Zero => "zero",
            DcomFunc::Relu => "relu",
            DcomFunc::Gelu => "gelu",
            DcomFunc::Softmax { .. } => "softmax",
            DcomFunc::AddEw => "add",
            DcomFunc::ShiftAcc => "shiftacc",
            DcomFunc::BatchNorm => "bn",
            DcomFunc::LayerNorm { .. } => "ln",
            DcomFunc::MaxPool { .. } => "maxpool",
            DcomFunc::AvgPool { .. } => "avgpool",
            DcomFunc::GlobalAvgPool { .. } => "gap",
            DcomFunc::Attention { .. } => "attention",
        }
    }

    /// Number of source operands the function consumes.
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            DcomFunc::Zero => 0,
            DcomFunc::AddEw => 2,
            DcomFunc::Attention { .. } => 3,
            _ => 1,
        }
    }
}

/// One meta-operator (Figure 10's `<operators>` production).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MetaOp {
    /// MOP_CM `cim.readcore(type, params, coreaddr, src, dst)`: data from
    /// `src` is pushed through operator `op` (whose weights are `weights`)
    /// on core `core`; the result lands at `dst` (Figure 11).
    ReadCore {
        /// The DNN operator to execute.
        op: CoreOp,
        /// Weight matrix programmed on the core.
        weights: MatId,
        /// Executing core.
        core: u32,
        /// Input location.
        src: BufRef,
        /// Output location.
        dst: BufRef,
    },
    /// MOP_XBM `cim.writexb(xbaddr, mat)`: program a rectangular slice of
    /// weight matrix `weights` into crossbar `xb` (Figure 13).
    WriteXb {
        /// Target crossbar.
        xb: XbAddr,
        /// Source weight matrix.
        weights: MatId,
        /// First source row.
        src_row: u32,
        /// First source column.
        src_col: u32,
        /// First destination wordline.
        dst_row: u32,
        /// First destination (logical) column.
        dst_col: u32,
        /// Rows programmed.
        rows: u32,
        /// Logical columns programmed.
        cols: u32,
    },
    /// MOP_XBM `cim.readxb(xbaddr, len)`: activate crossbar `xb`, multiply
    /// the input vector at `src` with the programmed region and deposit
    /// (or accumulate) the result at `dst` (Figure 13).
    ReadXb {
        /// Activated crossbar.
        xb: XbAddr,
        /// First engaged wordline.
        row_start: u32,
        /// Number of engaged wordlines.
        rows: u32,
        /// First engaged logical column.
        col_start: u32,
        /// Number of engaged logical columns.
        cols: u32,
        /// Input vector location (length `rows`).
        src: BufRef,
        /// Output location (length `cols`).
        dst: BufRef,
        /// When true, add into `dst` (partial-sum accumulation across the
        /// vertical crossbars of one VXB).
        accumulate: bool,
    },
    /// MOP_WLM `cim.writerow(rowaddr, value)`: program part of one
    /// wordline (Figure 15).
    WriteRow {
        /// Target crossbar.
        xb: XbAddr,
        /// Target wordline.
        row: u32,
        /// Source weight matrix.
        weights: MatId,
        /// Source row in the weight matrix.
        src_row: u32,
        /// First source column.
        src_col: u32,
        /// First destination (logical) column.
        dst_col: u32,
        /// Logical columns programmed.
        cols: u32,
    },
    /// MOP_WLM `cim.readrow(rowaddr, len)`: activate `rows` wordlines
    /// starting at `row_start` (at most `parallel_row` of them) and
    /// multiply with the input at `src` (Figure 15).
    ReadRow {
        /// Activated crossbar.
        xb: XbAddr,
        /// First engaged wordline.
        row_start: u32,
        /// Number of engaged wordlines (≤ `parallel_row`).
        rows: u32,
        /// First engaged logical column.
        col_start: u32,
        /// Number of engaged logical columns.
        cols: u32,
        /// Input vector location (length `rows`).
        src: BufRef,
        /// Output location (length `cols`).
        dst: BufRef,
        /// When true, add into `dst`.
        accumulate: bool,
    },
    /// DCOM: a digital-compute operation on the chip/core ALUs
    /// (Figure 10's `<DCOM>`).
    Dcom {
        /// The function.
        func: DcomFunc,
        /// Source operands (length = `func.arity()`).
        srcs: Vec<BufRef>,
        /// Output location.
        dst: BufRef,
        /// Elements produced.
        len: u64,
    },
    /// DMOV `mov(src, dst, len)`: move `len` elements (Figure 10's
    /// `<DMOV>`).
    Mov {
        /// Source location.
        src: BufRef,
        /// Destination location.
        dst: BufRef,
        /// Elements moved.
        len: u64,
    },
}

impl MetaOp {
    /// Whether this is a CIM activation (as opposed to DCOM/DMOV).
    #[must_use]
    pub fn is_cim(&self) -> bool {
        matches!(
            self,
            MetaOp::ReadCore { .. }
                | MetaOp::WriteXb { .. }
                | MetaOp::ReadXb { .. }
                | MetaOp::WriteRow { .. }
                | MetaOp::ReadRow { .. }
        )
    }

    /// Whether this programs weights (a write-type CIM operation).
    #[must_use]
    pub fn is_cim_write(&self) -> bool {
        matches!(self, MetaOp::WriteXb { .. } | MetaOp::WriteRow { .. })
    }

    /// The crossbar this operator touches, if it addresses one directly.
    #[must_use]
    pub fn xb_addr(&self) -> Option<XbAddr> {
        match self {
            MetaOp::WriteXb { xb, .. }
            | MetaOp::ReadXb { xb, .. }
            | MetaOp::WriteRow { xb, .. }
            | MetaOp::ReadRow { xb, .. } => Some(*xb),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buf_ref_helpers() {
        let r = BufRef::l1(3, 100);
        assert_eq!(r.space, BufSpace::L1(3));
        assert_eq!(r.at(28).offset, 128);
        assert_eq!(r.to_string(), "L1[3]+100");
        assert_eq!(BufRef::l0(0).to_string(), "L0+0");
    }

    #[test]
    fn core_op_lengths() {
        let conv = CoreOp::Conv {
            in_c: 3,
            in_h: 32,
            in_w: 32,
            out_c: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(conv.input_len(), 3 * 32 * 32);
        assert_eq!(conv.output_len(), 32 * 32 * 32);
        let lin = CoreOp::Linear {
            in_f: 768,
            out_f: 3072,
            batch: 197,
        };
        assert_eq!(lin.input_len(), 768 * 197);
        assert_eq!(lin.output_len(), 3072 * 197);
        let mm = CoreOp::MatMul { m: 4, k: 8, n: 2 };
        assert_eq!(mm.input_len(), 32);
        assert_eq!(mm.output_len(), 8);
    }

    #[test]
    fn dcom_arity() {
        assert_eq!(DcomFunc::Relu.arity(), 1);
        assert_eq!(DcomFunc::AddEw.arity(), 2);
        assert_eq!(
            DcomFunc::Attention {
                heads: 12,
                tokens: 196,
                dim: 768
            }
            .arity(),
            3
        );
    }

    #[test]
    fn classification() {
        let read = MetaOp::ReadXb {
            xb: XbAddr::new(0, 1),
            row_start: 0,
            rows: 8,
            col_start: 0,
            cols: 4,
            src: BufRef::l1(0, 0),
            dst: BufRef::l1(0, 64),
            accumulate: false,
        };
        assert!(read.is_cim());
        assert!(!read.is_cim_write());
        assert_eq!(read.xb_addr(), Some(XbAddr::new(0, 1)));
        let mov = MetaOp::Mov {
            src: BufRef::l0(0),
            dst: BufRef::l1(0, 0),
            len: 9,
        };
        assert!(!mov.is_cim());
        assert_eq!(mov.xb_addr(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(XbAddr::new(2, 5).to_string(), "xb(2,5)");
        let lin = CoreOp::Linear {
            in_f: 8,
            out_f: 4,
            batch: 1,
        };
        assert!(lin.to_string().contains("linear"));
    }
}
