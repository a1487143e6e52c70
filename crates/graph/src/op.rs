//! The operator set.

use crate::{GraphError, Shape};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Pooling flavor for [`OpKind::Pool2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// A DNN operator.
///
/// The set covers the paper's benchmark networks — the VGG series, the
/// ResNet series and ViT (§4.1) — plus the auxiliaries they need. Three
/// operators execute *in* the CIM arrays (they have stationary weight
/// matrices): [`Conv2d`](OpKind::Conv2d), [`Linear`](OpKind::Linear) and
/// [`MatMul`](OpKind::MatMul). Everything else is digital and runs on the
/// chip/core ALUs (`DCOM` meta-operators after compilation).
///
/// Use the convenience constructors ([`OpKind::conv2d`],
/// [`OpKind::linear`], …) for the common attribute patterns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Graph input carrying its tensor shape.
    Input {
        /// Shape of the fed tensor.
        shape: Shape,
    },
    /// 2-D convolution over a `[C, H, W]` input (square kernel).
    Conv2d {
        /// Number of output channels.
        out_channels: usize,
        /// Kernel side length.
        kernel: usize,
        /// Stride (both axes).
        stride: usize,
        /// Zero padding (both axes).
        padding: usize,
    },
    /// Fully-connected layer over the last axis.
    Linear {
        /// Number of output features.
        out_features: usize,
    },
    /// Dynamic matrix multiply `[m, k] × [k, n] → [m, n]` (attention
    /// score/value products). The second operand plays the "weight" role
    /// when mapped onto crossbars, but must be rewritten per inference.
    MatMul,
    /// Rectified linear unit (element-wise).
    Relu,
    /// Gaussian-error linear unit (element-wise).
    Gelu,
    /// Softmax over the last axis.
    Softmax,
    /// 2-D pooling (square window).
    Pool2d {
        /// Max or average pooling.
        kind: PoolKind,
        /// Window side length.
        kernel: usize,
        /// Stride (both axes).
        stride: usize,
        /// Zero padding (both axes).
        padding: usize,
    },
    /// Reinterprets the input with a new shape of equal element count
    /// (e.g. `[768, 14, 14] → [196, 768]` after a ViT patch embedding).
    Reshape {
        /// Target shape.
        shape: Shape,
    },
    /// Global average pooling `[C, H, W] → [C]`.
    GlobalAvgPool,
    /// Element-wise addition of two same-shape tensors (residual links).
    Add,
    /// Concatenation along `axis`.
    Concat {
        /// Concatenation axis.
        axis: usize,
    },
    /// Flattens to a rank-1 vector.
    Flatten,
    /// Batch normalization (inference-mode affine transform).
    BatchNorm,
    /// Layer normalization over the last axis.
    LayerNorm,
    /// Multi-head self-attention core `softmax(QKᵀ/√d)·V` over three
    /// `[tokens, dim]` operands (Q, K, V), treated as one fused digital
    /// operator. The *projections around it* (Q/K/V and output Linear
    /// layers) are separate CIM-mapped nodes; the core's operands are both
    /// activations, so it cannot hold stationary crossbar weights.
    Attention {
        /// Number of attention heads (must divide `dim`).
        heads: usize,
    },
}

impl OpKind {
    /// Convolution with square kernel/stride/padding.
    #[must_use]
    pub fn conv2d(out_channels: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        OpKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
        }
    }

    /// Fully-connected layer.
    #[must_use]
    pub fn linear(out_features: usize) -> Self {
        OpKind::Linear { out_features }
    }

    /// Max pooling with square window and no padding.
    #[must_use]
    pub fn max_pool(kernel: usize, stride: usize) -> Self {
        OpKind::Pool2d {
            kind: PoolKind::Max,
            kernel,
            stride,
            padding: 0,
        }
    }

    /// Max pooling with square window and zero padding (ResNet stems).
    #[must_use]
    pub fn max_pool_padded(kernel: usize, stride: usize, padding: usize) -> Self {
        OpKind::Pool2d {
            kind: PoolKind::Max,
            kernel,
            stride,
            padding,
        }
    }

    /// Average pooling with square window and no padding.
    #[must_use]
    pub fn avg_pool(kernel: usize, stride: usize) -> Self {
        OpKind::Pool2d {
            kind: PoolKind::Avg,
            kernel,
            stride,
            padding: 0,
        }
    }

    /// Number of data inputs the operator expects, or `None` for variadic
    /// ([`Concat`](OpKind::Concat)).
    #[must_use]
    pub fn arity(&self) -> Option<usize> {
        match self {
            OpKind::Input { .. } => Some(0),
            OpKind::Add | OpKind::MatMul => Some(2),
            OpKind::Attention { .. } => Some(3),
            OpKind::Concat { .. } => None,
            _ => Some(1),
        }
    }

    /// Whether the operator executes inside CIM arrays (owns a stationary
    /// weight matrix that is programmed into crossbars).
    #[must_use]
    pub fn is_cim_supported(&self) -> bool {
        matches!(
            self,
            OpKind::Conv2d { .. } | OpKind::Linear { .. } | OpKind::MatMul
        )
    }

    /// Whether the operator's crossbar contents are true constants.
    ///
    /// [`MatMul`](OpKind::MatMul) maps to crossbars but both operands are
    /// activations, so its "weights" must be rewritten every inference —
    /// prohibitive on write-expensive devices (paper §2.1).
    #[must_use]
    pub fn has_static_weights(&self) -> bool {
        matches!(self, OpKind::Conv2d { .. } | OpKind::Linear { .. })
    }

    /// Short mnemonic used in generated code and schedule dumps.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Input { .. } => "input",
            OpKind::Conv2d { .. } => "conv",
            OpKind::Linear { .. } => "linear",
            OpKind::MatMul => "matmul",
            OpKind::Relu => "relu",
            OpKind::Gelu => "gelu",
            OpKind::Softmax => "softmax",
            OpKind::Pool2d {
                kind: PoolKind::Max,
                ..
            } => "maxpool",
            OpKind::Pool2d {
                kind: PoolKind::Avg,
                ..
            } => "avgpool",
            OpKind::GlobalAvgPool => "gap",
            OpKind::Add => "add",
            OpKind::Concat { .. } => "concat",
            OpKind::Flatten => "flatten",
            OpKind::Reshape { .. } => "reshape",
            OpKind::BatchNorm => "bn",
            OpKind::LayerNorm => "ln",
            OpKind::Attention { .. } => "attention",
        }
    }

    /// Infers the output shape from the input shapes.
    ///
    /// Total on any attributes, including a model file's: a zero extent,
    /// an empty shape or an element count past `u64::MAX` is an error,
    /// not a panic or a wrapped count.
    ///
    /// # Errors
    /// Returns [`GraphError::ShapeMismatch`] when the inputs are
    /// incompatible with the operator (wrong rank, mismatched extents,
    /// kernel larger than the padded input, …) or the output shape is
    /// not well formed, and
    /// [`GraphError::ArityMismatch`] when the number of inputs is wrong.
    pub fn infer(&self, inputs: &[&Shape]) -> Result<Shape, GraphError> {
        if let Some(n) = self.arity() {
            if inputs.len() != n {
                return Err(GraphError::ArityMismatch {
                    op: self.mnemonic(),
                    expected: n,
                    got: inputs.len(),
                });
            }
        } else if inputs.is_empty() {
            return Err(GraphError::ArityMismatch {
                op: self.mnemonic(),
                expected: 1,
                got: 0,
            });
        }
        let mismatch = |message: String| GraphError::ShapeMismatch {
            op: self.mnemonic(),
            message,
        };
        let out = match self {
            OpKind::Input { shape } => Ok(shape.clone()),
            OpKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                if *out_channels == 0 {
                    return Err(mismatch("zero output channels".into()));
                }
                let (_, h, w) = inputs[0]
                    .as_chw()
                    .ok_or_else(|| mismatch(format!("expects [C,H,W], got {}", inputs[0])))?;
                let oh = conv_out(h, *kernel, *stride, *padding)
                    .ok_or_else(|| mismatch(format!("kernel {kernel} too large for H={h}")))?;
                let ow = conv_out(w, *kernel, *stride, *padding)
                    .ok_or_else(|| mismatch(format!("kernel {kernel} too large for W={w}")))?;
                Ok(Shape::chw(*out_channels, oh, ow))
            }
            OpKind::Linear { out_features } => {
                if *out_features == 0 {
                    return Err(mismatch("zero output features".into()));
                }
                let mut dims: Vec<usize> = inputs[0].dims().to_vec();
                *dims.last_mut().expect("shapes are non-empty") = *out_features;
                Ok(Shape::new(dims))
            }
            OpKind::MatMul => {
                let (m, k1) = inputs[0]
                    .as_tokens()
                    .ok_or_else(|| mismatch(format!("lhs must be rank-2, got {}", inputs[0])))?;
                let (k2, n) = inputs[1]
                    .as_tokens()
                    .ok_or_else(|| mismatch(format!("rhs must be rank-2, got {}", inputs[1])))?;
                if k1 != k2 {
                    return Err(mismatch(format!("inner dimensions disagree: {k1} vs {k2}")));
                }
                Ok(Shape::tokens(m, n))
            }
            OpKind::Relu
            | OpKind::Gelu
            | OpKind::Softmax
            | OpKind::BatchNorm
            | OpKind::LayerNorm => Ok(inputs[0].clone()),
            OpKind::Pool2d {
                kernel,
                stride,
                padding,
                ..
            } => {
                let (c, h, w) = inputs[0]
                    .as_chw()
                    .ok_or_else(|| mismatch(format!("expects [C,H,W], got {}", inputs[0])))?;
                let oh = conv_out(h, *kernel, *stride, *padding)
                    .ok_or_else(|| mismatch(format!("window {kernel} too large for H={h}")))?;
                let ow = conv_out(w, *kernel, *stride, *padding)
                    .ok_or_else(|| mismatch(format!("window {kernel} too large for W={w}")))?;
                Ok(Shape::chw(c, oh, ow))
            }
            OpKind::Reshape { shape } => {
                let from = inputs[0].elements();
                match shape.checked_elements() {
                    Some(to) if to == from => Ok(shape.clone()),
                    Some(to) => Err(mismatch(format!(
                        "cannot reshape {} ({from} elements) to {shape} ({to} elements)",
                        inputs[0]
                    ))),
                    None => Err(mismatch(format!("cannot reshape to {shape}"))),
                }
            }
            OpKind::GlobalAvgPool => {
                let (c, _, _) = inputs[0]
                    .as_chw()
                    .ok_or_else(|| mismatch(format!("expects [C,H,W], got {}", inputs[0])))?;
                Ok(Shape::vec(c))
            }
            OpKind::Add => {
                if inputs[0] != inputs[1] {
                    return Err(mismatch(format!(
                        "operand shapes differ: {} vs {}",
                        inputs[0], inputs[1]
                    )));
                }
                Ok(inputs[0].clone())
            }
            OpKind::Concat { axis } => {
                let first = inputs[0];
                if *axis >= first.rank() {
                    return Err(mismatch(format!(
                        "axis {axis} out of range for rank {}",
                        first.rank()
                    )));
                }
                let mut dims = first.dims().to_vec();
                for other in &inputs[1..] {
                    if other.rank() != first.rank() {
                        return Err(mismatch("rank mismatch among concat inputs".into()));
                    }
                    for (d, (a, b)) in first.dims().iter().zip(other.dims()).enumerate() {
                        if d != *axis && a != b {
                            return Err(mismatch(format!(
                                "non-concat axis {d} differs: {a} vs {b}"
                            )));
                        }
                    }
                    dims[*axis] = dims[*axis]
                        .checked_add(other.dims()[*axis])
                        .ok_or_else(|| mismatch(format!("axis {axis} overflows")))?;
                }
                Ok(Shape::new(dims))
            }
            OpKind::Flatten => Ok(Shape::vec(inputs[0].elements() as usize)),
            OpKind::Attention { heads } => {
                let (_, d) = inputs[0]
                    .as_tokens()
                    .ok_or_else(|| mismatch(format!("expects [tokens, dim], got {}", inputs[0])))?;
                if inputs[1] != inputs[0] || inputs[2] != inputs[0] {
                    return Err(mismatch(format!(
                        "Q/K/V shapes must match: {} vs {} vs {}",
                        inputs[0], inputs[1], inputs[2]
                    )));
                }
                if *heads == 0 || d % heads != 0 {
                    return Err(mismatch(format!("heads {heads} must divide dim {d}")));
                }
                Ok(inputs[0].clone())
            }
        }?;
        if out.checked_elements().is_none() {
            return Err(mismatch(format!("output {out} is not a well-formed shape")));
        }
        Ok(out)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
            } => write!(
                f,
                "conv{kernel}x{kernel}/{stride} p{padding} -> {out_channels}"
            ),
            OpKind::Linear { out_features } => write!(f, "linear -> {out_features}"),
            OpKind::Pool2d {
                kind,
                kernel,
                stride,
                padding,
            } => {
                let k = match kind {
                    PoolKind::Max => "max",
                    PoolKind::Avg => "avg",
                };
                write!(f, "{k}pool{kernel}/{stride} p{padding}")
            }
            OpKind::Reshape { shape } => write!(f, "reshape{shape}"),
            OpKind::Concat { axis } => write!(f, "concat(axis={axis})"),
            OpKind::Attention { heads } => write!(f, "attention(h={heads})"),
            OpKind::Input { shape } => write!(f, "input{shape}"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

/// Output extent of a convolution/pool along one axis, or `None` if the
/// (padded) input is smaller than the kernel.
fn conv_out(input: usize, kernel: usize, stride: usize, padding: usize) -> Option<usize> {
    let padded = padding.checked_mul(2)?.checked_add(input)?;
    if kernel == 0 || stride == 0 || padded < kernel {
        return None;
    }
    Some((padded - kernel) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infer1(op: &OpKind, s: &Shape) -> Result<Shape, GraphError> {
        op.infer(&[s])
    }

    #[test]
    fn conv_shape_inference() {
        let s = Shape::chw(3, 32, 32);
        let out = infer1(&OpKind::conv2d(32, 3, 1, 1), &s).unwrap();
        assert_eq!(out, Shape::chw(32, 32, 32));
        let strided = infer1(&OpKind::conv2d(64, 3, 2, 1), &s).unwrap();
        assert_eq!(strided, Shape::chw(64, 16, 16));
        let seven = infer1(&OpKind::conv2d(64, 7, 2, 3), &Shape::chw(3, 224, 224)).unwrap();
        assert_eq!(seven, Shape::chw(64, 112, 112));
    }

    #[test]
    fn conv_rejects_bad_input() {
        assert!(infer1(&OpKind::conv2d(8, 3, 1, 0), &Shape::vec(10)).is_err());
        assert!(infer1(&OpKind::conv2d(8, 9, 1, 0), &Shape::chw(1, 4, 4)).is_err());
    }

    #[test]
    fn linear_rewrites_last_axis() {
        assert_eq!(
            infer1(&OpKind::linear(10), &Shape::vec(512)).unwrap(),
            Shape::vec(10)
        );
        assert_eq!(
            infer1(&OpKind::linear(3072), &Shape::tokens(197, 768)).unwrap(),
            Shape::tokens(197, 3072)
        );
    }

    #[test]
    fn matmul_checks_inner_dim() {
        let a = Shape::tokens(197, 64);
        let b = Shape::tokens(64, 197);
        assert_eq!(
            OpKind::MatMul.infer(&[&a, &b]).unwrap(),
            Shape::tokens(197, 197)
        );
        assert!(OpKind::MatMul.infer(&[&a, &a]).is_err());
        assert!(OpKind::MatMul.infer(&[&a]).is_err());
    }

    #[test]
    fn pooling_shapes() {
        let s = Shape::chw(64, 32, 32);
        assert_eq!(
            infer1(&OpKind::max_pool(2, 2), &s).unwrap(),
            Shape::chw(64, 16, 16)
        );
        assert_eq!(infer1(&OpKind::GlobalAvgPool, &s).unwrap(), Shape::vec(64));
    }

    #[test]
    fn add_requires_same_shape() {
        let a = Shape::chw(64, 8, 8);
        let b = Shape::chw(64, 8, 8);
        assert_eq!(OpKind::Add.infer(&[&a, &b]).unwrap(), a);
        let c = Shape::chw(32, 8, 8);
        assert!(OpKind::Add.infer(&[&a, &c]).is_err());
    }

    #[test]
    fn concat_sums_axis() {
        let a = Shape::chw(32, 8, 8);
        let b = Shape::chw(64, 8, 8);
        let op = OpKind::Concat { axis: 0 };
        assert_eq!(op.infer(&[&a, &b]).unwrap(), Shape::chw(96, 8, 8));
        let bad = Shape::chw(64, 4, 8);
        assert!(op.infer(&[&a, &bad]).is_err());
        assert!(OpKind::Concat { axis: 9 }.infer(&[&a, &b]).is_err());
        assert!(op.infer(&[]).is_err());
    }

    #[test]
    fn flatten_and_elementwise() {
        let s = Shape::chw(512, 7, 7);
        assert_eq!(infer1(&OpKind::Flatten, &s).unwrap(), Shape::vec(512 * 49));
        assert_eq!(infer1(&OpKind::Relu, &s).unwrap(), s);
        assert_eq!(infer1(&OpKind::BatchNorm, &s).unwrap(), s);
    }

    #[test]
    fn attention_validates_heads_and_operands() {
        let s = Shape::tokens(197, 768);
        assert_eq!(
            OpKind::Attention { heads: 12 }
                .infer(&[&s, &s, &s])
                .unwrap(),
            s
        );
        assert!(OpKind::Attention { heads: 7 }.infer(&[&s, &s, &s]).is_err());
        assert!(OpKind::Attention { heads: 0 }.infer(&[&s, &s, &s]).is_err());
        // Q/K/V must agree.
        let other = Shape::tokens(197, 384);
        assert!(OpKind::Attention { heads: 12 }
            .infer(&[&s, &other, &s])
            .is_err());
        // arity is 3
        assert!(OpKind::Attention { heads: 12 }.infer(&[&s]).is_err());
        let v = Shape::vec(768);
        assert!(OpKind::Attention { heads: 12 }
            .infer(&[&v, &v, &v])
            .is_err());
    }

    #[test]
    fn reshape_checks_element_count() {
        let s = Shape::chw(768, 14, 14);
        let target = Shape::tokens(196, 768);
        let op = OpKind::Reshape {
            shape: target.clone(),
        };
        assert_eq!(op.infer(&[&s]).unwrap(), target);
        let bad = OpKind::Reshape {
            shape: Shape::vec(5),
        };
        assert!(bad.infer(&[&s]).is_err());
    }

    #[test]
    fn padded_pooling() {
        // ResNet stem: 112x112 -> maxpool3/2 p1 -> 56x56
        let s = Shape::chw(64, 112, 112);
        assert_eq!(
            OpKind::max_pool_padded(3, 2, 1).infer(&[&s]).unwrap(),
            Shape::chw(64, 56, 56)
        );
    }

    #[test]
    fn cim_support_classification() {
        assert!(OpKind::conv2d(8, 3, 1, 1).is_cim_supported());
        assert!(OpKind::linear(8).is_cim_supported());
        assert!(OpKind::MatMul.is_cim_supported());
        assert!(!OpKind::Relu.is_cim_supported());
        assert!(!(OpKind::Attention { heads: 8 }).is_cim_supported());
        assert!(OpKind::linear(8).has_static_weights());
        assert!(!OpKind::MatMul.has_static_weights());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            OpKind::conv2d(32, 3, 1, 1).to_string(),
            "conv3x3/1 p1 -> 32"
        );
        assert_eq!(OpKind::linear(10).to_string(), "linear -> 10");
        assert_eq!(OpKind::max_pool(2, 2).to_string(), "maxpool2/2 p0");
    }

    #[test]
    fn serde_round_trip() {
        let ops = vec![
            OpKind::conv2d(64, 3, 1, 1),
            OpKind::MatMul,
            OpKind::Attention { heads: 12 },
            OpKind::Concat { axis: 1 },
        ];
        let j = serde_json::to_string(&ops).unwrap();
        let back: Vec<OpKind> = serde_json::from_str(&j).unwrap();
        assert_eq!(back, ops);
    }
}
