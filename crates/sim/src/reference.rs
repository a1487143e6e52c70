//! Reference integer executor — the PyTorch substitute.
//!
//! Executes a [`cim_graph::Graph`] directly (no hardware model) on the
//! deterministic tensors of [`crate::weights`], using the shared
//! [`crate::kernels`]. The functional simulator must match this executor
//! bit-exactly on every compiled flow.
//!
//! Weight layout convention (shared with the compiler's code generator):
//! a convolution's weight-matrix row index is `(c_in·k + ky)·k + kx` and
//! its column index is the output channel.

use crate::kernels;
use crate::weights::{synth_input, synth_matrix};
use cim_graph::{Graph, NodeId, OpKind, PoolKind};
use std::collections::HashMap;

/// Executes `graph` on synthesized inputs/weights; returns every node's
/// output tensor.
#[must_use]
pub fn execute(graph: &Graph) -> HashMap<NodeId, Vec<i64>> {
    let mut values: HashMap<NodeId, Vec<i64>> = HashMap::new();
    for node in graph.nodes() {
        let get = |id: NodeId| -> &Vec<i64> { &values[&id] };
        let out: Vec<i64> = match node.op() {
            OpKind::Input { shape } => synth_input(node.name(), shape.elements()),
            OpKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                let input = get(node.inputs()[0]);
                let (in_c, in_h, in_w) = graph
                    .node(node.inputs()[0])
                    .out_shape()
                    .as_chw()
                    .expect("conv input is [C,H,W]");
                let (rows, cols) = graph.weight_matrix(node.id()).expect("conv has weights");
                let w = synth_matrix(node.name(), rows as u32, cols as u32);
                let (oc, oh, ow) = node.out_shape().as_chw().expect("conv output");
                let mut out = vec![0i64; oc * oh * ow];
                for co in 0..*out_channels {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = 0i64;
                            for ci in 0..in_c {
                                for ky in 0..*kernel {
                                    for kx in 0..*kernel {
                                        let iy = (oy * stride + ky) as i64 - *padding as i64;
                                        let ix = (ox * stride + kx) as i64 - *padding as i64;
                                        if iy < 0
                                            || ix < 0
                                            || iy >= in_h as i64
                                            || ix >= in_w as i64
                                        {
                                            continue;
                                        }
                                        let x = input
                                            [ci * in_h * in_w + iy as usize * in_w + ix as usize];
                                        let r = (ci * kernel + ky) * kernel + kx;
                                        acc += x * w.at(r as u32, co as u32);
                                    }
                                }
                            }
                            out[co * oh * ow + oy * ow + ox] = acc;
                        }
                    }
                }
                out
            }
            OpKind::Linear { out_features } => {
                let input = get(node.inputs()[0]);
                let (rows, cols) = graph.weight_matrix(node.id()).expect("linear has weights");
                let w = synth_matrix(node.name(), rows as u32, cols as u32);
                let batch = input.len() / rows;
                let mut out = vec![0i64; batch * out_features];
                for b in 0..batch {
                    for c in 0..*out_features {
                        let mut acc = 0i64;
                        for r in 0..rows {
                            acc += input[b * rows + r] * w.at(r as u32, c as u32);
                        }
                        out[b * out_features + c] = acc;
                    }
                }
                out
            }
            OpKind::MatMul => {
                let a = get(node.inputs()[0]).clone();
                let b = get(node.inputs()[1]);
                let (m, k) = graph
                    .node(node.inputs()[0])
                    .out_shape()
                    .as_tokens()
                    .expect("matmul lhs");
                let (_, n) = graph
                    .node(node.inputs()[1])
                    .out_shape()
                    .as_tokens()
                    .expect("matmul rhs");
                let mut out = vec![0i64; m * n];
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0i64;
                        for t in 0..k {
                            acc += a[i * k + t] * b[t * n + j];
                        }
                        out[i * n + j] = acc;
                    }
                }
                out
            }
            OpKind::Relu => {
                let mut out = get(node.inputs()[0]).clone();
                kernels::relu(&mut out);
                out
            }
            OpKind::Gelu => {
                let mut out = get(node.inputs()[0]).clone();
                kernels::gelu(&mut out);
                out
            }
            OpKind::Softmax => {
                let mut out = get(node.inputs()[0]).clone();
                let groups: usize = node.out_shape().dims()[..node.out_shape().rank() - 1]
                    .iter()
                    .product();
                kernels::softmax(&mut out, groups.max(1));
                out
            }
            OpKind::LayerNorm => {
                let mut out = get(node.inputs()[0]).clone();
                let groups: usize = node.out_shape().dims()[..node.out_shape().rank() - 1]
                    .iter()
                    .product();
                kernels::layer_norm(&mut out, groups.max(1));
                out
            }
            OpKind::BatchNorm => {
                let mut out = get(node.inputs()[0]).clone();
                kernels::batch_norm(&mut out);
                out
            }
            OpKind::Add => {
                let a = get(node.inputs()[0]);
                let b = get(node.inputs()[1]);
                let mut out = vec![0i64; a.len()];
                kernels::add_ew(a, b, &mut out);
                out
            }
            OpKind::Pool2d {
                kind,
                kernel,
                stride,
                padding,
            } => {
                let input = get(node.inputs()[0]);
                let (c, h, w) = graph
                    .node(node.inputs()[0])
                    .out_shape()
                    .as_chw()
                    .expect("pool input");
                kernels::pool2d(
                    input,
                    c,
                    h,
                    w,
                    *kernel,
                    *stride,
                    *padding,
                    matches!(kind, PoolKind::Max),
                )
            }
            OpKind::GlobalAvgPool => {
                let input = get(node.inputs()[0]);
                let (c, h, w) = graph
                    .node(node.inputs()[0])
                    .out_shape()
                    .as_chw()
                    .expect("gap input");
                kernels::global_avg_pool(input, c, h, w)
            }
            OpKind::Flatten | OpKind::Reshape { .. } => get(node.inputs()[0]).clone(),
            OpKind::Concat { .. } => {
                let mut out = Vec::new();
                for &i in node.inputs() {
                    out.extend_from_slice(get(i));
                }
                out
            }
            OpKind::Attention { heads } => {
                let q = get(node.inputs()[0]).clone();
                let k = get(node.inputs()[1]).clone();
                let v = get(node.inputs()[2]);
                let (t, d) = node.out_shape().as_tokens().expect("attention output");
                kernels::attention(&q, &k, v, *heads, t, d)
            }
        };
        debug_assert_eq!(
            out.len() as u64,
            node.out_shape().elements(),
            "{} produced wrong element count",
            node.name()
        );
        values.insert(node.id(), out);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_graph::{zoo, Shape};

    #[test]
    fn lenet_executes_with_right_shapes() {
        let g = zoo::lenet5();
        let values = execute(&g);
        for node in g.nodes() {
            assert_eq!(
                values[&node.id()].len() as u64,
                node.out_shape().elements(),
                "{}",
                node.name()
            );
        }
        let out = &values[&g.outputs()[0]];
        assert_eq!(out.len(), 10);
        // not all equal (the pipeline actually computed something)
        assert!(out.iter().any(|&v| v != out[0]));
    }

    #[test]
    fn execution_is_deterministic() {
        let g = zoo::mlp();
        let a = execute(&g);
        let b = execute(&g);
        let out = g.outputs()[0];
        assert_eq!(a[&out], b[&out]);
    }

    #[test]
    fn conv_matches_hand_computation() {
        // 1x2x2 input, 1-channel 1x1 conv: output = x * w[0][0].
        let mut g = Graph::new("t");
        let x = g
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::chw(1, 2, 2),
                },
                [],
            )
            .unwrap();
        let c = g.add("c", OpKind::conv2d(1, 1, 1, 0), [x]).unwrap();
        let values = execute(&g);
        let input = synth_input("x", 4);
        let w = synth_matrix("c", 1, 1).at(0, 0);
        let expect: Vec<i64> = input.iter().map(|&v| v * w).collect();
        assert_eq!(values[&c], expect);
    }

    #[test]
    fn residual_add_matches() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::vec(8),
                },
                [],
            )
            .unwrap();
        let r = g.add("r", OpKind::Relu, [x]).unwrap();
        let s = g.add("s", OpKind::Add, [x, r]).unwrap();
        let values = execute(&g);
        let input = synth_input("x", 8);
        for i in 0..8 {
            assert_eq!(values[&s][i], input[i] + input[i].max(0));
        }
    }

    use cim_graph::Graph;
}
