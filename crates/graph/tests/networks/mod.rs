//! Random valid networks: a chain of layer choices over a random CHW
//! input, shared by the property tests and the reader's fuzz test.

use cim_graph::{Graph, OpKind, Shape};
use proptest::prelude::*;

/// A random chain of layer choices applied to a random CHW input.
#[derive(Debug, Clone)]
pub enum Layer {
    Conv {
        channels: usize,
        kernel: usize,
        padded: bool,
    },
    Relu,
    Bn,
    Pool,
    AddSkip,
}

pub fn layers() -> impl Strategy<Value = Vec<Layer>> {
    proptest::collection::vec(
        prop_oneof![
            (1usize..8, prop_oneof![Just(1usize), Just(3)], any::<bool>()).prop_map(
                |(channels, kernel, padded)| Layer::Conv {
                    channels,
                    kernel,
                    padded
                }
            ),
            Just(Layer::Relu),
            Just(Layer::Bn),
            Just(Layer::Pool),
            Just(Layer::AddSkip),
        ],
        1..8,
    )
}

pub fn build(in_c: usize, hw: usize, layers: &[Layer]) -> Graph {
    let mut g = Graph::new("prop");
    let mut h = g
        .add(
            "x",
            OpKind::Input {
                shape: Shape::chw(in_c, hw, hw),
            },
            [],
        )
        .unwrap();
    for (i, layer) in layers.iter().enumerate() {
        let (_, cur_h, _) = g.node(h).out_shape().as_chw().unwrap();
        match layer {
            Layer::Conv {
                channels,
                kernel,
                padded,
            } => {
                let padding = usize::from(*padded);
                if cur_h + 2 * padding < *kernel {
                    continue;
                }
                h = g
                    .add(
                        format!("c{i}"),
                        OpKind::conv2d(*channels, *kernel, 1, padding),
                        [h],
                    )
                    .unwrap();
            }
            Layer::Relu => h = g.add(format!("r{i}"), OpKind::Relu, [h]).unwrap(),
            Layer::Bn => h = g.add(format!("b{i}"), OpKind::BatchNorm, [h]).unwrap(),
            Layer::Pool => {
                if cur_h >= 2 {
                    h = g.add(format!("p{i}"), OpKind::max_pool(2, 2), [h]).unwrap();
                }
            }
            Layer::AddSkip => {
                // Same-shape residual: relu branch added back.
                let r = g.add(format!("s{i}"), OpKind::Relu, [h]).unwrap();
                h = g.add(format!("a{i}"), OpKind::Add, [h, r]).unwrap();
            }
        }
    }
    let f = g.add("flat", OpKind::Flatten, [h]).unwrap();
    let _ = g.add("fc", OpKind::linear(10), [f]).unwrap();
    g
}
