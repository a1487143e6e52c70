//! Pipeline-stage extraction.
//!
//! The scheduler views the DNN as a topologically-ordered list of *stages*,
//! one per CIM operator. Digital operators (ReLU, pooling, normalization,
//! the fused attention core, …) do not occupy crossbars; each is attached
//! to the stage of its most recent CIM ancestor and executes on that
//! stage's core-local ALUs, as in the paper's workflow where
//! CIM-unsupported nodes constrain the producing operator's duplication
//! via the `ALU` parameter (§3.3.2).

use std::fmt;
use std::ops::Deref;

use crate::inline::InlineVec;
use crate::mapping::OpMapping;
use cim_arch::CimArchitecture;
use cim_graph::{Graph, NodeId, OpKind};

/// The digital nodes attached to one stage: up to four in place (every
/// zoo stage has at most four), more on the heap.
pub type DigitalNodes = InlineVec<NodeId, 4>;

/// A stage's name: its node's, held in place up to 22 bytes (every zoo
/// name is), so a stage list costs no heap block per name. It reads as a
/// `str`, and prints and compares like the `String` it stands in for.
#[derive(Clone, PartialEq, Eq)]
pub struct StageName(InlineVec<u8, 22>);

impl StageName {
    /// The name `name`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        StageName(InlineVec::from(name.as_bytes()))
    }

    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("a stage name is built from a str")
    }
}

impl Deref for StageName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for StageName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for StageName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<&str> for StageName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// One pipeline stage: a CIM operator plus its attached digital work.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The CIM node this stage executes.
    pub node: NodeId,
    /// Node name (for diagnostics and reports).
    pub name: StageName,
    /// Crossbar mapping of the operator.
    pub mapping: OpMapping,
    /// Digital nodes attached to this stage.
    pub digital: DigitalNodes,
    /// ALU operations of the attached digital nodes.
    pub alu_ops: u64,
    /// Input elements streamed into the stage per inference.
    pub in_elements: u64,
    /// Output elements streamed out per inference (after digital ops).
    pub out_elements: u64,
    /// Fraction of this stage's compute that must finish before the next
    /// stage can start (pipeline fill). 1.0 for fully-blocking consumers
    /// (e.g. a Linear after Flatten needs the whole tensor).
    pub fill_fraction: f64,
    /// Whether the stage's weights must be rewritten each inference
    /// (dynamic `MatMul`).
    pub dynamic_weights: bool,
}

impl Stage {
    /// ALU cycles for the attached digital work, given the ALU throughput
    /// of one core and the number of cores executing replicas of this
    /// stage (each core contributes its own ALU).
    #[must_use]
    pub fn alu_cycles(&self, alu_ops_per_cycle: Option<u64>, cores: u32) -> f64 {
        match alu_ops_per_cycle {
            None => 0.0,
            Some(rate) => self.alu_ops as f64 / (rate as f64 * f64::from(cores.max(1))),
        }
    }
}

/// Approximate ALU operation count of one digital node.
fn digital_ops(graph: &Graph, id: NodeId) -> u64 {
    let node = graph.node(id);
    let elems = node.out_shape().elements();
    match node.op() {
        OpKind::Attention { .. } => graph.macs(id),
        OpKind::Softmax | OpKind::LayerNorm => 5 * elems,
        OpKind::Gelu => 4 * elems,
        OpKind::Pool2d { kernel, .. } => elems * (*kernel as u64) * (*kernel as u64),
        OpKind::GlobalAvgPool => {
            // reduces the whole input feature map
            graph.node(node.inputs()[0]).out_shape().elements()
        }
        _ => elems,
    }
}

/// Pipeline-fill fraction of producer stage `node` given the operator that
/// consumes its (post-digital) output.
fn fill_fraction(graph: &Graph, producer: NodeId, consumer: Option<&OpKind>) -> f64 {
    let out = graph.node(producer).out_shape();
    match consumer {
        // A convolution/pool consumer can start once `kernel` rows of the
        // producer's output feature map exist.
        Some(OpKind::Conv2d { kernel, .. }) | Some(OpKind::Pool2d { kernel, .. }) => {
            match out.as_chw() {
                Some((_, h, _)) => (*kernel as f64 / h as f64).min(1.0),
                None => 1.0,
            }
        }
        // Token-wise consumers (linear / matmul / attention over [t, d])
        // can start after one token row.
        Some(OpKind::Linear { .. }) | Some(OpKind::MatMul) => match out.as_tokens() {
            Some((t, _)) => 1.0 / t as f64,
            // Linear after Flatten/GAP consumes the whole tensor.
            None => 1.0,
        },
        Some(OpKind::Attention { .. }) => 1.0,
        // Element-wise / unknown consumers: one feature-map row.
        Some(_) => match out.as_chw() {
            Some((_, h, _)) => 1.0 / h as f64,
            None => match out.as_tokens() {
                Some((t, _)) => 1.0 / t as f64,
                None => 1.0,
            },
        },
        // Final stage: its full latency counts.
        None => 1.0,
    }
}

/// Extracts the pipeline stages of `graph` for `arch`.
///
/// Every CIM node becomes a stage in topological order; digital nodes are
/// attached to the stage of their most recent CIM ancestor (digital work
/// before the first CIM node attaches to the first stage).
#[must_use]
pub fn extract_stages(graph: &Graph, arch: &CimArchitecture, weight_bits: u32) -> Vec<Stage> {
    let cim_ids = graph.cim_nodes();
    if cim_ids.is_empty() {
        return Vec::new();
    }
    // Stage index of each CIM node. Node ids are dense arena indices, so
    // plain vectors beat hash maps on this hot path (re-run per
    // recompile).
    let mut stage_of_cim: Vec<Option<usize>> = vec![None; graph.len()];
    for (i, &id) in cim_ids.iter().enumerate() {
        stage_of_cim[id.index()] = Some(i);
    }
    // Propagate "latest CIM ancestor stage" through the graph.
    let mut latest_stage: Vec<usize> = vec![0; graph.len()];
    let mut attached: Vec<Vec<NodeId>> = vec![Vec::new(); cim_ids.len()];
    for node in graph.nodes() {
        let id = node.id();
        if let Some(s) = stage_of_cim[id.index()] {
            latest_stage[id.index()] = s;
            continue;
        }
        let stage = node
            .inputs()
            .iter()
            .map(|i| latest_stage[i.index()])
            .max()
            .unwrap_or(0);
        latest_stage[id.index()] = stage;
        if !matches!(node.op(), OpKind::Input { .. }) {
            attached[stage].push(id);
        }
    }
    // The consumer operator of each stage's final output: the first CIM
    // node (or graph output) downstream. For fill estimation we use the
    // next stage's operator.
    let mut stages = Vec::with_capacity(cim_ids.len());
    for (i, &id) in cim_ids.iter().enumerate() {
        let mapping = OpMapping::of(graph, id, arch, weight_bits)
            .expect("cim_nodes only returns mappable nodes");
        let node = graph.node(id);
        let digital = DigitalNodes::from(attached[i].as_slice());
        let alu_ops: u64 = digital.iter().map(|&d| digital_ops(graph, d)).sum();
        let in_elements: u64 = node
            .inputs()
            .iter()
            .map(|&p| graph.node(p).out_shape().elements())
            .sum();
        // Output after the attached digital chain: the last attached
        // digital node's shape if any, else the CIM node's own.
        let out_elements = digital
            .last()
            .map(|&d| graph.node(d).out_shape().elements())
            .unwrap_or_else(|| node.out_shape().elements());
        let next_op = cim_ids.get(i + 1).map(|&n| graph.node(n).op());
        let fill = fill_fraction(graph, id, next_op);
        stages.push(Stage {
            node: id,
            name: StageName::new(node.name()),
            mapping,
            digital,
            alu_ops,
            in_elements,
            out_elements,
            fill_fraction: fill,
            dynamic_weights: !node.op().has_static_weights(),
        });
    }
    stages
}

/// Movement cycles for a stage's input+output traffic: the slower of the
/// global-buffer bandwidth and the chip NoC (worst-case per-bit cost), or
/// 0 when both are ideal. This is the term that caps duplication — the
/// paper's "keep the data transfer amount within the NoC and buffer
/// capability" (§3.3.2).
#[must_use]
pub fn movement_cycles(stage: &Stage, arch: &CimArchitecture, act_bits: u32) -> f64 {
    let bits = ((stage.in_elements + stage.out_elements) * u64::from(act_bits)) as f64;
    let buffer = match arch.chip().l0_bw_bits_per_cycle() {
        None => 0.0,
        Some(bw) => bits / bw as f64,
    };
    let noc = bits * arch.chip().noc_cost().worst_case_cycles_per_bit();
    buffer.max(noc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::presets;
    use cim_graph::{zoo, Graph, Shape};

    #[test]
    fn stages_cover_cim_nodes_in_order() {
        let g = zoo::vgg7();
        let arch = presets::isaac_baseline();
        let stages = extract_stages(&g, &arch, 8);
        assert_eq!(stages.len(), g.cim_nodes().len());
        for w in stages.windows(2) {
            assert!(w[0].node < w[1].node);
        }
    }

    #[test]
    fn digital_nodes_attach_to_producers() {
        let g = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let stages = extract_stages(&g, &arch, 8);
        // Every non-input digital node appears exactly once.
        let attached_total: usize = stages.iter().map(|s| s.digital.len()).sum();
        let digital_total = g
            .nodes()
            .filter(|n| !n.op().is_cim_supported() && !matches!(n.op(), OpKind::Input { .. }))
            .count();
        assert_eq!(attached_total, digital_total);
        // conv1 has bn+relu+pool attached.
        assert!(stages[0].digital.len() >= 2);
        assert!(stages[0].alu_ops > 0);
    }

    #[test]
    fn fill_fraction_conv_consumer() {
        let g = zoo::vgg7();
        let arch = presets::isaac_baseline();
        let stages = extract_stages(&g, &arch, 8);
        // First conv (32x32 output) feeding a 3x3 conv: fill = 3/32.
        assert!((stages[0].fill_fraction - 3.0 / 32.0).abs() < 1e-9);
        // The conv before flatten+fc blocks fully.
        let last_conv_fill = stages[stages.len() - 3].fill_fraction;
        assert_eq!(last_conv_fill, 1.0);
    }

    #[test]
    fn vit_attention_is_digital_work() {
        let g = zoo::vit_base();
        let arch = presets::sensitivity_baseline();
        let stages = extract_stages(&g, &arch, 8);
        // q/k/v linears exist; the attention core is attached to the v
        // stage (its latest CIM ancestor).
        let v_stage = stages.iter().find(|s| s.name == "l0.v").unwrap();
        assert!(v_stage.alu_ops > 1_000_000, "{}", v_stage.alu_ops);
        // No stage has dynamic weights (attention core is fused digital).
        assert!(stages.iter().all(|s| !s.dynamic_weights));
    }

    #[test]
    fn movement_uses_l0_bandwidth() {
        let g = zoo::vgg7();
        let arch = presets::isaac_baseline();
        let stages = extract_stages(&g, &arch, 8);
        let m = movement_cycles(&stages[0], &arch, 8);
        let expected = ((stages[0].in_elements + stages[0].out_elements) * 8) as f64 / 384.0;
        assert!((m - expected).abs() < 1e-9);
        // Ideal-bandwidth arch moves for free.
        let ideal = presets::jain_sram();
        let stages2 = extract_stages(&g, &ideal, 8);
        assert_eq!(movement_cycles(&stages2[0], &ideal, 8), 0.0);
    }

    #[test]
    fn empty_graph_has_no_stages() {
        let mut g = Graph::new("empty");
        let _ = g
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::vec(4),
                },
                [],
            )
            .unwrap();
        let arch = presets::isaac_baseline();
        assert!(extract_stages(&g, &arch, 8).is_empty());
    }

    #[test]
    fn alu_cycles_scale_with_cores() {
        let g = zoo::lenet5();
        let arch = presets::isaac_baseline();
        let stages = extract_stages(&g, &arch, 8);
        let s = &stages[0];
        let one = s.alu_cycles(Some(1024), 1);
        let four = s.alu_cycles(Some(1024), 4);
        assert!((one / 4.0 - four).abs() < 1e-9);
        assert_eq!(s.alu_cycles(None, 1), 0.0);
    }
}
