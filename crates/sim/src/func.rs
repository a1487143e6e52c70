//! The functional simulator.
//!
//! A [`Machine`] holds the buffer hierarchy (global L0, per-core L1) and
//! one logical crossbar array per physical crossbar, and executes a
//! [`MopFlow`] meta-operator by meta-operator. Crossbars store *logical*
//! weights (exact integers); `cim.readxb`/`cim.readrow` perform exact
//! integer MACs over the engaged wordlines. See the crate docs for why
//! this level of abstraction is the right functional oracle.

use crate::kernels;
use crate::weights::WeightStore;
use cim_arch::CimArchitecture;
use cim_graph::Graph;
use cim_mop::{BufRef, BufSpace, CoreOp, DcomFunc, MatId, MetaOp, MopFlow, XbAddr};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced while executing a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A CIM operation referenced a weight matrix absent from the store.
    UnknownMat {
        /// The dangling reference.
        mat: MatId,
    },
    /// A read touched crossbar cells that were never programmed.
    UnprogrammedCells {
        /// The crossbar.
        xb: XbAddr,
        /// First offending wordline.
        row: u32,
    },
    /// A DCOM operator received the wrong number of sources.
    DcomArity {
        /// The function mnemonic.
        func: &'static str,
        /// Sources supplied.
        got: usize,
        /// Sources required.
        expected: usize,
    },
    /// The flow is keep-bounded and dropped statements, so executing it
    /// would run only a prefix of the program.
    Truncated {
        /// Statements the flow stores.
        kept: usize,
        /// Statements pushed into it.
        pushed: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownMat { mat } => write!(f, "weight matrix {mat} not in store"),
            SimError::UnprogrammedCells { xb, row } => {
                write!(f, "{xb} row {row} read before being programmed")
            }
            SimError::DcomArity {
                func,
                got,
                expected,
            } => {
                write!(f, "dcom `{func}` got {got} sources, expects {expected}")
            }
            SimError::Truncated { kept, pushed } => {
                write!(
                    f,
                    "the flow keeps {kept} of its {pushed} statements and cannot be executed"
                )
            }
        }
    }
}

impl Error for SimError {}

/// One logical crossbar: `rows × cols` integer cells plus a programmed
/// mask.
#[derive(Debug, Clone)]
struct Xbar {
    cols: u32,
    cells: Vec<i64>,
    programmed: Vec<bool>,
}

impl Xbar {
    fn new(rows: u32, cols: u32) -> Self {
        let n = rows as usize * cols as usize;
        Xbar {
            cols,
            cells: vec![0; n],
            programmed: vec![false; n],
        }
    }

    fn idx(&self, row: u32, col: u32) -> usize {
        row as usize * self.cols as usize + col as usize
    }
}

/// The functional-simulation machine state.
#[derive(Debug, Clone)]
pub struct Machine {
    l0: Vec<i64>,
    l1: HashMap<u32, Vec<i64>>,
    xbs: HashMap<XbAddr, Xbar>,
    xb_rows: u32,
    xb_cols: u32,
}

impl Machine {
    /// Creates a machine for `arch` (crossbars are instantiated lazily).
    #[must_use]
    pub fn new(arch: &CimArchitecture) -> Self {
        Machine {
            l0: Vec::new(),
            l1: HashMap::new(),
            xbs: HashMap::new(),
            xb_rows: arch.crossbar().shape().rows,
            xb_cols: arch.crossbar().shape().cols,
        }
    }

    /// Loads every graph input tensor into its L0 position (using the
    /// same deterministic synthesis as the reference executor).
    pub fn load_inputs(&mut self, graph: &Graph, layout: &cim_compiler::codegen::FlowLayout) {
        for node in graph.nodes() {
            if let cim_graph::OpKind::Input { shape } = node.op() {
                let data = crate::weights::synth_input(node.name(), shape.elements());
                let off = layout.offset(node.id());
                self.write_l0(off, &data);
            }
        }
    }

    /// Writes `data` into L0 at element offset `off`.
    pub fn write_l0(&mut self, off: u64, data: &[i64]) {
        let end = off as usize + data.len();
        if self.l0.len() < end {
            self.l0.resize(end, 0);
        }
        self.l0[off as usize..end].copy_from_slice(data);
    }

    /// Reads `len` elements of L0 starting at `off` (zero-filled past the
    /// high-water mark).
    #[must_use]
    pub fn read_l0(&self, off: u64, len: usize) -> Vec<i64> {
        (0..len)
            .map(|i| self.l0.get(off as usize + i).copied().unwrap_or(0))
            .collect()
    }

    fn read_buf(&self, r: BufRef, len: usize) -> Vec<i64> {
        let buf: &[i64] = match r.space {
            BufSpace::L0 => &self.l0,
            BufSpace::L1(core) => self.l1.get(&core).map(Vec::as_slice).unwrap_or(&[]),
        };
        (0..len)
            .map(|i| buf.get(r.offset as usize + i).copied().unwrap_or(0))
            .collect()
    }

    fn write_buf(&mut self, r: BufRef, data: &[i64]) {
        let buf: &mut Vec<i64> = match r.space {
            BufSpace::L0 => &mut self.l0,
            BufSpace::L1(core) => self.l1.entry(core).or_default(),
        };
        let end = r.offset as usize + data.len();
        if buf.len() < end {
            buf.resize(end, 0);
        }
        buf[r.offset as usize..end].copy_from_slice(data);
    }

    fn accumulate_buf(&mut self, r: BufRef, data: &[i64]) {
        let buf: &mut Vec<i64> = match r.space {
            BufSpace::L0 => &mut self.l0,
            BufSpace::L1(core) => self.l1.entry(core).or_default(),
        };
        let end = r.offset as usize + data.len();
        if buf.len() < end {
            buf.resize(end, 0);
        }
        for (slot, v) in buf[r.offset as usize..end].iter_mut().zip(data) {
            *slot += v;
        }
    }

    fn xbar(&mut self, addr: XbAddr) -> &mut Xbar {
        let (rows, cols) = (self.xb_rows, self.xb_cols);
        self.xbs
            .entry(addr)
            .or_insert_with(|| Xbar::new(rows, cols))
    }

    /// Executes a flow against the weight store.
    ///
    /// # Errors
    /// Returns a [`SimError`] on a keep-bounded flow that dropped
    /// statements ([`MopFlow::bounded`]), dangling weight references,
    /// reads of unprogrammed cells, or malformed DCOM operands.
    pub fn execute(&mut self, flow: &MopFlow, store: &WeightStore) -> Result<(), SimError> {
        if !flow.is_complete() {
            return Err(SimError::Truncated {
                kept: flow.stmts().len(),
                pushed: flow.pushed(),
            });
        }
        for stmt in flow.stmts() {
            // Parallel blocks execute their members in listed order; the
            // code generator guarantees that intra-block dependencies
            // (partial-sum accumulation) are ordered correctly.
            for op in stmt.ops() {
                self.step(op, store)?;
            }
        }
        Ok(())
    }

    fn step(&mut self, op: &MetaOp, store: &WeightStore) -> Result<(), SimError> {
        match op {
            MetaOp::Mov { src, dst, len } => {
                let data = self.read_buf(*src, *len as usize);
                self.write_buf(*dst, &data);
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
                let mat = store
                    .mat(*weights)
                    .ok_or(SimError::UnknownMat { mat: *weights })?
                    .clone();
                let arr = self.xbar(*xb);
                for i in 0..*rows {
                    for j in 0..*cols {
                        let idx = arr.idx(dst_row + i, dst_col + j);
                        arr.cells[idx] = mat.at(src_row + i, src_col + j);
                        arr.programmed[idx] = true;
                    }
                }
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
                let mat = store
                    .mat(*weights)
                    .ok_or(SimError::UnknownMat { mat: *weights })?
                    .clone();
                let arr = self.xbar(*xb);
                for j in 0..*cols {
                    let idx = arr.idx(*row, dst_col + j);
                    arr.cells[idx] = mat.at(*src_row, src_col + j);
                    arr.programmed[idx] = true;
                }
            }
            MetaOp::ReadXb {
                xb,
                row_start,
                rows,
                col_start,
                cols,
                src,
                dst,
                accumulate,
            }
            | MetaOp::ReadRow {
                xb,
                row_start,
                rows,
                col_start,
                cols,
                src,
                dst,
                accumulate,
            } => {
                let input = self.read_buf(*src, *rows as usize);
                let arr = self.xbar(*xb);
                let mut out = vec![0i64; *cols as usize];
                for i in 0..*rows {
                    for j in 0..*cols {
                        let idx = arr.idx(row_start + i, col_start + j);
                        if !arr.programmed[idx] {
                            return Err(SimError::UnprogrammedCells {
                                xb: *xb,
                                row: row_start + i,
                            });
                        }
                        out[j as usize] += input[i as usize] * arr.cells[idx];
                    }
                }
                if *accumulate {
                    self.accumulate_buf(*dst, &out);
                } else {
                    self.write_buf(*dst, &out);
                }
            }
            MetaOp::ReadCore {
                op,
                weights,
                core: _,
                src,
                dst,
            } => {
                let mat = store
                    .mat(*weights)
                    .ok_or(SimError::UnknownMat { mat: *weights })?
                    .clone();
                let input = self.read_buf(*src, op.input_len() as usize);
                let out = match op {
                    CoreOp::Conv {
                        in_c,
                        in_h,
                        in_w,
                        out_c,
                        kernel,
                        stride,
                        padding,
                    } => {
                        let (in_c, in_h, in_w) = (*in_c as usize, *in_h as usize, *in_w as usize);
                        let (k, s, p) = (*kernel as usize, *stride as usize, *padding as i64);
                        let oh = (in_h + 2 * p as usize - k) / s + 1;
                        let ow = (in_w + 2 * p as usize - k) / s + 1;
                        let mut out = vec![0i64; *out_c as usize * oh * ow];
                        for co in 0..*out_c as usize {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let mut acc = 0i64;
                                    for ci in 0..in_c {
                                        for ky in 0..k {
                                            for kx in 0..k {
                                                let iy = (oy * s + ky) as i64 - p;
                                                let ix = (ox * s + kx) as i64 - p;
                                                if iy < 0
                                                    || ix < 0
                                                    || iy >= in_h as i64
                                                    || ix >= in_w as i64
                                                {
                                                    continue;
                                                }
                                                let x = input[ci * in_h * in_w
                                                    + iy as usize * in_w
                                                    + ix as usize];
                                                let r = (ci * k + ky) * k + kx;
                                                acc += x * mat.at(r as u32, co as u32);
                                            }
                                        }
                                    }
                                    out[co * oh * ow + oy * ow + ox] = acc;
                                }
                            }
                        }
                        out
                    }
                    CoreOp::Linear { in_f, out_f, batch } => {
                        let (in_f, out_f, batch) =
                            (*in_f as usize, *out_f as usize, *batch as usize);
                        let mut out = vec![0i64; batch * out_f];
                        for b in 0..batch {
                            for c in 0..out_f {
                                let mut acc = 0i64;
                                for r in 0..in_f {
                                    acc += input[b * in_f + r] * mat.at(r as u32, c as u32);
                                }
                                out[b * out_f + c] = acc;
                            }
                        }
                        out
                    }
                    CoreOp::MatMul { m, k, n } => {
                        let (m, k, n) = (*m as usize, *k as usize, *n as usize);
                        let mut out = vec![0i64; m * n];
                        for i in 0..m {
                            for j in 0..n {
                                let mut acc = 0i64;
                                for t in 0..k {
                                    acc += input[i * k + t] * mat.at(t as u32, j as u32);
                                }
                                out[i * n + j] = acc;
                            }
                        }
                        out
                    }
                };
                self.write_buf(*dst, &out);
            }
            MetaOp::Dcom {
                func,
                srcs,
                dst,
                len,
            } => {
                if srcs.len() != func.arity() {
                    return Err(SimError::DcomArity {
                        func: func.mnemonic(),
                        got: srcs.len(),
                        expected: func.arity(),
                    });
                }
                let len = *len as usize;
                match func {
                    DcomFunc::Zero => {
                        self.write_buf(*dst, &vec![0i64; len]);
                    }
                    DcomFunc::Relu => {
                        let mut d = self.read_buf(srcs[0], len);
                        kernels::relu(&mut d);
                        self.write_buf(*dst, &d);
                    }
                    DcomFunc::Gelu => {
                        let mut d = self.read_buf(srcs[0], len);
                        kernels::gelu(&mut d);
                        self.write_buf(*dst, &d);
                    }
                    DcomFunc::Softmax { groups } => {
                        let mut d = self.read_buf(srcs[0], len);
                        kernels::softmax(&mut d, *groups as usize);
                        self.write_buf(*dst, &d);
                    }
                    DcomFunc::LayerNorm { groups } => {
                        let mut d = self.read_buf(srcs[0], len);
                        kernels::layer_norm(&mut d, *groups as usize);
                        self.write_buf(*dst, &d);
                    }
                    DcomFunc::BatchNorm => {
                        let mut d = self.read_buf(srcs[0], len);
                        kernels::batch_norm(&mut d);
                        self.write_buf(*dst, &d);
                    }
                    DcomFunc::ShiftAcc => {
                        let d = self.read_buf(srcs[0], len);
                        self.accumulate_buf(*dst, &d);
                    }
                    DcomFunc::AddEw => {
                        let a = self.read_buf(srcs[0], len);
                        let b = self.read_buf(srcs[1], len);
                        let mut out = vec![0i64; len];
                        kernels::add_ew(&a, &b, &mut out);
                        self.write_buf(*dst, &out);
                    }
                    DcomFunc::MaxPool {
                        c,
                        h,
                        w,
                        kernel,
                        stride,
                        padding,
                    }
                    | DcomFunc::AvgPool {
                        c,
                        h,
                        w,
                        kernel,
                        stride,
                        padding,
                    } => {
                        let is_max = matches!(func, DcomFunc::MaxPool { .. });
                        let input =
                            self.read_buf(srcs[0], (*c as usize) * (*h as usize) * (*w as usize));
                        let out = kernels::pool2d(
                            &input,
                            *c as usize,
                            *h as usize,
                            *w as usize,
                            *kernel as usize,
                            *stride as usize,
                            *padding as usize,
                            is_max,
                        );
                        self.write_buf(*dst, &out);
                    }
                    DcomFunc::GlobalAvgPool { c, h, w } => {
                        let input =
                            self.read_buf(srcs[0], (*c as usize) * (*h as usize) * (*w as usize));
                        let out =
                            kernels::global_avg_pool(&input, *c as usize, *h as usize, *w as usize);
                        self.write_buf(*dst, &out);
                    }
                    DcomFunc::Attention { heads, tokens, dim } => {
                        let n = (*tokens as usize) * (*dim as usize);
                        let q = self.read_buf(srcs[0], n);
                        let k = self.read_buf(srcs[1], n);
                        let v = self.read_buf(srcs[2], n);
                        let out = kernels::attention(
                            &q,
                            &k,
                            &v,
                            *heads as usize,
                            *tokens as usize,
                            *dim as usize,
                        );
                        self.write_buf(*dst, &out);
                    }
                    _ => {
                        // Future DCOM extensions (the enum is
                        // non-exhaustive): treat as identity move.
                        let d = self.read_buf(srcs[0], len);
                        self.write_buf(*dst, &d);
                    }
                }
            }
            // `MetaOp` is non-exhaustive; future operators must extend the
            // simulator before flows using them can run.
            other => unimplemented!("functional simulator: unsupported meta-operator {other:?}"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::presets;
    use cim_compiler::{codegen, Compiler};
    use cim_graph::{zoo, Graph, OpKind, Shape};

    /// End-to-end oracle: compile, generate flow, execute, compare with
    /// the reference executor on every node-level output.
    fn assert_flow_matches_reference(graph: &Graph, arch: &cim_arch::CimArchitecture) {
        let compiled = Compiler::new().compile(graph, arch).unwrap();
        let (flow, layout) = codegen::generate_flow(&compiled, graph, arch).unwrap();
        flow.validate(arch).unwrap();
        let store = WeightStore::for_flow(&flow);
        let mut machine = Machine::new(arch);
        machine.load_inputs(graph, &layout);
        machine.execute(&flow, &store).unwrap();
        let expected = reference_outputs(graph);
        for (id, want) in expected {
            let got = machine.read_l0(layout.offset(id), want.len());
            assert_eq!(
                got,
                want,
                "{}@{}: node {} diverges",
                graph.name(),
                arch.name(),
                graph.node(id).name()
            );
        }
    }

    fn reference_outputs(graph: &Graph) -> Vec<(cim_graph::NodeId, Vec<i64>)> {
        let values = crate::reference::execute(graph);
        graph
            .nodes()
            .map(|n| (n.id(), values[&n.id()].clone()))
            .collect()
    }

    fn small_conv() -> Graph {
        let mut g = Graph::new("small");
        let x = g
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::chw(2, 6, 6),
                },
                [],
            )
            .unwrap();
        let c = g.add("conv", OpKind::conv2d(4, 3, 1, 1), [x]).unwrap();
        let r = g.add("relu", OpKind::Relu, [c]).unwrap();
        let _ = g.add("pool", OpKind::max_pool(2, 2), [r]).unwrap();
        g
    }

    #[test]
    fn xbm_flow_matches_reference_small_conv() {
        assert_flow_matches_reference(&small_conv(), &presets::isaac_baseline());
    }

    #[test]
    fn wlm_flow_matches_reference_small_conv() {
        assert_flow_matches_reference(&small_conv(), &presets::table2_example());
    }

    #[test]
    fn cm_flow_matches_reference_small_conv() {
        assert_flow_matches_reference(&small_conv(), &presets::jia_isscc21());
    }

    #[test]
    fn jain_wlm_flow_matches_reference() {
        // 256-row crossbars with parallel_row 32 and no analog S&A: the
        // row-wave emission plus ALU accumulation must still be exact.
        let mut g = Graph::new("deep-rows");
        let x = g
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::vec(300),
                },
                [],
            )
            .unwrap();
        let _ = g.add("fc", OpKind::linear(20), [x]).unwrap();
        assert_flow_matches_reference(&g, &presets::jain_sram());
    }

    #[test]
    fn lenet_matches_reference_on_xbm_and_wlm() {
        let g = zoo::lenet5();
        assert_flow_matches_reference(&g, &presets::isaac_baseline());
        assert_flow_matches_reference(&g, &presets::isaac_baseline_wlm());
    }

    #[test]
    fn mlp_matches_reference_everywhere() {
        // The full MLP exceeds Jain's 8-crossbar macro (folding, which
        // code generation does not support), so the Jain case uses a
        // narrower net; `jain_wlm_flow_matches_reference` covers the
        // deep-row case separately.
        let g = zoo::mlp();
        for arch in [
            presets::jia_isscc21(),
            presets::isaac_baseline(),
            presets::isaac_baseline_wlm(),
        ] {
            assert_flow_matches_reference(&g, &arch);
        }
        let mut tiny = Graph::new("tiny-mlp");
        let x = tiny
            .add(
                "x",
                OpKind::Input {
                    shape: Shape::vec(64),
                },
                [],
            )
            .unwrap();
        let f1 = tiny.add("fc1", OpKind::linear(16), [x]).unwrap();
        let r = tiny.add("relu", OpKind::Relu, [f1]).unwrap();
        let _ = tiny.add("fc2", OpKind::linear(8), [r]).unwrap();
        assert_flow_matches_reference(&tiny, &presets::jain_sram());
    }

    #[test]
    fn unprogrammed_read_detected() {
        let arch = presets::isaac_baseline();
        let mut flow = MopFlow::new("bad");
        flow.push(MetaOp::ReadXb {
            xb: XbAddr::new(0, 0),
            row_start: 0,
            rows: 4,
            col_start: 0,
            cols: 4,
            src: BufRef::l1(0, 0),
            dst: BufRef::l1(0, 8),
            accumulate: false,
        });
        let store = WeightStore::for_flow(&flow);
        let mut m = Machine::new(&arch);
        assert!(matches!(
            m.execute(&flow, &store),
            Err(SimError::UnprogrammedCells { .. })
        ));
    }

    #[test]
    fn unknown_mat_detected() {
        let arch = presets::isaac_baseline();
        let mut flow = MopFlow::new("bad");
        // Bypass declaration by constructing the op directly.
        flow.push(MetaOp::WriteXb {
            xb: XbAddr::new(0, 0),
            weights: MatId(7),
            src_row: 0,
            src_col: 0,
            dst_row: 0,
            dst_col: 0,
            rows: 1,
            cols: 1,
        });
        let store = WeightStore::for_flow(&flow);
        let mut m = Machine::new(&arch);
        assert!(matches!(
            m.execute(&flow, &store),
            Err(SimError::UnknownMat { .. })
        ));
    }

    #[test]
    fn dcom_arity_checked() {
        let arch = presets::isaac_baseline();
        let mut flow = MopFlow::new("bad");
        flow.push(MetaOp::Dcom {
            func: DcomFunc::AddEw,
            srcs: vec![BufRef::l0(0)],
            dst: BufRef::l0(8),
            len: 4,
        });
        let store = WeightStore::for_flow(&flow);
        let mut m = Machine::new(&arch);
        assert!(matches!(
            m.execute(&flow, &store),
            Err(SimError::DcomArity { .. })
        ));
    }

    #[test]
    fn truncated_flow_refused() {
        let g = small_conv();
        let arch = presets::isaac_baseline();
        let compiled = Compiler::new().compile(&g, &arch).unwrap();
        let (flow, _) = codegen::generate_flow_bounded(&compiled, &g, &arch, 3).unwrap();
        let store = WeightStore::for_flow(&flow);
        let mut m = Machine::new(&arch);
        let err = m.execute(&flow, &store).unwrap_err();
        assert_eq!(
            err,
            SimError::Truncated {
                kept: 3,
                pushed: flow.pushed()
            }
        );
        assert!(flow.pushed() > 3);
        assert!(err.to_string().contains("cannot be executed"));
    }

    #[test]
    fn l0_roundtrip() {
        let arch = presets::isaac_baseline();
        let mut m = Machine::new(&arch);
        m.write_l0(5, &[1, 2, 3]);
        assert_eq!(m.read_l0(5, 3), vec![1, 2, 3]);
        assert_eq!(m.read_l0(100, 2), vec![0, 0]);
    }
}
