//! Meta-operator flow generation (paper §3.4, Figure 16).
//!
//! Lowers a [`Compiled`] schedule into an executable [`MopFlow`] using the
//! meta-operator set of the target's computing mode:
//!
//! * **CM** — one `cim.readcore` per CIM operator;
//! * **XBM** — `cim.writexb` programming + per-MVM gather / `parallel
//!   { cim.readxb … }` / scatter;
//! * **WLM** — `cim.writerow` programming honoring the VVM remapping
//!   layout + wave-by-wave `parallel { cim.readrow … }` activations.
//!
//! Digital operators lower to DCOM meta-operators and data movement to
//! DMOV, exactly as in the paper's BNF (Figure 10). The generated flow is
//! *functionally executable*: the `cim-sim` functional simulator runs it
//! and must reproduce the reference executor's output bit-exactly, which
//! verifies the mapping (partial-sum splits, bit-slice column packing,
//! wordline remapping) rather than just printing it.
//!
//! Weight-matrix layout convention: a convolution's matrix row index is
//! `(c_in · k + ky) · k + kx` — the same convention the reference executor
//! and the functional simulator's weight synthesis use.

use crate::compile::Compiled;
use crate::mapping::OpMapping;
use crate::{CompileError, Result};
use cim_arch::{CimArchitecture, ComputingMode};
use cim_graph::{Graph, Node, NodeId, OpKind};
use cim_mop::{BufRef, CoreOp, DcomFunc, FlowStats, MatId, MetaOp, MopFlow, XbAddr};
use std::collections::HashMap;

/// Buffer layout of a generated flow: where each graph node's output
/// tensor lives in the global (L0) buffer.
#[derive(Debug, Clone, Default)]
pub struct FlowLayout {
    pub(crate) offsets: HashMap<NodeId, u64>,
    pub(crate) total: u64,
}

impl FlowLayout {
    /// L0 element offset of `node`'s output tensor.
    ///
    /// # Panics
    /// Panics if the node was not laid out (not part of the generated
    /// graph).
    #[must_use]
    pub fn offset(&self, node: NodeId) -> u64 {
        self.offsets[&node]
    }

    /// Total L0 elements the flow uses.
    #[must_use]
    pub fn total_elements(&self) -> u64 {
        self.total
    }
}

/// Where a stage's replicas live: a contiguous run of crossbar slots.
#[derive(Debug, Clone, Copy)]
struct Placement {
    base_core: u32,
    dup: u32,
    spread: u32,
}

/// Generates the executable meta-operator flow for a compiled model. The
/// flow keeps every statement; [`generate_flow_bounded`] is the same
/// generator storing only a prefix.
///
/// # Errors
/// * [`CompileError::FlowTooLarge`] when the estimated meta-operator count
///   exceeds [`crate::CompileOptions::max_flow_ops`];
/// * [`CompileError::Internal`] for schedules code generation does not
///   support (folded operators, dynamic `MatMul` weights).
pub fn generate_flow(
    compiled: &Compiled,
    graph: &Graph,
    arch: &CimArchitecture,
) -> Result<(MopFlow, FlowLayout)> {
    generate_flow_bounded(compiled, graph, arch, usize::MAX)
}

/// [`generate_flow`], but the flow stores only its first `keep`
/// statements ([`MopFlow::bounded`]): every statement is still generated
/// and counted, so [`FlowStats::of`](cim_mop::FlowStats::of) and
/// [`MopFlow::pushed`] equal the whole flow's, and
/// [`MopFlow::head`]`(n)` equals the whole flow's for every `n <= keep`.
/// Such a flow cannot be validated or executed. The
/// [`CompileOptions::max_flow_ops`](crate::CompileOptions::max_flow_ops)
/// estimate is checked exactly as for the whole flow, whatever `keep` is.
///
/// This walks the whole flow to count it. A caller that already holds
/// the counts, such as a served head after
/// [`CodegenPass::keeping`](crate::CodegenPass::keeping)`(0)`, gets the
/// same flow from the codegen pass for the cost of its first `keep`
/// statements.
///
/// # Errors
/// As [`generate_flow`].
pub fn generate_flow_bounded(
    compiled: &Compiled,
    graph: &Graph,
    arch: &CimArchitecture,
    keep: usize,
) -> Result<(MopFlow, FlowLayout)> {
    generate(compiled, graph, arch, keep, None)
}

/// [`generate_flow_bounded`]`(compiled, graph, arch, keep)`. When
/// `counted` holds the whole flow's counts (the codegen pass's counting
/// step), the generator stops once the flow stores `keep` statements and
/// the flow takes `counted`'s counts for the rest: the same statements,
/// [`MopFlow::pushed`] and [`FlowStats`], for the
/// cost of the head.
pub(crate) fn generate(
    compiled: &Compiled,
    graph: &Graph,
    arch: &CimArchitecture,
    keep: usize,
    counted: Option<&MopFlow>,
) -> Result<(MopFlow, FlowLayout)> {
    let mode = arch.mode();
    let weight_bits = compiled.options().weight_bits;

    // --- flow-size estimate (checked first: the budget error is the
    // actionable one for users pointing the generator at a large model) --
    let mut estimate: u64 = 0;
    for &id in &graph.cim_nodes() {
        let m = OpMapping::of(graph, id, arch, weight_bits).expect("cim node maps");
        let per_mvm = match mode {
            ComputingMode::Cm => 0,
            _ => {
                u64::from(m.vxb_size()) * u64::from(m.activation_groups(arch))
                    + u64::from(m.rows)
                    + u64::from(m.cols)
            }
        };
        let folds = u64::from(m.cores_per_replica(arch))
            .div_ceil(u64::from(arch.chip().core_count()))
            .max(1);
        estimate +=
            folds * (m.mvm_count * (per_mvm + 4) + u64::from(m.rows) * u64::from(m.h_xbs)) + 1;
    }
    if estimate > compiled.options().max_flow_ops {
        return Err(CompileError::FlowTooLarge {
            estimated: estimate,
            limit: compiled.options().max_flow_ops,
        });
    }

    // --- reject unsupported schedules -----------------------------------
    for node in graph.nodes() {
        if matches!(node.op(), OpKind::MatMul) {
            return Err(CompileError::Internal {
                message: format!(
                    "code generation requires static weights; `{}` is a dynamic matmul",
                    node.name()
                ),
            });
        }
    }

    // --- L0 layout -------------------------------------------------------
    let mut layout = FlowLayout::default();
    for node in graph.nodes() {
        layout.offsets.insert(node.id(), layout.total);
        layout.total += node.out_shape().elements();
    }

    // --- placements ------------------------------------------------------
    let spreads_by_stage: HashMap<usize, u32> = match &compiled.vvm {
        Some(v) => v
            .segments
            .iter()
            .zip(&v.spreads)
            .flat_map(|(seg, sp)| seg.plans.iter().zip(sp).map(|(p, &k)| (p.stage, k)))
            .collect(),
        None => HashMap::new(),
    };
    let mut placements: HashMap<NodeId, Placement> = HashMap::new();
    for seg in compiled.segments() {
        let mut cursor: u32 = 0;
        for plan in &seg.plans {
            let stage = &compiled.cg.stages[plan.stage];
            let spread = spreads_by_stage.get(&plan.stage).copied().unwrap_or(1);
            // The schedule's duplication may exceed what the placement
            // region physically holds once spreading is layered on;
            // clamp for code generation.
            let slots = u64::from(plan.cores.max(stage.mapping.cores_per_replica(arch)))
                * u64::from(arch.core().xb_count());
            let footprint = u64::from(spread) * u64::from(stage.mapping.vxb_size());
            let dup_fit = (slots / footprint.max(1)).max(1) as u32;
            placements.insert(
                stage.node,
                Placement {
                    base_core: cursor,
                    dup: plan.duplication.clamp(1, dup_fit),
                    spread,
                },
            );
            cursor += plan.cores.max(stage.mapping.cores_per_replica(arch));
        }
    }

    // --- emission ----------------------------------------------------------
    let mut gen = Generator {
        graph,
        arch,
        layout: &layout,
        flow: MopFlow::bounded(format!("{}@{}", graph.name(), arch.name()), keep),
        mats: HashMap::new(),
        stop_when_full: counted.is_some(),
    };
    // Declare every weight matrix up front.
    for &id in &graph.cim_nodes() {
        let mapping = OpMapping::of(graph, id, arch, weight_bits).expect("cim node maps");
        let mat = gen
            .flow
            .declare_mat(mapping.rows, mapping.cols, graph.node(id).name());
        gen.mats.insert(id, mat);
    }
    // Segments execute serially and *reuse* the chip's crossbars, so each
    // segment's programming (the paper's `Init:` block, Figure 16) must be
    // emitted immediately before that segment's compute — emitting all
    // writes up front would let a later segment clobber an earlier one's
    // weights.
    let segment_of: HashMap<NodeId, usize> = {
        let mut map = HashMap::new();
        for (si, seg) in compiled.cg.segments.iter().enumerate() {
            for plan in &seg.plans {
                map.insert(compiled.cg.stages[plan.stage].node, si);
            }
        }
        map
    };
    let stages_by_segment: Vec<Vec<NodeId>> = {
        let mut v: Vec<Vec<NodeId>> = vec![Vec::new(); compiled.cg.segments.len()];
        for (node, &si) in &segment_of {
            v[si].push(*node);
        }
        for seg in &mut v {
            seg.sort();
        }
        v
    };
    let mut opened = vec![false; stages_by_segment.len()];
    // Compute, in topological order, opening segments as they begin.
    for node in graph.nodes() {
        if gen.done() {
            break;
        }
        match node.op() {
            OpKind::Input { .. } => {}
            op if op.is_cim_supported() => {
                let si = segment_of[&node.id()];
                let folds_of = |id: NodeId| -> u32 {
                    let m = OpMapping::of(graph, id, arch, weight_bits).expect("cim node maps");
                    m.cores_per_replica(arch)
                        .div_ceil(arch.chip().core_count())
                        .max(1)
                };
                if !opened[si] {
                    opened[si] = true;
                    for &stage_node in &stages_by_segment[si] {
                        if folds_of(stage_node) > 1 {
                            continue; // folded stages program per fold, inline
                        }
                        let mapping = OpMapping::of(graph, stage_node, arch, weight_bits)
                            .expect("cim node maps");
                        let placement = placements[&stage_node];
                        let mat = gen.mats[&stage_node];
                        match mode {
                            ComputingMode::Cm => {}
                            ComputingMode::Xbm => gen.emit_xbm_writes(&mapping, placement, mat),
                            ComputingMode::Wlm => gen.emit_wlm_writes(&mapping, placement, mat),
                        }
                    }
                }
                let mapping =
                    OpMapping::of(graph, node.id(), arch, weight_bits).expect("cim node maps");
                let placement = placements[&node.id()];
                let mat = gen.mats[&node.id()];
                let folded = folds_of(node.id()) > 1;
                match mode {
                    ComputingMode::Cm => gen.emit_cm(node, &mapping, placement, mat),
                    ComputingMode::Xbm if folded => {
                        gen.emit_folded_compute(node, &mapping, mat, false)
                    }
                    ComputingMode::Wlm if folded => {
                        gen.emit_folded_compute(node, &mapping, mat, true)
                    }
                    ComputingMode::Xbm => {
                        gen.emit_crossbar_compute(node, &mapping, placement, false)
                    }
                    ComputingMode::Wlm => {
                        gen.emit_crossbar_compute(node, &mapping, placement, true)
                    }
                }
            }
            _ => gen.emit_digital(node),
        }
    }
    let mut flow = gen.flow;
    if let Some(counted) = counted {
        debug_assert_eq!(
            (flow.name(), flow.mats()),
            (counted.name(), counted.mats()),
            "counts of another flow"
        );
        flow.set_counts(counted.pushed(), FlowStats::of(counted));
    }
    Ok((flow, layout))
}

struct Generator<'a> {
    graph: &'a Graph,
    arch: &'a CimArchitecture,
    layout: &'a FlowLayout,
    flow: MopFlow,
    mats: HashMap<NodeId, MatId>,
    /// Whether to stop generating once the flow stores all it keeps (the
    /// counts come from elsewhere).
    stop_when_full: bool,
}

impl Generator<'_> {
    /// The early exit every emission loop checks: nothing generated from
    /// here on would be stored.
    fn done(&self) -> bool {
        self.stop_when_full && self.flow.is_full()
    }

    fn xb_per_core(&self) -> u32 {
        self.arch.core().xb_count()
    }

    /// Crossbar address of slot `slot` within a stage placed at
    /// `base_core`.
    fn slot_addr(&self, base_core: u32, slot: u32) -> XbAddr {
        XbAddr::new(
            base_core + slot / self.xb_per_core(),
            slot % self.xb_per_core(),
        )
    }

    /// The `(row0, col0, rows, cols)` extents of VXB tile `(vi, hi)`.
    fn tile(&self, m: &OpMapping, vi: u32, hi: u32) -> (u32, u32, u32, u32) {
        let xb_rows = self.arch.crossbar().shape().rows;
        let lcp = m.logical_cols_per_xb(self.arch);
        let row0 = vi * xb_rows;
        let col0 = hi * lcp;
        let rr = (m.rows - row0).min(xb_rows);
        let cc = (m.cols - col0).min(lcp);
        (row0, col0, rr, cc)
    }

    // --- CM ---------------------------------------------------------------

    fn emit_cm(&mut self, node: Node<'_>, m: &OpMapping, placement: Placement, mat: MatId) {
        let in_id = node.inputs()[0];
        let src = BufRef::l0(self.layout.offset(in_id));
        let dst = BufRef::l0(self.layout.offset(node.id()));
        let op = match node.op() {
            OpKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                let (c, h, w) = self
                    .graph
                    .node(in_id)
                    .out_shape()
                    .as_chw()
                    .expect("conv input is [C,H,W]");
                CoreOp::Conv {
                    in_c: c as u32,
                    in_h: h as u32,
                    in_w: w as u32,
                    out_c: *out_channels as u32,
                    kernel: *kernel as u32,
                    stride: *stride as u32,
                    padding: *padding as u32,
                }
            }
            OpKind::Linear { out_features } => {
                let batch = (self.graph.mvm_count(node.id())).max(1) as u32;
                CoreOp::Linear {
                    in_f: m.rows,
                    out_f: *out_features as u32,
                    batch,
                }
            }
            _ => unreachable!("CM emission only covers static CIM ops"),
        };
        self.flow.push(MetaOp::ReadCore {
            op,
            weights: mat,
            core: placement.base_core,
            src,
            dst,
        });
    }

    // --- XBM programming ----------------------------------------------------

    fn emit_xbm_writes(&mut self, m: &OpMapping, placement: Placement, mat: MatId) {
        let vxb = m.vxb_size();
        for r in 0..placement.dup {
            if self.done() {
                return;
            }
            let replica_base = r * placement.spread * vxb;
            for vi in 0..m.v_xbs {
                for hi in 0..m.h_xbs {
                    let (row0, col0, rr, cc) = self.tile(m, vi, hi);
                    let slot = replica_base + (vi * m.h_xbs + hi);
                    self.flow.push(MetaOp::WriteXb {
                        xb: self.slot_addr(placement.base_core, slot),
                        weights: mat,
                        src_row: row0,
                        src_col: col0,
                        dst_row: 0,
                        dst_col: 0,
                        rows: rr,
                        cols: cc,
                    });
                }
            }
        }
    }

    // --- WLM programming (honors the remapping layout) ----------------------

    /// Crossbar placement of original matrix row `rr` under spread `k`:
    /// group `g = (rr mod xb_rows) / parallel_row` goes to spread position
    /// `s = g mod k` at local wordline `(g / k)·parallel_row + offset`.
    fn wlm_row_home(&self, rr: u32, k: u32) -> (u32, u32, u32) {
        let xb_rows = self.arch.crossbar().shape().rows;
        let pr = self.arch.crossbar().parallel_row();
        let vi = rr / xb_rows;
        let lr = rr % xb_rows;
        let g = lr / pr;
        let s = g % k;
        let local_row = (g / k) * pr + (lr % pr);
        (vi, s, local_row)
    }

    fn emit_wlm_writes(&mut self, m: &OpMapping, placement: Placement, mat: MatId) {
        let k = placement.spread.max(1);
        for r in 0..placement.dup {
            let replica_base = r * k * m.vxb_size();
            for rr in 0..m.rows {
                if self.done() {
                    return;
                }
                let (vi, s, local_row) = self.wlm_row_home(rr, k);
                for hi in 0..m.h_xbs {
                    let (_, col0, _, cc) = self.tile(m, vi, hi);
                    let slot = replica_base + (vi * k + s) * m.h_xbs + hi;
                    self.flow.push(MetaOp::WriteRow {
                        xb: self.slot_addr(placement.base_core, slot),
                        row: local_row,
                        weights: mat,
                        src_row: rr,
                        src_col: col0,
                        dst_col: 0,
                        cols: cc,
                    });
                }
            }
        }
    }

    // --- compute ------------------------------------------------------------

    /// Emits the full MVM loop of one CIM operator (XBM or WLM reads).
    fn emit_crossbar_compute(
        &mut self,
        node: Node<'_>,
        m: &OpMapping,
        placement: Placement,
        wlm: bool,
    ) {
        let in_id = node.inputs()[0];
        let in_base = self.layout.offset(in_id);
        let out_base = self.layout.offset(node.id());
        for mvm in 0..m.mvm_count {
            if self.done() {
                return;
            }
            let replica = (mvm % u64::from(placement.dup)) as u32;
            let first_core = placement.base_core
                + replica * placement.spread * m.vxb_size() / self.xb_per_core();
            let staging = BufRef::l1(first_core, 0);
            let out_reg = BufRef::l1(first_core, u64::from(m.rows));
            self.emit_gather(node, m, mvm, in_base, staging);
            if wlm {
                self.emit_wlm_reads(m, placement, replica, staging, out_reg);
            } else {
                self.emit_xbm_reads(m, placement, replica, staging, out_reg);
            }
            self.emit_scatter(node, m, mvm, out_base, out_reg);
        }
    }

    /// Time-multiplexed emission for an operator whose single replica
    /// exceeds the whole chip: the VXB tile grid is processed in chunks of
    /// `total_slots` crossbars. Each fold reprograms the chip, replays
    /// every MVM's gather, computes the chunk's partial products and
    /// accumulates them into the L0 output (`shiftacc`), so the final
    /// tensor is exact despite the folding.
    fn emit_folded_compute(&mut self, node: Node<'_>, m: &OpMapping, mat: MatId, wlm: bool) {
        let total_slots = self.arch.chip().core_count() * self.xb_per_core();
        let xb = self.arch.crossbar();
        let pr = xb.parallel_row();
        let in_id = node.inputs()[0];
        let in_base = self.layout.offset(in_id);
        let out_base = self.layout.offset(node.id());
        let tiles: Vec<(u32, u32)> = (0..m.v_xbs)
            .flat_map(|vi| (0..m.h_xbs).map(move |hi| (vi, hi)))
            .collect();
        for (fold, chunk) in tiles.chunks(total_slots as usize).enumerate() {
            // Program this fold's tiles at slots 0..chunk.len().
            for (slot, &(vi, hi)) in chunk.iter().enumerate() {
                if self.done() {
                    return;
                }
                let (row0, col0, rr, cc) = self.tile(m, vi, hi);
                let addr = self.slot_addr(0, slot as u32);
                if wlm {
                    for r in 0..rr {
                        self.flow.push(MetaOp::WriteRow {
                            xb: addr,
                            row: r,
                            weights: mat,
                            src_row: row0 + r,
                            src_col: col0,
                            dst_col: 0,
                            cols: cc,
                        });
                    }
                } else {
                    self.flow.push(MetaOp::WriteXb {
                        xb: addr,
                        weights: mat,
                        src_row: row0,
                        src_col: col0,
                        dst_row: 0,
                        dst_col: 0,
                        rows: rr,
                        cols: cc,
                    });
                }
            }
            // Replay every MVM against this chunk.
            for mvm in 0..m.mvm_count {
                if self.done() {
                    return;
                }
                let staging = BufRef::l1(0, 0);
                let out_reg = BufRef::l1(0, u64::from(m.rows));
                self.emit_gather(node, m, mvm, in_base, staging);
                self.flow.push(MetaOp::Dcom {
                    func: DcomFunc::Zero,
                    srcs: vec![],
                    dst: out_reg,
                    len: u64::from(m.cols),
                });
                let mut ops = Vec::new();
                for (slot, &(vi, hi)) in chunk.iter().enumerate() {
                    let (row0, col0, rr, cc) = self.tile(m, vi, hi);
                    let addr = self.slot_addr(0, slot as u32);
                    if wlm {
                        let groups = rr.div_ceil(pr);
                        for g in 0..groups {
                            let rows_in_group = (rr - g * pr).min(pr);
                            ops.push(MetaOp::ReadRow {
                                xb: addr,
                                row_start: g * pr,
                                rows: rows_in_group,
                                col_start: 0,
                                cols: cc,
                                src: staging.at(u64::from(row0 + g * pr)),
                                dst: out_reg.at(u64::from(col0)),
                                accumulate: true,
                            });
                        }
                    } else {
                        ops.push(MetaOp::ReadXb {
                            xb: addr,
                            row_start: 0,
                            rows: rr,
                            col_start: 0,
                            cols: cc,
                            src: staging.at(u64::from(row0)),
                            dst: out_reg.at(u64::from(col0)),
                            accumulate: true,
                        });
                    }
                }
                self.flow.push_parallel(ops);
                self.emit_scatter_acc(node, m, mvm, out_base, out_reg, fold > 0);
            }
        }
    }

    /// Gathers the `mvm`-th input vector into the staging buffer.
    fn emit_gather(
        &mut self,
        node: Node<'_>,
        m: &OpMapping,
        mvm: u64,
        in_base: u64,
        staging: BufRef,
    ) {
        match node.op() {
            OpKind::Conv2d {
                kernel,
                stride,
                padding,
                ..
            } => {
                let (in_c, in_h, in_w) = self
                    .graph
                    .node(node.inputs()[0])
                    .out_shape()
                    .as_chw()
                    .expect("conv input is [C,H,W]");
                let (_, _, out_w) = node.out_shape().as_chw().expect("conv output is [C,H,W]");
                let oy = (mvm / out_w as u64) as i64;
                let ox = (mvm % out_w as u64) as i64;
                let k = *kernel as i64;
                let s = *stride as i64;
                let p = *padding as i64;
                if *padding > 0 {
                    self.flow.push(MetaOp::Dcom {
                        func: DcomFunc::Zero,
                        srcs: vec![],
                        dst: staging,
                        len: u64::from(m.rows),
                    });
                }
                for c in 0..in_c as i64 {
                    for ky in 0..k {
                        let iy = oy * s - p + ky;
                        if iy < 0 || iy >= in_h as i64 {
                            continue;
                        }
                        let kx_lo = (p - ox * s).max(0);
                        let kx_hi = (in_w as i64 - 1 - ox * s + p).min(k - 1);
                        if kx_lo > kx_hi {
                            continue;
                        }
                        let ix0 = ox * s - p + kx_lo;
                        let src = in_base
                            + (c as u64) * (in_h as u64) * (in_w as u64)
                            + (iy as u64) * (in_w as u64)
                            + ix0 as u64;
                        let dst_row = ((c * k + ky) * k + kx_lo) as u64;
                        self.flow.push(MetaOp::Mov {
                            src: BufRef::l0(src),
                            dst: staging.at(dst_row),
                            len: (kx_hi - kx_lo + 1) as u64,
                        });
                    }
                }
            }
            OpKind::Linear { .. } => {
                self.flow.push(MetaOp::Mov {
                    src: BufRef::l0(in_base + mvm * u64::from(m.rows)),
                    dst: staging,
                    len: u64::from(m.rows),
                });
            }
            _ => unreachable!("gather only for static CIM ops"),
        }
    }

    /// Whole-crossbar activations: one `parallel` block covering the VXB.
    fn emit_xbm_reads(
        &mut self,
        m: &OpMapping,
        placement: Placement,
        replica: u32,
        staging: BufRef,
        out_reg: BufRef,
    ) {
        let replica_base = replica * placement.spread * m.vxb_size();
        let mut ops = Vec::with_capacity(m.vxb_size() as usize);
        for vi in 0..m.v_xbs {
            for hi in 0..m.h_xbs {
                let (row0, col0, rr, cc) = self.tile(m, vi, hi);
                let slot = replica_base + vi * m.h_xbs + hi;
                ops.push(MetaOp::ReadXb {
                    xb: self.slot_addr(placement.base_core, slot),
                    row_start: 0,
                    rows: rr,
                    col_start: 0,
                    cols: cc,
                    src: staging.at(u64::from(row0)),
                    dst: out_reg.at(u64::from(col0)),
                    accumulate: vi > 0,
                });
            }
        }
        self.flow.push_parallel(ops);
    }

    /// Wave-by-wave wordline activations honoring the remapping layout.
    fn emit_wlm_reads(
        &mut self,
        m: &OpMapping,
        placement: Placement,
        replica: u32,
        staging: BufRef,
        out_reg: BufRef,
    ) {
        let xb = self.arch.crossbar();
        let xb_rows = xb.shape().rows;
        let pr = xb.parallel_row();
        let k = placement.spread.max(1);
        let replica_base = replica * k * m.vxb_size();
        let max_block_groups = xb_rows.min(m.rows).div_ceil(pr);
        let waves = max_block_groups.div_ceil(k);
        for w in 0..waves {
            let mut ops = Vec::new();
            for vi in 0..m.v_xbs {
                let block_rows = (m.rows - vi * xb_rows).min(xb_rows);
                let block_groups = block_rows.div_ceil(pr);
                for s in 0..k {
                    let g = w * k + s;
                    if g >= block_groups {
                        continue;
                    }
                    let rows_in_group = (block_rows - g * pr).min(pr);
                    let orig_row0 = vi * xb_rows + g * pr;
                    let local_row0 = (g / k) * pr;
                    for hi in 0..m.h_xbs {
                        let (_, col0, _, cc) = self.tile(m, vi, hi);
                        let slot = replica_base + (vi * k + s) * m.h_xbs + hi;
                        ops.push(MetaOp::ReadRow {
                            xb: self.slot_addr(placement.base_core, slot),
                            row_start: local_row0,
                            rows: rows_in_group,
                            col_start: 0,
                            cols: cc,
                            src: staging.at(u64::from(orig_row0)),
                            dst: out_reg.at(u64::from(col0)),
                            accumulate: !(vi == 0 && g == 0),
                        });
                    }
                }
            }
            self.flow.push_parallel(ops);
        }
    }

    /// Scatters an MVM's output vector into the node's L0 tensor.
    fn emit_scatter(
        &mut self,
        node: Node<'_>,
        m: &OpMapping,
        mvm: u64,
        out_base: u64,
        out_reg: BufRef,
    ) {
        self.emit_scatter_acc(node, m, mvm, out_base, out_reg, false);
    }

    /// Scatter with optional accumulation (`shiftacc`) for fold partials.
    fn emit_scatter_acc(
        &mut self,
        node: Node<'_>,
        m: &OpMapping,
        mvm: u64,
        out_base: u64,
        out_reg: BufRef,
        accumulate: bool,
    ) {
        let mut push = |src: BufRef, dst: BufRef, len: u64| {
            if accumulate {
                self.flow.push(MetaOp::Dcom {
                    func: DcomFunc::ShiftAcc,
                    srcs: vec![src],
                    dst,
                    len,
                });
            } else {
                self.flow.push(MetaOp::Mov { src, dst, len });
            }
        };
        match node.op() {
            OpKind::Conv2d { .. } => {
                let (out_c, oh, ow) = node.out_shape().as_chw().expect("conv output");
                let oy = mvm / ow as u64;
                let ox = mvm % ow as u64;
                for c in 0..out_c as u64 {
                    push(
                        out_reg.at(c),
                        BufRef::l0(out_base + c * (oh as u64) * (ow as u64) + oy * ow as u64 + ox),
                        1,
                    );
                }
            }
            OpKind::Linear { .. } => {
                push(
                    out_reg,
                    BufRef::l0(out_base + mvm * u64::from(m.cols)),
                    u64::from(m.cols),
                );
            }
            _ => unreachable!("scatter only for static CIM ops"),
        }
    }

    // --- digital --------------------------------------------------------------

    fn emit_digital(&mut self, node: Node<'_>) {
        let dst = BufRef::l0(self.layout.offset(node.id()));
        let len = node.out_shape().elements();
        let srcs: Vec<BufRef> = node
            .inputs()
            .iter()
            .map(|&i| BufRef::l0(self.layout.offset(i)))
            .collect();
        let in_shape = node
            .inputs()
            .first()
            .map(|&i| self.graph.node(i).out_shape().clone());
        let func = match node.op() {
            OpKind::Relu => DcomFunc::Relu,
            OpKind::Gelu => DcomFunc::Gelu,
            OpKind::Softmax => {
                let rows = node.out_shape().dims()[..node.out_shape().rank() - 1]
                    .iter()
                    .product::<usize>() as u32;
                DcomFunc::Softmax {
                    groups: rows.max(1),
                }
            }
            OpKind::LayerNorm => {
                let rows = node.out_shape().dims()[..node.out_shape().rank() - 1]
                    .iter()
                    .product::<usize>() as u32;
                DcomFunc::LayerNorm {
                    groups: rows.max(1),
                }
            }
            OpKind::BatchNorm => DcomFunc::BatchNorm,
            OpKind::Add => DcomFunc::AddEw,
            OpKind::Pool2d {
                kind,
                kernel,
                stride,
                padding,
            } => {
                let (c, h, w) = in_shape
                    .as_ref()
                    .and_then(|s| s.as_chw())
                    .expect("pool input is [C,H,W]");
                let (c, h, w) = (c as u32, h as u32, w as u32);
                let (kernel, stride, padding) = (*kernel as u32, *stride as u32, *padding as u32);
                match kind {
                    cim_graph::PoolKind::Max => DcomFunc::MaxPool {
                        c,
                        h,
                        w,
                        kernel,
                        stride,
                        padding,
                    },
                    cim_graph::PoolKind::Avg => DcomFunc::AvgPool {
                        c,
                        h,
                        w,
                        kernel,
                        stride,
                        padding,
                    },
                }
            }
            OpKind::GlobalAvgPool => {
                let (c, h, w) = in_shape
                    .as_ref()
                    .and_then(|s| s.as_chw())
                    .expect("gap input is [C,H,W]");
                DcomFunc::GlobalAvgPool {
                    c: c as u32,
                    h: h as u32,
                    w: w as u32,
                }
            }
            OpKind::Attention { heads } => {
                let (t, d) = node
                    .out_shape()
                    .as_tokens()
                    .expect("attention output is [tokens, dim]");
                DcomFunc::Attention {
                    heads: *heads as u32,
                    tokens: t as u32,
                    dim: d as u32,
                }
            }
            OpKind::Flatten | OpKind::Reshape { .. } => {
                self.flow.push(MetaOp::Mov {
                    src: srcs[0],
                    dst,
                    len,
                });
                return;
            }
            OpKind::Concat { .. } => {
                let mut off = 0;
                for (&input, src) in node.inputs().iter().zip(&srcs) {
                    let n = self.graph.node(input).out_shape().elements();
                    self.flow.push(MetaOp::Mov {
                        src: *src,
                        dst: dst.at(off),
                        len: n,
                    });
                    off += n;
                }
                return;
            }
            other => unreachable!("unhandled digital op {other:?}"),
        };
        self.flow.push(MetaOp::Dcom {
            func,
            srcs,
            dst,
            len,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompileOptions, Compiler};
    use cim_arch::presets;
    use cim_graph::{zoo, Shape};

    fn small_conv_graph() -> Graph {
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
        let _ = g.add("relu", OpKind::Relu, [c]).unwrap();
        g
    }

    #[test]
    fn xbm_flow_validates() {
        let g = small_conv_graph();
        let arch = presets::isaac_baseline();
        let c = Compiler::new().compile(&g, &arch).unwrap();
        let (flow, layout) = generate_flow(&c, &g, &arch).unwrap();
        flow.validate(&arch).expect("flow is architecturally valid");
        let stats = FlowStats::of(&flow);
        // 36 output positions -> 36 MVM read activations (single crossbar).
        assert_eq!(stats.read_xb, 36);
        assert!(stats.write_xb >= 1);
        assert!(stats.dcom >= 1); // relu (+ zero fills)
        assert!(layout.total_elements() >= (2 + 4 + 4) * 36);
    }

    #[test]
    fn wlm_flow_validates_and_respects_parallel_row() {
        let g = small_conv_graph();
        let arch = presets::table2_example(); // WLM, parallel_row 16
        let c = Compiler::new().compile(&g, &arch).unwrap();
        let (flow, _) = generate_flow(&c, &g, &arch).unwrap();
        flow.validate(&arch).expect("flow is architecturally valid");
        let stats = FlowStats::of(&flow);
        assert!(stats.read_row > 0);
        assert!(stats.write_row > 0);
        assert_eq!(stats.read_xb, 0);
    }

    #[test]
    fn cm_flow_uses_readcore() {
        let g = small_conv_graph();
        let arch = presets::jia_isscc21();
        let c = Compiler::new().compile(&g, &arch).unwrap();
        let (flow, _) = generate_flow(&c, &g, &arch).unwrap();
        flow.validate(&arch).expect("flow is architecturally valid");
        let stats = FlowStats::of(&flow);
        assert_eq!(stats.read_core, 1);
        assert_eq!(stats.read_xb + stats.read_row, 0);
    }

    #[test]
    fn lenet_flow_generates_for_every_mode() {
        let g = zoo::lenet5();
        for arch in [
            presets::jia_isscc21(),
            presets::isaac_baseline(),
            presets::isaac_baseline_wlm(),
        ] {
            let c = Compiler::new().compile(&g, &arch).unwrap();
            let (flow, _) = generate_flow(&c, &g, &arch).unwrap();
            flow.validate(&arch)
                .unwrap_or_else(|e| panic!("{}: {e}", arch.name()));
            assert!(flow.op_count() > 0);
        }
    }

    #[test]
    fn flow_budget_enforced() {
        let g = zoo::vgg16();
        let arch = presets::isaac_baseline();
        let opts = CompileOptions {
            max_flow_ops: 1000,
            ..CompileOptions::default()
        };
        let c = Compiler::with_options(opts).compile(&g, &arch).unwrap();
        let err = generate_flow(&c, &g, &arch).unwrap_err();
        assert!(matches!(err, CompileError::FlowTooLarge { .. }));
        assert_eq!(generate_flow_bounded(&c, &g, &arch, 1).unwrap_err(), err);
    }

    #[test]
    fn dynamic_matmul_rejected() {
        let mut g = Graph::new("dyn");
        let a = g
            .add(
                "a",
                OpKind::Input {
                    shape: Shape::tokens(4, 8),
                },
                [],
            )
            .unwrap();
        let b = g
            .add(
                "b",
                OpKind::Input {
                    shape: Shape::tokens(8, 4),
                },
                [],
            )
            .unwrap();
        let _ = g.add("mm", OpKind::MatMul, [a, b]).unwrap();
        let arch = presets::isaac_baseline();
        let c = Compiler::new().compile(&g, &arch).unwrap();
        assert!(matches!(
            generate_flow(&c, &g, &arch),
            Err(CompileError::Internal { .. })
        ));
    }
}
