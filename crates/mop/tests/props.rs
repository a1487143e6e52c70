//! Property tests on the meta-operator ISA: generated-within-bounds flows
//! always validate, the printer never panics and always names the
//! operator, and statistics are self-consistent, whether counted as the
//! flow is built or by scanning it, and whether the flow is bounded or not.

use cim_arch::presets;
use cim_mop::{BufRef, DcomFunc, FlowStats, MetaOp, MopFlow, Stmt, XbAddr};
use proptest::prelude::*;

/// A strategy producing meta-operators that are in-bounds for the ISAAC
/// baseline (768 cores × 16 crossbars × 128×128, parallel_row 8).
fn in_bounds_op(mat_rows: u32, mat_cols: u32) -> impl Strategy<Value = MetaOp> {
    let xb = (0u32..768, 0u32..16).prop_map(|(c, x)| XbAddr::new(c, x));
    prop_oneof![
        // mov
        (0u64..4096, 0u64..4096, 1u64..64).prop_map(|(s, d, len)| MetaOp::Mov {
            src: BufRef::l0(s),
            dst: BufRef::l0(d),
            len,
        }),
        // dcom relu
        (0u64..4096, 0u64..4096, 1u64..64).prop_map(|(s, d, len)| MetaOp::Dcom {
            func: DcomFunc::Relu,
            srcs: vec![BufRef::l0(s)],
            dst: BufRef::l0(d),
            len,
        }),
        // readxb within the crossbar and within the declared matrix
        (xb.clone(), 1u32..64, 1u32..32).prop_map(|(xb, rows, cols)| MetaOp::ReadXb {
            xb,
            row_start: 0,
            rows: rows.min(128),
            col_start: 0,
            cols: cols.min(128),
            src: BufRef::l1(xb.core, 0),
            dst: BufRef::l1(xb.core, 256),
            accumulate: false,
        }),
        // writexb of a slice of the declared matrix
        (xb, 1u32..16, 1u32..16).prop_map(move |(xb, rows, cols)| MetaOp::WriteXb {
            xb,
            weights: cim_mop::MatId(0),
            src_row: 0,
            src_col: 0,
            dst_row: 0,
            dst_col: 0,
            rows: rows.min(mat_rows),
            cols: cols.min(mat_cols),
        }),
    ]
}

fn flows() -> impl Strategy<Value = MopFlow> {
    proptest::collection::vec(in_bounds_op(64, 64), 0..24).prop_map(|ops| {
        let mut flow = MopFlow::new("prop");
        let _ = flow.declare_mat(64, 64, "w");
        for op in ops {
            flow.push(op);
        }
        flow
    })
}

/// One step of building a flow, `(kind, ops, keep)`: kind 0 pushes each
/// op alone, kind 1 pushes `ops` as one parallel block (of width 0, 1 or
/// more), kind 2 appends a sub-flow of one-op statements that a bounded
/// build keeps up to `keep` of.
type Step = (u8, Vec<MetaOp>, usize);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u8..3,
            proptest::collection::vec(in_bounds_op(64, 64), 0..4),
            0usize..4,
        ),
        0..16,
    )
}

/// Builds a flow from `steps`, keeping everything when `keep` is `None`.
fn build(steps: &[Step], keep: Option<usize>) -> MopFlow {
    let flow_keeping = |k: usize| match keep {
        Some(_) => MopFlow::bounded("b", k),
        None => MopFlow::new("b"),
    };
    let mut flow = flow_keeping(keep.unwrap_or(0));
    for (kind, ops, sub_keep) in steps {
        match kind {
            0 => ops.iter().for_each(|op| flow.push(op.clone())),
            1 => flow.push_parallel(ops.clone()),
            _ => {
                let mut sub = flow_keeping(*sub_keep);
                ops.iter().for_each(|op| sub.push(op.clone()));
                flow.extend_from(sub);
            }
        }
    }
    flow
}

/// The statistics by a scan over the stored statements: how
/// `FlowStats::of` counted before flows counted as they were built.
fn scan(flow: &MopFlow) -> FlowStats {
    let mut stats = FlowStats::default();
    for stmt in flow.stmts() {
        if let Stmt::Parallel(ops) = stmt {
            stats.parallel_blocks += 1;
            stats.max_parallel_width = stats.max_parallel_width.max(ops.len());
        } else {
            stats.max_parallel_width = stats.max_parallel_width.max(1);
        }
        for op in stmt.ops() {
            match op {
                MetaOp::ReadCore { .. } => stats.read_core += 1,
                MetaOp::ReadXb { .. } => stats.read_xb += 1,
                MetaOp::WriteXb { .. } => stats.write_xb += 1,
                MetaOp::ReadRow { .. } => stats.read_row += 1,
                MetaOp::WriteRow { .. } => stats.write_row += 1,
                MetaOp::Dcom { .. } => stats.dcom += 1,
                MetaOp::Mov { len, .. } => {
                    stats.mov += 1;
                    stats.moved_elements += len;
                }
                _ => unreachable!("a meta-operator the oracle does not know"),
            }
        }
    }
    stats
}

/// Free text as a graph or node name can carry it: fragments including
/// `'\n'`, `"\r\n"` and a lone `'\r'`.
fn names() -> impl Strategy<Value = String> {
    const FRAGMENTS: [&str; 7] = ["m", "@isaac", "\n", "\r\n", "\r", " ", ""];
    proptest::collection::vec(0usize..FRAGMENTS.len(), 0..6)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `head(n)` is the rendering's first `n` lines for every `n`, so the
    /// cuts land inside `parallel { … }` blocks and inside names that
    /// span lines.
    #[test]
    fn head_is_the_rendered_flows_first_lines(
        name in names(),
        weights in proptest::collection::vec(names(), 0..3),
        steps in steps(),
    ) {
        let mut flow = MopFlow::new(name);
        for weight in weights {
            let _ = flow.declare_mat(64, 64, weight);
        }
        for (kind, ops, _) in steps {
            match kind {
                0 => ops.into_iter().for_each(|op| flow.push(op)),
                _ => flow.push_parallel(ops),
            }
        }
        let text = flow.to_string();
        let total = text.lines().count();
        for n in 0..=total + 1 {
            let expected: Vec<&str> = text.lines().take(n).collect();
            prop_assert_eq!(flow.head(n), expected);
        }
    }

    #[test]
    fn running_stats_equal_the_scan(steps in steps(), keep in 0usize..12) {
        let whole = build(&steps, None);
        prop_assert!(whole.is_complete());
        prop_assert_eq!(whole.pushed(), whole.stmts().len());
        prop_assert_eq!(FlowStats::of(&whole), scan(&whole));
        prop_assert_eq!(whole.op_count(), whole.iter_ops().count());

        let bounded = build(&steps, Some(keep));
        prop_assert_eq!(FlowStats::of(&bounded), scan(&whole));
        prop_assert_eq!(bounded.pushed(), whole.pushed());
        prop_assert_eq!(bounded.op_count(), whole.op_count());
        // What a bounded flow stores is a prefix of the whole flow, and
        // all of the first `keep` statements unless a bounded sub-flow
        // dropped some of its own before the cut.
        let kept = bounded.stmts().len();
        prop_assert!(kept <= keep);
        prop_assert_eq!(bounded.stmts(), &whole.stmts()[..kept]);
        let subs_whole = steps.iter().all(|(kind, ops, k)| *kind != 2 || ops.len() <= *k);
        if subs_whole {
            prop_assert_eq!(kept, keep.min(whole.pushed()));
        }
        prop_assert_eq!(bounded.is_complete(), kept == whole.pushed());
    }

    #[test]
    fn in_bounds_flows_validate_on_the_baseline(flow in flows()) {
        let arch = presets::isaac_baseline();
        prop_assert!(flow.validate(&arch).is_ok());
    }

    #[test]
    fn printer_output_names_every_operator(flow in flows()) {
        let text = flow.to_string();
        for op in flow.iter_ops() {
            let marker = match op {
                MetaOp::Mov { .. } => "mov(",
                MetaOp::Dcom { func, .. } => func.mnemonic(),
                MetaOp::ReadXb { .. } => "cim.readxb",
                MetaOp::WriteXb { .. } => "cim.writexb",
                MetaOp::ReadCore { .. } => "cim.readcore",
                MetaOp::ReadRow { .. } => "cim.readrow",
                MetaOp::WriteRow { .. } => "cim.writerow",
                _ => continue,
            };
            prop_assert!(text.contains(marker), "missing {marker} in output");
        }
    }

    #[test]
    fn stats_total_matches_op_count(flow in flows()) {
        let stats = FlowStats::of(&flow);
        prop_assert_eq!(stats.total(), flow.op_count());
        prop_assert_eq!(flow.iter_ops().count(), flow.op_count());
        // Moved elements equal the sum of mov lengths.
        let movs: u64 = flow
            .iter_ops()
            .filter_map(|op| match op {
                MetaOp::Mov { len, .. } => Some(*len),
                _ => None,
            })
            .sum();
        prop_assert_eq!(stats.moved_elements, movs);
    }

    #[test]
    fn parallel_grouping_preserves_ops(ops in proptest::collection::vec(in_bounds_op(64, 64), 2..10)) {
        let mut grouped = MopFlow::new("g");
        let _ = grouped.declare_mat(64, 64, "w");
        grouped.push_parallel(ops.clone());
        let mut flat = MopFlow::new("f");
        let _ = flat.declare_mat(64, 64, "w");
        for op in ops {
            flat.push(op);
        }
        prop_assert_eq!(grouped.op_count(), flat.op_count());
        // A width-n block is a single statement.
        prop_assert_eq!(grouped.stmts().len(), 1);
        prop_assert!(matches!(grouped.stmts()[0], Stmt::Parallel(_)));
    }
}
