//! Pretty printing in the paper's generated-code syntax (Figure 16).

use crate::{MetaOp, MopFlow, Stmt};
use std::fmt;

impl fmt::Display for MetaOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaOp::ReadCore {
                op,
                weights,
                core,
                src,
                dst,
            } => write!(
                f,
                "cim.readcore({}, params={op}, weights={weights}, coreaddr={core}, src={src}, dst={dst})",
                op.mnemonic()
            ),
            MetaOp::WriteXb {
                xb,
                weights,
                src_row,
                src_col,
                dst_row,
                dst_col,
                rows,
                cols,
            } => write!(
                f,
                "cim.writexb({xb}, mat={weights}[{src_row}:{}, {src_col}:{}] -> [{dst_row}:{}, {dst_col}:{}])",
                src_row + rows,
                src_col + cols,
                dst_row + rows,
                dst_col + cols
            ),
            MetaOp::ReadXb {
                xb,
                row_start,
                rows,
                col_start,
                cols,
                src,
                dst,
                accumulate,
            } => write!(
                f,
                "cim.readxb({xb}, rows={row_start}:{}, cols={col_start}:{}, src={src}, dst={dst}{})",
                row_start + rows,
                col_start + cols,
                if *accumulate { ", acc" } else { "" }
            ),
            MetaOp::WriteRow {
                xb,
                row,
                weights,
                src_row,
                src_col,
                dst_col,
                cols,
            } => write!(
                f,
                "cim.writerow({xb}_row{row}, value={weights}[{src_row}, {src_col}:{}] -> cols {dst_col}:{})",
                src_col + cols,
                dst_col + cols
            ),
            MetaOp::ReadRow {
                xb,
                row_start,
                rows,
                col_start,
                cols,
                src,
                dst,
                accumulate,
            } => write!(
                f,
                "cim.readrow({xb}_row{row_start}, len={rows}, cols={col_start}:{}, src={src}, dst={dst}{})",
                col_start + cols,
                if *accumulate { ", acc" } else { "" }
            ),
            MetaOp::Dcom { func, srcs, dst, len } => {
                write!(f, "{}(", func.mnemonic())?;
                for (i, s) in srcs.iter().enumerate() {
                    if srcs.len() > 1 {
                        write!(f, "src{}={s}, ", i + 1)?;
                    } else {
                        write!(f, "src={s}, ")?;
                    }
                }
                write!(f, "dst={dst}, len={len})")
            }
            MetaOp::Mov { src, dst, len } => write!(f, "mov(src={src}, dst={dst}, len={len})"),
        }
    }
}

/// Statements render `parallel { … }` blocks with the paper's brace syntax
/// and two-space indentation.
impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Op(op) => write!(f, "{op}"),
            Stmt::Parallel(ops) => {
                writeln!(f, "parallel {{")?;
                for op in ops {
                    writeln!(f, "  {op}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl fmt::Display for MopFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// meta-operator flow: {}", self.name())?;
        if !self.mats().is_empty() {
            writeln!(f, "// weights:")?;
            for m in self.mats() {
                writeln!(f, "//   {} = {}[{} x {}]", m.id, m.name, m.rows, m.cols)?;
            }
        }
        for stmt in self.stmts() {
            writeln!(f, "{stmt}")?;
        }
        Ok(())
    }
}

/// A [`fmt::Write`] sink that splits what it is fed at each `'\n'` (as
/// [`str::lines`] does for text without `'\r'`, which the printer never
/// emits) and fails the write once it holds `limit` of them,
/// which stops the `Display` impl feeding it.
struct HeadSink {
    lines: Vec<String>,
    partial: String,
    limit: usize,
}

impl fmt::Write for HeadSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut rest = s;
        while let Some((line, tail)) = rest.split_once('\n') {
            self.partial.push_str(line);
            self.lines.push(std::mem::take(&mut self.partial));
            if self.lines.len() == self.limit {
                return Err(fmt::Error);
            }
            rest = tail;
        }
        self.partial.push_str(rest);
        Ok(())
    }
}

impl MopFlow {
    /// The first `n` lines of the flow's rendering: equal to
    /// `self.to_string().lines().take(n)`, but formatting stops at the
    /// `n`-th newline instead of rendering the whole flow (hundreds of
    /// kilobytes for even a small model). For a flow built with
    /// [`MopFlow::bounded`]`(_, keep)` this equals the whole flow's head
    /// for every `n <= keep`.
    #[must_use]
    pub fn head(&self, n: usize) -> Vec<String> {
        use fmt::Write as _;
        if n == 0 {
            return Vec::new();
        }
        let mut sink = HeadSink {
            lines: Vec::new(),
            partial: String::new(),
            limit: n,
        };
        if write!(sink, "{self}").is_ok() && !sink.partial.is_empty() {
            sink.lines.push(sink.partial);
        }
        sink.lines
    }
}

#[cfg(test)]
mod tests {
    use crate::{BufRef, CoreOp, DcomFunc, MetaOp, MopFlow, XbAddr};

    #[test]
    fn readcore_prints_paper_style() {
        let op = MetaOp::ReadCore {
            op: CoreOp::Conv {
                in_c: 3,
                in_h: 32,
                in_w: 32,
                out_c: 32,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            weights: crate::MatId(0),
            core: 1,
            src: BufRef::l0(1440),
            dst: BufRef::l0(19456),
        };
        let s = op.to_string();
        assert!(s.starts_with("cim.readcore(conv"));
        assert!(s.contains("coreaddr=1"));
        assert!(s.contains("src=L0+1440"));
        assert!(s.contains("dst=L0+19456"));
    }

    #[test]
    fn parallel_block_prints_braces() {
        let mut flow = MopFlow::new("p");
        let mov = |o| MetaOp::Mov {
            src: BufRef::l0(o),
            dst: BufRef::l1(0, o),
            len: 4,
        };
        flow.push_parallel(vec![mov(0), mov(4)]);
        let s = flow.to_string();
        assert!(s.contains("parallel {"));
        assert!(s.contains("  mov(src=L0+0"));
        assert!(s.contains('}'));
    }

    #[test]
    fn dcom_add_prints_two_sources() {
        let op = MetaOp::Dcom {
            func: DcomFunc::AddEw,
            srcs: vec![BufRef::l0(0), BufRef::l0(64)],
            dst: BufRef::l0(128),
            len: 64,
        };
        let s = op.to_string();
        assert!(s.starts_with("add("));
        assert!(s.contains("src1=L0+0"));
        assert!(s.contains("src2=L0+64"));
    }

    #[test]
    fn row_ops_print_rowaddr() {
        let op = MetaOp::ReadRow {
            xb: XbAddr::new(0, 1),
            row_start: 16,
            rows: 16,
            col_start: 0,
            cols: 32,
            src: BufRef::l1(0, 0),
            dst: BufRef::l1(0, 99),
            accumulate: true,
        };
        let s = op.to_string();
        assert!(s.contains("cim.readrow(xb(0,1)_row16, len=16"));
        assert!(s.contains("acc"));
    }

    #[test]
    fn flow_header_lists_weights() {
        let mut flow = MopFlow::new("hdr");
        flow.declare_mat(27, 32, "conv1");
        let s = flow.to_string();
        assert!(s.contains("// meta-operator flow: hdr"));
        assert!(s.contains("W0 = conv1[27 x 32]"));
    }
}
