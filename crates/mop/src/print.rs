//! Pretty printing in the paper's generated-code syntax (Figure 16).
//!
//! One printer serves both [`fmt::Display`] and [`MopFlow::head`]: every
//! fragment goes out through one `write_str`, and every number through
//! [`num`]'s stack buffer rather than a `write!` per operand.

use crate::{BufRef, BufSpace, CoreOp, MatId, MetaOp, MopFlow, Stmt, XbAddr};
use std::fmt::{self, Write};

/// Two-digit decimal strings, `"00"` to `"99"`.
const PAIRS: &str = "00010203040506070809101112131415161718192021222324252627282930313233343536373839\
                     40414243444546474849505152535455565758596061626364656667686970717273747576777879\
                     8081828384858687888990919293949596979899";

/// Writes `n` in decimal, two digits per `write_str`.
fn num<W: Write + ?Sized>(w: &mut W, n: impl Into<u64>) -> fmt::Result {
    let n: u64 = n.into();
    if n >= 100 {
        num(w, n / 100)?;
        let i = (n % 100) as usize * 2;
        w.write_str(&PAIRS[i..i + 2])
    } else if n >= 10 {
        let i = n as usize * 2;
        w.write_str(&PAIRS[i..i + 2])
    } else {
        let i = n as usize * 2 + 1;
        w.write_str(&PAIRS[i..i + 1])
    }
}

/// Writes the half-open range `start:start + len`.
fn range<W: Write + ?Sized>(w: &mut W, start: u32, len: u32) -> fmt::Result {
    num(w, start)?;
    w.write_str(":")?;
    num(w, start + len)
}

impl BufSpace {
    fn write_to<W: Write + ?Sized>(self, w: &mut W) -> fmt::Result {
        match self {
            BufSpace::L0 => w.write_str("L0"),
            BufSpace::L1(core) => {
                w.write_str("L1[")?;
                num(w, core)?;
                w.write_str("]")
            }
        }
    }
}

impl BufRef {
    fn write_to<W: Write + ?Sized>(self, w: &mut W) -> fmt::Result {
        self.space.write_to(w)?;
        w.write_str("+")?;
        num(w, self.offset)
    }
}

impl XbAddr {
    fn write_to<W: Write + ?Sized>(self, w: &mut W) -> fmt::Result {
        w.write_str("xb(")?;
        num(w, self.core)?;
        w.write_str(",")?;
        num(w, self.xb)?;
        w.write_str(")")
    }
}

impl MatId {
    fn write_to<W: Write + ?Sized>(self, w: &mut W) -> fmt::Result {
        w.write_str("W")?;
        num(w, self.0)
    }
}

impl CoreOp {
    fn write_to<W: Write + ?Sized>(self, w: &mut W) -> fmt::Result {
        match self {
            CoreOp::Conv {
                in_c,
                in_h,
                in_w,
                out_c,
                kernel,
                stride,
                padding,
            } => {
                w.write_str("conv(in=[")?;
                num(w, in_c)?;
                w.write_str(",")?;
                num(w, in_h)?;
                w.write_str(",")?;
                num(w, in_w)?;
                w.write_str("], k=")?;
                num(w, kernel)?;
                w.write_str(", s=")?;
                num(w, stride)?;
                w.write_str(", p=")?;
                num(w, padding)?;
                w.write_str(", out_c=")?;
                num(w, out_c)?;
                w.write_str(")")
            }
            CoreOp::Linear { in_f, out_f, batch } => {
                w.write_str("linear(in=")?;
                num(w, in_f)?;
                w.write_str(", out=")?;
                num(w, out_f)?;
                w.write_str(", batch=")?;
                num(w, batch)?;
                w.write_str(")")
            }
            CoreOp::MatMul { m, k, n } => {
                w.write_str("matmul(")?;
                num(w, m)?;
                w.write_str("x")?;
                num(w, k)?;
                w.write_str(" * ")?;
                num(w, k)?;
                w.write_str("x")?;
                num(w, n)?;
                w.write_str(")")
            }
        }
    }
}

/// Writes `, src=<src>, dst=<dst>`, then `, acc` when accumulating, and
/// the closing parenthesis: the tail every read operator shares.
fn read_tail<W: Write + ?Sized>(w: &mut W, src: BufRef, dst: BufRef, acc: bool) -> fmt::Result {
    w.write_str(", src=")?;
    src.write_to(w)?;
    w.write_str(", dst=")?;
    dst.write_to(w)?;
    w.write_str(if acc { ", acc)" } else { ")" })
}

impl MetaOp {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> fmt::Result {
        match *self {
            MetaOp::ReadCore {
                op,
                weights,
                core,
                src,
                dst,
            } => {
                w.write_str("cim.readcore(")?;
                w.write_str(op.mnemonic())?;
                w.write_str(", params=")?;
                op.write_to(w)?;
                w.write_str(", weights=")?;
                weights.write_to(w)?;
                w.write_str(", coreaddr=")?;
                num(w, core)?;
                read_tail(w, src, dst, false)
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
                w.write_str("cim.writexb(")?;
                xb.write_to(w)?;
                w.write_str(", mat=")?;
                weights.write_to(w)?;
                w.write_str("[")?;
                range(w, src_row, rows)?;
                w.write_str(", ")?;
                range(w, src_col, cols)?;
                w.write_str("] -> [")?;
                range(w, dst_row, rows)?;
                w.write_str(", ")?;
                range(w, dst_col, cols)?;
                w.write_str("])")
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
            } => {
                w.write_str("cim.readxb(")?;
                xb.write_to(w)?;
                w.write_str(", rows=")?;
                range(w, row_start, rows)?;
                w.write_str(", cols=")?;
                range(w, col_start, cols)?;
                read_tail(w, src, dst, accumulate)
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
                w.write_str("cim.writerow(")?;
                xb.write_to(w)?;
                w.write_str("_row")?;
                num(w, row)?;
                w.write_str(", value=")?;
                weights.write_to(w)?;
                w.write_str("[")?;
                num(w, src_row)?;
                w.write_str(", ")?;
                range(w, src_col, cols)?;
                w.write_str("] -> cols ")?;
                range(w, dst_col, cols)?;
                w.write_str(")")
            }
            MetaOp::ReadRow {
                xb,
                row_start,
                rows,
                col_start,
                cols,
                src,
                dst,
                accumulate,
            } => {
                w.write_str("cim.readrow(")?;
                xb.write_to(w)?;
                w.write_str("_row")?;
                num(w, row_start)?;
                w.write_str(", len=")?;
                num(w, rows)?;
                w.write_str(", cols=")?;
                range(w, col_start, cols)?;
                read_tail(w, src, dst, accumulate)
            }
            MetaOp::Dcom {
                func,
                ref srcs,
                dst,
                len,
            } => {
                w.write_str(func.mnemonic())?;
                w.write_str("(")?;
                for (i, s) in srcs.iter().enumerate() {
                    if srcs.len() > 1 {
                        w.write_str("src")?;
                        num(w, i as u64 + 1)?;
                        w.write_str("=")?;
                    } else {
                        w.write_str("src=")?;
                    }
                    s.write_to(w)?;
                    w.write_str(", ")?;
                }
                w.write_str("dst=")?;
                dst.write_to(w)?;
                w.write_str(", len=")?;
                num(w, len)?;
                w.write_str(")")
            }
            MetaOp::Mov { src, dst, len } => {
                w.write_str("mov(src=")?;
                src.write_to(w)?;
                w.write_str(", dst=")?;
                dst.write_to(w)?;
                w.write_str(", len=")?;
                num(w, len)?;
                w.write_str(")")
            }
        }
    }
}

/// One line of a statement's rendering, without its newline.
enum Line<'a> {
    /// A plain operator.
    Op(&'a MetaOp),
    /// `parallel {`.
    Open,
    /// A block member, indented by two spaces.
    Member(&'a MetaOp),
    /// `}`.
    Close,
}

impl Line<'_> {
    fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> fmt::Result {
        match self {
            Line::Op(op) => op.write_to(w),
            Line::Open => w.write_str("parallel {"),
            Line::Member(op) => {
                w.write_str("  ")?;
                op.write_to(w)
            }
            Line::Close => w.write_str("}"),
        }
    }
}

impl Stmt {
    /// The lines the statement renders to: one for a plain operator;
    /// `parallel {`, one line per member and `}` for a block, in the
    /// paper's brace syntax with two-space indentation.
    fn lines(&self) -> impl Iterator<Item = Line<'_>> {
        let (open, members, close) = match self {
            Stmt::Op(op) => (Line::Op(op), &[][..], None),
            Stmt::Parallel(ops) => (Line::Open, &ops[..], Some(Line::Close)),
        };
        std::iter::once(open)
            .chain(members.iter().map(Line::Member))
            .chain(close)
    }
}

impl MopFlow {
    /// Writes the flow's name and weight declarations, each line ended
    /// by `'\n'`.
    fn write_header<W: Write + ?Sized>(&self, w: &mut W) -> fmt::Result {
        w.write_str("// meta-operator flow: ")?;
        w.write_str(self.name())?;
        w.write_str("\n")?;
        if !self.mats().is_empty() {
            w.write_str("// weights:\n")?;
            for m in self.mats() {
                w.write_str("//   ")?;
                m.id.write_to(w)?;
                w.write_str(" = ")?;
                w.write_str(&m.name)?;
                w.write_str("[")?;
                num(w, m.rows)?;
                w.write_str(" x ")?;
                num(w, m.cols)?;
                w.write_str("]\n")?;
            }
        }
        Ok(())
    }

    /// The first `n` lines of the flow's rendering, exactly
    /// `self.to_string().lines().take(n)`: a `'\r'` ending a line of the
    /// name or of a weight name is dropped, as [`str::lines`] drops it.
    /// Only those `n` lines are rendered, each once into a reused buffer
    /// and copied out at its exact length, so the cost is the head's,
    /// not the flow's. For a flow
    /// built with [`MopFlow::bounded`]`(_, keep)` this equals the whole
    /// flow's head for every `n <= keep`.
    #[must_use]
    pub fn head(&self, n: usize) -> Vec<String> {
        let mut header = String::new();
        self.write_header(&mut header)
            .expect("a String takes every write");
        // The names are free text, so only `str::lines` knows where the
        // header's lines end; statement lines hold neither '\n' nor '\r'.
        let header = header.lines().take(n);
        let mut lines = Vec::with_capacity(n.min(header.clone().count() + self.stmts().len()));
        lines.extend(header.map(str::to_owned));
        let mut line = String::new();
        let rest = n - lines.len();
        for stmt_line in self.stmts().iter().flat_map(Stmt::lines).take(rest) {
            line.clear();
            stmt_line
                .write_to(&mut line)
                .expect("a String takes every write");
            lines.push(line.as_str().to_owned());
        }
        lines
    }
}

impl fmt::Display for BufSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Display for BufRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Display for XbAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Display for MatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Display for CoreOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Display for MetaOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// Statements render `parallel { … }` blocks with the paper's brace syntax
/// and two-space indentation, lines separated by (not ended with) `'\n'`.
impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, line) in self.lines().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            line.write_to(f)?;
        }
        Ok(())
    }
}

impl fmt::Display for MopFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_header(f)?;
        for line in self.stmts().iter().flat_map(Stmt::lines) {
            line.write_to(f)?;
            f.write_str("\n")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{BufRef, CoreOp, DcomFunc, MatId, MetaOp, MopFlow, XbAddr};

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

    /// The printer's exact bytes, one line per operator shape: the
    /// oracle every rewrite of the printer is held to.
    #[test]
    fn every_operator_prints_its_exact_text() {
        let xb = XbAddr::new(2, 0);
        let cases = [
            (
                MetaOp::WriteXb {
                    xb: XbAddr::new(1, 2),
                    weights: MatId(3),
                    src_row: 10,
                    src_col: 4,
                    dst_row: 0,
                    dst_col: 8,
                    rows: 16,
                    cols: 6,
                },
                "cim.writexb(xb(1,2), mat=W3[10:26, 4:10] -> [0:16, 8:14])",
            ),
            (
                MetaOp::WriteRow {
                    xb: XbAddr::new(0, 5),
                    row: 7,
                    weights: MatId(1),
                    src_row: 42,
                    src_col: 3,
                    dst_col: 0,
                    cols: 5,
                },
                "cim.writerow(xb(0,5)_row7, value=W1[42, 3:8] -> cols 0:5)",
            ),
            (
                MetaOp::ReadXb {
                    xb,
                    row_start: 0,
                    rows: 25,
                    col_start: 0,
                    cols: 6,
                    src: BufRef::l1(2, 0),
                    dst: BufRef::l1(2, 25),
                    accumulate: false,
                },
                "cim.readxb(xb(2,0), rows=0:25, cols=0:6, src=L1[2]+0, dst=L1[2]+25)",
            ),
            (
                MetaOp::ReadXb {
                    xb,
                    row_start: 128,
                    rows: 32,
                    col_start: 16,
                    cols: 8,
                    src: BufRef::l1(2, 128),
                    dst: BufRef::l1(2, 300),
                    accumulate: true,
                },
                "cim.readxb(xb(2,0), rows=128:160, cols=16:24, src=L1[2]+128, dst=L1[2]+300, acc)",
            ),
            (
                MetaOp::ReadRow {
                    xb: XbAddr::new(0, 1),
                    row_start: 16,
                    rows: 16,
                    col_start: 0,
                    cols: 32,
                    src: BufRef::l1(0, 0),
                    dst: BufRef::l1(0, 99),
                    accumulate: true,
                },
                "cim.readrow(xb(0,1)_row16, len=16, cols=0:32, src=L1[0]+0, dst=L1[0]+99, acc)",
            ),
            (
                MetaOp::Mov {
                    src: BufRef::l0(100),
                    dst: BufRef::l1(3, 7),
                    len: 5,
                },
                "mov(src=L0+100, dst=L1[3]+7, len=5)",
            ),
            (
                MetaOp::Dcom {
                    func: DcomFunc::Zero,
                    srcs: vec![],
                    dst: BufRef::l1(0, 0),
                    len: 25,
                },
                "zero(dst=L1[0]+0, len=25)",
            ),
            (
                MetaOp::Dcom {
                    func: DcomFunc::Relu,
                    srcs: vec![BufRef::l0(10)],
                    dst: BufRef::l0(20),
                    len: 10,
                },
                "relu(src=L0+10, dst=L0+20, len=10)",
            ),
            (
                MetaOp::Dcom {
                    func: DcomFunc::AddEw,
                    srcs: vec![BufRef::l0(0), BufRef::l0(64)],
                    dst: BufRef::l0(128),
                    len: 64,
                },
                "add(src1=L0+0, src2=L0+64, dst=L0+128, len=64)",
            ),
            (
                MetaOp::ReadCore {
                    op: CoreOp::Linear {
                        in_f: 400,
                        out_f: 120,
                        batch: 1,
                    },
                    weights: MatId(2),
                    core: 8,
                    src: BufRef::l0(21_512),
                    dst: BufRef::l0(21_912),
                },
                "cim.readcore(linear, params=linear(in=400, out=120, batch=1), weights=W2, \
                 coreaddr=8, src=L0+21512, dst=L0+21912)",
            ),
            (
                MetaOp::ReadCore {
                    op: CoreOp::MatMul { m: 4, k: 8, n: 2 },
                    weights: MatId(0),
                    core: 0,
                    src: BufRef::l0(0),
                    dst: BufRef::l0(32),
                },
                "cim.readcore(matmul, params=matmul(4x8 * 8x2), weights=W0, coreaddr=0, \
                 src=L0+0, dst=L0+32)",
            ),
        ];
        for (op, text) in cases {
            assert_eq!(op.to_string(), text);
        }
    }

    #[test]
    fn a_flow_prints_its_exact_text() {
        let mut flow = MopFlow::new("m@a");
        flow.declare_mat(2, 3, "fc");
        let mov = |o| MetaOp::Mov {
            src: BufRef::l0(o),
            dst: BufRef::l1(1, o),
            len: 4,
        };
        flow.push(mov(8));
        flow.push_parallel(vec![mov(0), mov(4)]);
        assert_eq!(
            flow.to_string(),
            "// meta-operator flow: m@a\n// weights:\n//   W0 = fc[2 x 3]\n\
             mov(src=L0+8, dst=L1[1]+8, len=4)\nparallel {\n  mov(src=L0+0, dst=L1[1]+0, len=4)\n\
             \x20 mov(src=L0+4, dst=L1[1]+4, len=4)\n}\n"
        );
    }

    #[test]
    fn head_cuts_carriage_returns_as_str_lines_does() {
        // A graph name and node names reach the header verbatim, so a
        // JSON model can put "\r\n" (or a lone '\r') in either.
        let mut flow = MopFlow::new("m\r\nx@isaac");
        flow.declare_mat(2, 3, "node\r\nname");
        flow.declare_mat(1, 1, "cr\r");
        let mov = |o| MetaOp::Mov {
            src: BufRef::l0(o),
            dst: BufRef::l0(o + 1),
            len: 1,
        };
        flow.push(mov(0));
        flow.push_parallel(vec![mov(2), mov(4)]);
        let text = flow.to_string();
        let total = text.lines().count();
        for n in 0..=total + 1 {
            let expected: Vec<&str> = text.lines().take(n).collect();
            assert_eq!(flow.head(n), expected, "head({n})");
        }
        assert_eq!(flow.head(2), ["// meta-operator flow: m", "x@isaac"]);
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
