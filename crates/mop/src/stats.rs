//! Flow statistics.

use crate::{MetaOp, MopFlow, Stmt};

/// Aggregate statistics of a meta-operator flow, used by tests, schedule
/// dumps and the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowStats {
    /// `cim.readcore` count.
    pub read_core: usize,
    /// `cim.readxb` count.
    pub read_xb: usize,
    /// `cim.writexb` count.
    pub write_xb: usize,
    /// `cim.readrow` count.
    pub read_row: usize,
    /// `cim.writerow` count.
    pub write_row: usize,
    /// DCOM count.
    pub dcom: usize,
    /// DMOV count.
    pub mov: usize,
    /// Total elements moved by DMOV operations.
    pub moved_elements: u64,
    /// Number of `parallel { … }` blocks.
    pub parallel_blocks: usize,
    /// Maximum width of any parallel block (peak instruction-level
    /// concurrency — a proxy for peak simultaneous activation).
    pub max_parallel_width: usize,
}

impl FlowStats {
    /// The statistics of a flow, counted as its statements were pushed —
    /// O(1), and exact for every pushed statement, including those a
    /// keep-bounded flow (see [`MopFlow::bounded`]) did not store.
    #[must_use]
    pub fn of(flow: &MopFlow) -> Self {
        flow.stats
    }

    /// Counts one statement.
    #[inline]
    pub(crate) fn record(&mut self, stmt: &Stmt) {
        if let Stmt::Parallel(ops) = stmt {
            self.parallel_blocks += 1;
            self.max_parallel_width = self.max_parallel_width.max(ops.len());
        } else {
            self.max_parallel_width = self.max_parallel_width.max(1);
        }
        for op in stmt.ops() {
            match op {
                MetaOp::ReadCore { .. } => self.read_core += 1,
                MetaOp::ReadXb { .. } => self.read_xb += 1,
                MetaOp::WriteXb { .. } => self.write_xb += 1,
                MetaOp::ReadRow { .. } => self.read_row += 1,
                MetaOp::WriteRow { .. } => self.write_row += 1,
                MetaOp::Dcom { .. } => self.dcom += 1,
                MetaOp::Mov { len, .. } => {
                    self.mov += 1;
                    self.moved_elements += len;
                }
            }
        }
    }

    /// Adds the statistics of a flow appended after the one these count.
    pub(crate) fn absorb(&mut self, other: &FlowStats) {
        self.read_core += other.read_core;
        self.read_xb += other.read_xb;
        self.write_xb += other.write_xb;
        self.read_row += other.read_row;
        self.write_row += other.write_row;
        self.dcom += other.dcom;
        self.mov += other.mov;
        self.moved_elements += other.moved_elements;
        self.parallel_blocks += other.parallel_blocks;
        self.max_parallel_width = self.max_parallel_width.max(other.max_parallel_width);
    }

    /// Total CIM activations (reads at any granularity).
    #[must_use]
    pub fn cim_reads(&self) -> usize {
        self.read_core + self.read_xb + self.read_row
    }

    /// Total CIM programming operations.
    #[must_use]
    pub fn cim_writes(&self) -> usize {
        self.write_xb + self.write_row
    }

    /// Total meta-operators.
    #[must_use]
    pub fn total(&self) -> usize {
        self.cim_reads() + self.cim_writes() + self.dcom + self.mov
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufRef, DcomFunc, XbAddr};

    #[test]
    fn counts_every_category() {
        let mut flow = MopFlow::new("s");
        let w = flow.declare_mat(8, 8, "w");
        flow.push(MetaOp::WriteXb {
            xb: XbAddr::new(0, 0),
            weights: w,
            src_row: 0,
            src_col: 0,
            dst_row: 0,
            dst_col: 0,
            rows: 8,
            cols: 8,
        });
        flow.push(MetaOp::Mov {
            src: BufRef::l0(0),
            dst: BufRef::l1(0, 0),
            len: 8,
        });
        flow.push_parallel(vec![
            MetaOp::ReadXb {
                xb: XbAddr::new(0, 0),
                row_start: 0,
                rows: 8,
                col_start: 0,
                cols: 8,
                src: BufRef::l1(0, 0),
                dst: BufRef::l1(0, 8),
                accumulate: false,
            },
            MetaOp::ReadXb {
                xb: XbAddr::new(0, 1),
                row_start: 0,
                rows: 8,
                col_start: 0,
                cols: 8,
                src: BufRef::l1(0, 0),
                dst: BufRef::l1(0, 16),
                accumulate: false,
            },
        ]);
        flow.push(MetaOp::Dcom {
            func: DcomFunc::Relu,
            srcs: vec![BufRef::l1(0, 8)],
            dst: BufRef::l1(0, 24),
            len: 8,
        });
        let s = FlowStats::of(&flow);
        assert_eq!(s.write_xb, 1);
        assert_eq!(s.read_xb, 2);
        assert_eq!(s.mov, 1);
        assert_eq!(s.moved_elements, 8);
        assert_eq!(s.dcom, 1);
        assert_eq!(s.parallel_blocks, 1);
        assert_eq!(s.max_parallel_width, 2);
        assert_eq!(s.cim_reads(), 2);
        assert_eq!(s.cim_writes(), 1);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn empty_flow_is_zero() {
        let s = FlowStats::of(&MopFlow::new("e"));
        assert_eq!(s.total(), 0);
        assert_eq!(s.max_parallel_width, 0);
    }
}
