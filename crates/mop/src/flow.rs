//! Meta-operator flows: statements plus weight declarations.

use crate::{FlowStats, MetaOp};

/// Identifier of a weight matrix declared by a [`MopFlow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatId(pub u32);

/// Declaration of a weight matrix referenced by CIM write operations.
///
/// Flows carry only the *shape* and a provenance name; the actual values
/// are synthesized deterministically by the functional simulator (see
/// `cim_sim::weights`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatDecl {
    /// The id CIM operations use to reference this matrix.
    pub id: MatId,
    /// Row count (reduction dimension).
    pub rows: u32,
    /// Column count (output dimension).
    pub cols: u32,
    /// Provenance, e.g. the graph node name the matrix belongs to.
    pub name: String,
}

/// One statement of a flow: a single meta-operator or a `parallel { … }`
/// block whose members execute concurrently (Figure 10's
/// `parallel "{" <operators>* "}"`).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A single meta-operator.
    Op(MetaOp),
    /// Concurrent execution of all contained operators.
    Parallel(Vec<MetaOp>),
}

impl Stmt {
    /// The operators in this statement, in order.
    #[must_use]
    pub fn ops(&self) -> &[MetaOp] {
        match self {
            Stmt::Op(op) => std::slice::from_ref(op),
            Stmt::Parallel(ops) => ops,
        }
    }

    /// Number of operators executing concurrently (1 for a plain op).
    #[must_use]
    pub fn width(&self) -> usize {
        self.ops().len()
    }
}

/// A meta-operator flow: the compiled form of a DNN (segment) for one CIM
/// accelerator.
///
/// A flow counts every statement pushed into it as it arrives (the
/// running [`FlowStats`] and [`MopFlow::pushed`]), and stores the first
/// `keep` of them. [`MopFlow::new`] and [`MopFlow::default`] keep
/// everything; a [`MopFlow::bounded`] flow stores only a prefix, which is
/// all a caller that wants the flow's first lines (see [`MopFlow::head`])
/// and its counts needs. A flow that dropped statements is not the
/// program: [`MopFlow::validate`] refuses it, and so does the functional
/// simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct MopFlow {
    name: String,
    mats: Vec<MatDecl>,
    stmts: Vec<Stmt>,
    /// How many statements `stmts` may hold.
    keep: usize,
    /// Statements pushed, stored or not.
    pushed: usize,
    /// Counts over every pushed statement (read by [`FlowStats::of`]).
    pub(crate) stats: FlowStats,
}

impl Default for MopFlow {
    fn default() -> Self {
        MopFlow::new(String::new())
    }
}

impl MopFlow {
    /// Creates an empty flow named `name` that keeps every statement.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        MopFlow::bounded(name, usize::MAX)
    }

    /// Creates an empty flow named `name` that stores only the first
    /// `keep` statements pushed into it and counts the rest. Its
    /// [`head(n)`](MopFlow::head) is exact for every `n <= keep`, since
    /// each statement renders to at least one line, and its
    /// [`FlowStats`] and [`pushed`](MopFlow::pushed) count are exact
    /// whatever `keep` is.
    #[must_use]
    pub fn bounded(name: impl Into<String>, keep: usize) -> Self {
        MopFlow {
            name: name.into(),
            mats: Vec::new(),
            stmts: Vec::new(),
            keep,
            pushed: 0,
            stats: FlowStats::default(),
        }
    }

    /// The flow's name (usually `model@arch`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a weight matrix and returns its id.
    pub fn declare_mat(&mut self, rows: u32, cols: u32, name: impl Into<String>) -> MatId {
        let id = MatId(u32::try_from(self.mats.len()).expect("matrix count fits u32"));
        self.mats.push(MatDecl {
            id,
            rows,
            cols,
            name: name.into(),
        });
        id
    }

    /// Counts a statement, and stores it while the flow is whole and
    /// below its keep bound. The push path is `#[inline]` down to
    /// [`FlowStats::record`] so the code generator, which pushes millions
    /// of statements, builds and counts each one in place.
    #[inline]
    fn push_stmt(&mut self, stmt: Stmt) {
        self.stats.record(&stmt);
        if self.is_complete() && self.stmts.len() < self.keep {
            self.stmts.push(stmt);
        }
        self.pushed += 1;
    }

    /// Appends a single meta-operator.
    #[inline]
    pub fn push(&mut self, op: MetaOp) {
        self.push_stmt(Stmt::Op(op));
    }

    /// Appends a parallel block. Blocks of width 1 degrade to plain ops;
    /// empty blocks are dropped.
    #[inline]
    pub fn push_parallel(&mut self, ops: Vec<MetaOp>) {
        match ops.len() {
            0 => {}
            1 => self.push_stmt(Stmt::Op(ops.into_iter().next().expect("len checked"))),
            _ => self.push_stmt(Stmt::Parallel(ops)),
        }
    }

    /// Appends all statements of another flow (segment concatenation).
    /// The counts add up exactly; `self` stores what its keep bound
    /// allows of `other`'s stored prefix, and nothing more once either
    /// flow has dropped a statement.
    pub fn extend_from(&mut self, other: MopFlow) {
        // Matrices must be re-declared by the caller; flows being merged
        // are expected to share a declaration table. Guard against misuse.
        debug_assert!(
            other.mats.is_empty() || other.mats == self.mats,
            "merging flows with divergent weight tables"
        );
        if self.is_complete() {
            let room = self.keep - self.stmts.len();
            self.stmts.extend(other.stmts.into_iter().take(room));
        }
        self.pushed += other.pushed;
        self.stats.absorb(&other.stats);
    }

    /// The declared weight matrices.
    #[must_use]
    pub fn mats(&self) -> &[MatDecl] {
        &self.mats
    }

    /// Looks up a matrix declaration.
    #[must_use]
    pub fn mat(&self, id: MatId) -> Option<&MatDecl> {
        self.mats.get(id.0 as usize)
    }

    /// The stored statements in execution order: all of them unless the
    /// flow is bounded (see [`MopFlow::is_complete`]).
    #[must_use]
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Number of statements pushed, stored or not.
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// True when the flow stores every statement pushed into it.
    #[must_use]
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.stmts.len() == self.pushed
    }

    /// True when the flow stores no more of what is pushed into it: it
    /// holds its `keep` statements, or it has dropped one. A generator
    /// that only wants the stored prefix can stop here and
    /// [`set_counts`](MopFlow::set_counts) for the rest.
    #[must_use]
    #[inline]
    pub fn is_full(&self) -> bool {
        self.stmts.len() >= self.keep || !self.is_complete()
    }

    /// Makes the flow's counts those of a flow of `pushed` statements
    /// whose [`FlowStats`] are `stats`: what a generator that stopped once
    /// the flow [was full](MopFlow::is_full) records for the statements
    /// it did not generate, given the whole flow's counts. The stored
    /// statements are untouched.
    ///
    /// # Panics
    /// If `pushed` is below the number of statements stored.
    pub fn set_counts(&mut self, pushed: usize, stats: FlowStats) {
        assert!(
            pushed >= self.stmts.len(),
            "{pushed} statement(s) counted but {} stored",
            self.stmts.len()
        );
        self.pushed = pushed;
        self.stats = stats;
    }

    /// Total number of meta-operators across all pushed statements.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.stats.total()
    }

    /// Iterates over every stored meta-operator, flattening parallel
    /// blocks.
    pub fn iter_ops(&self) -> impl Iterator<Item = &MetaOp> {
        self.stmts.iter().flat_map(|s| s.ops().iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufRef, DcomFunc};

    fn relu(off: u64) -> MetaOp {
        MetaOp::Dcom {
            func: DcomFunc::Relu,
            srcs: vec![BufRef::l0(off)],
            dst: BufRef::l0(off + 100),
            len: 10,
        }
    }

    #[test]
    fn declare_and_lookup() {
        let mut flow = MopFlow::new("t");
        let a = flow.declare_mat(27, 32, "conv1");
        let b = flow.declare_mat(32, 10, "fc");
        assert_ne!(a, b);
        assert_eq!(flow.mat(a).unwrap().rows, 27);
        assert_eq!(flow.mat(b).unwrap().name, "fc");
        assert_eq!(flow.mat(MatId(99)), None);
        assert_eq!(a.to_string(), "W0");
    }

    #[test]
    fn parallel_width_normalization() {
        let mut flow = MopFlow::new("t");
        flow.push_parallel(vec![]);
        assert_eq!(flow.stmts().len(), 0);
        flow.push_parallel(vec![relu(0)]);
        assert!(matches!(flow.stmts()[0], Stmt::Op(_)));
        flow.push_parallel(vec![relu(0), relu(1)]);
        assert!(matches!(&flow.stmts()[1], Stmt::Parallel(v) if v.len() == 2));
        assert_eq!(flow.op_count(), 3);
        assert_eq!(flow.iter_ops().count(), 3);
    }

    #[test]
    fn stmt_accessors() {
        let s = Stmt::Parallel(vec![relu(0), relu(1), relu(2)]);
        assert_eq!(s.width(), 3);
        assert_eq!(s.ops().len(), 3);
        let single = Stmt::Op(relu(9));
        assert_eq!(single.width(), 1);
    }
}
