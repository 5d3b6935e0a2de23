//! Static metadata describing a solver: what problem it answers, for which
//! range shapes and dimensions, and with what guarantee class.  The registry
//! enumerates these so callers can select exact-vs-approx per workload
//! without knowing the concrete algorithm types.

/// Which MaxRS problem family a solver answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProblemKind {
    /// Maximize total covered weight.
    Weighted,
    /// Maximize the number of distinct covered colors.
    Colored,
}

impl std::fmt::Display for ProblemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemKind::Weighted => write!(f, "weighted"),
            ProblemKind::Colored => write!(f, "colored"),
        }
    }
}

/// The class of query range a solver understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeClass {
    /// A `d`-ball of fixed radius (an interval in 1-D, a disk in 2-D).
    Ball,
    /// An axis-aligned box of fixed extents (a rectangle in 2-D).
    AxisBox,
    /// Any shape class: the solver delegates per query (the `auto`
    /// meta-solver, which routes each shape to a capable concrete solver).
    Any,
}

impl std::fmt::Display for ShapeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeClass::Ball => write!(f, "ball"),
            ShapeClass::AxisBox => write!(f, "box"),
            ShapeClass::Any => write!(f, "any"),
        }
    }
}

/// Which ambient dimensions a solver supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DimSupport {
    /// Works for every `const D` (the sampling technique).
    Any,
    /// Only the given dimension (the planar and 1-D exact algorithms).
    Fixed(usize),
}

impl DimSupport {
    /// Does the solver support ambient dimension `d`?
    pub fn supports(&self, d: usize) -> bool {
        match self {
            DimSupport::Any => true,
            DimSupport::Fixed(only) => *only == d,
        }
    }
}

/// How a solver participates in batch execution (many queries over one
/// shared point set, see [`crate::engine::executor`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchCapability {
    /// Queries are answered one at a time: the executor calls `solve_all`
    /// once per query, so queries run in parallel but share no work.
    Independent,
    /// The solver's `solve_all` amortizes one shared build (a sorted event
    /// list, a Fenwick tree, a hash grid, a sample set) across the whole
    /// batch, so the executor hands it all of its queries in one call.
    IndexShared,
}

impl BatchCapability {
    /// `true` if the solver shares one index build across a batch.
    pub fn is_shared(&self) -> bool {
        matches!(self, BatchCapability::IndexShared)
    }
}

impl std::fmt::Display for BatchCapability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchCapability::Independent => write!(f, "independent"),
            BatchCapability::IndexShared => write!(f, "index-shared"),
        }
    }
}

/// The guarantee family a solver belongs to, independent of the concrete `ε`
/// it will run with (that is configuration, reported per-solve in
/// [`super::Guarantee`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuaranteeClass {
    /// Returns the optimum.
    Exact,
    /// `(1/2 − ε)`-approximation with high probability.
    HalfMinusEps,
    /// `(1 − ε)`-approximation in expectation.
    OneMinusEps,
}

impl GuaranteeClass {
    /// `true` for exact solvers.
    pub fn is_exact(&self) -> bool {
        matches!(self, GuaranteeClass::Exact)
    }
}

/// Capability record for one registered solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverDescriptor {
    /// Registry key, unique within a problem kind (e.g. `"exact-disk-2d"`).
    pub name: &'static str,
    /// Weighted or colored MaxRS.
    pub problem: ProblemKind,
    /// Query-range class the solver accepts.
    pub shape: ShapeClass,
    /// Supported ambient dimensions.
    pub dims: DimSupport,
    /// Guarantee family.
    pub guarantee: GuaranteeClass,
    /// `true` if the underlying structure also supports efficient updates
    /// (insertions/deletions) rather than solving from scratch only.
    pub dynamic: bool,
    /// How the solver participates in batch execution.
    pub batch: BatchCapability,
    /// `true` if weighted inputs may carry negative weights (the Section 5
    /// interval solvers; vacuously `true` for colored solvers, whose inputs
    /// are unweighted).
    pub negative_weights: bool,
    /// Where the algorithm comes from (paper theorem or classical citation).
    pub reference: &'static str,
}

impl SolverDescriptor {
    /// Does this solver apply to problem `problem`, shape `shape`, and
    /// dimension `d`?  A solver declaring [`ShapeClass::Any`] accepts every
    /// shape class.
    pub fn supports(&self, problem: ProblemKind, shape: ShapeClass, d: usize) -> bool {
        self.problem == problem
            && (self.shape == shape || matches!(self.shape, ShapeClass::Any))
            && self.dims.supports(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_support() {
        assert!(DimSupport::Any.supports(7));
        assert!(DimSupport::Fixed(2).supports(2));
        assert!(!DimSupport::Fixed(2).supports(3));
    }

    #[test]
    fn descriptor_capability_matching() {
        let d = SolverDescriptor {
            name: "x",
            problem: ProblemKind::Weighted,
            shape: ShapeClass::Ball,
            dims: DimSupport::Fixed(2),
            guarantee: GuaranteeClass::Exact,
            dynamic: false,
            batch: BatchCapability::Independent,
            negative_weights: false,
            reference: "test",
        };
        assert!(d.supports(ProblemKind::Weighted, ShapeClass::Ball, 2));
        assert!(!d.supports(ProblemKind::Weighted, ShapeClass::Ball, 1));
        assert!(!d.supports(ProblemKind::Weighted, ShapeClass::AxisBox, 2));
        assert!(!d.supports(ProblemKind::Colored, ShapeClass::Ball, 2));
        assert!(d.guarantee.is_exact());
        assert_eq!(
            (d.problem.to_string(), ProblemKind::Colored.to_string()),
            ("weighted".into(), "colored".into())
        );
    }
}
