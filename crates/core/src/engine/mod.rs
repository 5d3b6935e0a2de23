//! The solver engine: one dispatch surface for every MaxRS algorithm.
//!
//! The paper proves its results as a bouquet of loosely-related theorems, and
//! the crates mirror that: exact planar sweeps, the Technique 1 samplers, the
//! Technique 2 colored algorithms, and the batched 1-D solver each expose
//! their own entry point with its own signature.  The engine unifies them:
//!
//! * [`WeightedInstance`] / [`ColoredInstance`] — one instance model (points
//!   plus a [`RangeShape`]) covering intervals, rectangles, disks and
//!   `d`-balls;
//! * [`WeightedSolver`] / [`ColoredSolver`] — object-safe traits every
//!   algorithm implements, returning a [`SolverReport`] that carries the
//!   placement, its value or distinct-count, the [`Guarantee`] it was
//!   produced under, and timing/sample statistics;
//! * [`registry`] — one table of the solvers of both kinds, enumerated by
//!   name and capability ([`SolverDescriptor`]) so callers choose
//!   exact-vs-approx per workload; downstream crates register additional
//!   solvers (the batched 1-D solver in `mrs-batched` does) via
//!   [`Registry::register_weighted`] / [`Registry::register_colored`].
//!
//! The weighted and colored families differ in their instance, placement
//! and solver types, but where the engine takes the same step for both it
//! takes it once, parameterized by [`ProblemKind`]: a [`BatchQuery`] carries
//! its kind as a field, every registry lookup walks one table, and the two
//! `auto` types ([`AutoWeightedSolver`], [`AutoColoredSolver`]) run one
//! routing function.
//!
//! ```
//! use mrs_core::engine::{registry, WeightedInstance};
//! use mrs_geom::{Point2, WeightedPoint};
//!
//! let instance = WeightedInstance::ball(
//!     vec![
//!         WeightedPoint::unit(Point2::xy(0.0, 0.0)),
//!         WeightedPoint::unit(Point2::xy(0.5, 0.0)),
//!         WeightedPoint::unit(Point2::xy(9.0, 9.0)),
//!     ],
//!     1.0,
//! );
//! let solver = registry().weighted::<2>("exact-disk-2d").unwrap();
//! let report = solver.solve(&instance).unwrap();
//! assert_eq!(report.placement.value, 2.0);
//! assert!(report.guarantee.is_exact());
//! ```

mod auto;
pub mod batch;
pub mod cancel;
mod colored;
mod convert;
pub mod cost;
mod descriptor;
pub mod executor;
pub mod index;
mod instance;
pub mod metamorphic;
pub mod obs;
mod registry;
mod report;
pub mod versioned;
mod weighted;

pub use auto::{AutoColoredSolver, AutoWeightedSolver};
pub use batch::{BatchAnswer, BatchQuery, BatchReport, BatchStats, LatencySummary};
pub use cancel::CancelToken;
pub use colored::{
    ColoredBallSolver, ColoredDiskSamplingSolver, ExactColoredDiskEnumSolver,
    ExactColoredDiskUnionSolver, ExactColoredRectSolver, OutputSensitiveColoredDiskSolver,
};
pub use convert::{repack_colored_placement, repack_placement, repack_point};
pub use descriptor::{
    BatchCapability, DimSupport, GuaranteeClass, ProblemKind, ShapeClass, SolverDescriptor,
};
pub use executor::{certify_answer, BatchExecutor, ExecutorConfig};
pub use index::SharedIndex;
pub use instance::{
    ColoredInstance, Finite, FiniteRecord, NonFinite, RangeShape, WeightedInstance,
};
pub use obs::{Histogram, Phase, QueryTrace, TraceRecorder};
pub use registry::{registry, EngineConfig, Registry, SharedColoredSolver, SharedWeightedSolver};
pub use report::{Guarantee, SolveStats, SolverReport};
pub use versioned::{
    Mutation, MutationOutcome, MutationReport, ScriptOutcome, ScriptReport, ScriptStep,
    VersionedDataset, VersionedView,
};
pub use weighted::{
    interval_length, interval_report, DynamicBallSolver, ExactDiskSolver, ExactIntervalSolver,
    ExactRectSolver, StaticBallSolver,
};

use std::time::Instant;

use crate::input::{ColoredPlacement, Placement};

/// Why a solver refused an instance.
///
/// Dispatch failures are typed errors, not panics, so callers can probe the
/// registry ("which solvers take this instance?") without crashing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The solver does not understand the instance's range shape.
    UnsupportedShape {
        /// The refusing solver.
        solver: &'static str,
        /// The shape class it was offered.
        shape: ShapeClass,
    },
    /// The solver does not operate in the instance's ambient dimension.
    UnsupportedDimension {
        /// The refusing solver.
        solver: &'static str,
        /// The dimension it was offered.
        dim: usize,
    },
    /// The instance carries negative weights and the solver requires
    /// non-negative ones.
    NegativeWeights {
        /// The refusing solver.
        solver: &'static str,
    },
    /// The range is too large for the solver's arithmetic: on the line, a
    /// ball's length `2·radius` overflows `f64`.
    RangeTooLarge {
        /// The refusing solver.
        solver: &'static str,
    },
    /// The range is too small for the dataset's coordinates: its radius, or
    /// its smallest half-extent, is at most the boundary slack
    /// `1e-9·(1 + s)`, where `s` is the largest absolute coordinate.  No
    /// answer at that scale can be certified, and grid cell addresses
    /// saturate.
    RangeTooSmall {
        /// The solver the query named.
        solver: String,
    },
    /// A batch query named a solver the registry does not know (or one that
    /// does not exist under the query's problem kind and dimension).
    UnknownSolver {
        /// The name the query asked for.
        name: String,
    },
    /// The query's cancellation deadline passed before the solve completed
    /// (see [`cancel`]).  The kernel bailed out of its sweep cooperatively;
    /// `partial` records the work it had done when it stopped.
    DeadlineExceeded {
        /// The solver that was cancelled.
        solver: String,
        /// Work counters at the moment the sweep was abandoned.
        partial: PartialWork,
    },
}

/// Integer work counters carried by
/// [`EngineError::DeadlineExceeded`]: what a cancelled solve had done when
/// it stopped.  A deliberately `Eq`-safe subset of
/// [`SolveStats`] (which carries floats and so cannot ride inside the
/// error enum).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartialWork {
    /// Points distance-tested through spatial-index queries before the bail.
    pub candidates_examined: usize,
    /// Spatial-index cells visited before the bail.
    pub grid_cells_visited: usize,
    /// Wall-clock microseconds spent before the bail.
    pub elapsed_us: u64,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnsupportedShape { solver, shape } => {
                write!(f, "solver `{solver}` does not support {shape} ranges")
            }
            EngineError::UnsupportedDimension { solver, dim } => {
                write!(f, "solver `{solver}` does not operate in dimension {dim}")
            }
            EngineError::NegativeWeights { solver } => {
                write!(f, "solver `{solver}` requires non-negative weights")
            }
            EngineError::RangeTooLarge { solver } => {
                write!(f, "solver `{solver}` cannot place a range this large: its length overflows")
            }
            EngineError::RangeTooSmall { solver } => write!(
                f,
                "solver `{solver}` cannot place a range this small: it is within the \
                 rounding slack of the dataset's coordinates"
            ),
            EngineError::UnknownSolver { name } => {
                write!(f, "no registered solver answers `{name}` for this query")
            }
            EngineError::DeadlineExceeded { solver, partial } => {
                write!(
                    f,
                    "solver `{}` exceeded its deadline after {} µs \
                     ({} candidates examined, {} grid cells visited)",
                    solver,
                    partial.elapsed_us,
                    partial.candidates_examined,
                    partial.grid_cells_visited
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Result alias for engine dispatch.
pub type EngineResult<T> = Result<T, EngineError>;

/// A solver for weighted MaxRS: place the range to maximize covered weight.
///
/// Implementations wrap one concrete algorithm; the trait is object-safe so
/// the [`Registry`] can hand out `Arc<dyn WeightedSolver<D>>` and callers can
/// swap exact for approximate solvers per workload.
pub trait WeightedSolver<const D: usize>: Send + Sync {
    /// Capability metadata (name, shape class, dimensions, guarantee class).
    fn descriptor(&self) -> &SolverDescriptor;

    /// Answers many query shapes over one shared point set: the one solving
    /// method a solver implements, which the batch executor
    /// ([`executor::BatchExecutor`]) and [`Self::solve`] both call.
    ///
    /// `base` carries the point set (its own shape is not read) and `index`
    /// is built over the same set.  Solvers whose descriptor declares
    /// [`BatchCapability::IndexShared`] amortize one build across the whole
    /// batch by reusing the index's structures (per-radius grids, sorted
    /// projections, cached sample-set answers); the others answer each shape on its
    /// own through [`each_shape`].
    ///
    /// `threads` is the worker budget the executor grants this call for
    /// *internal* fan-out (chunking one expensive query over
    /// `std::thread::scope` workers); implementations may ignore it, and
    /// answers must not depend on it.
    fn solve_all(
        &self,
        base: &WeightedInstance<D>,
        shapes: &[RangeShape<D>],
        index: &SharedIndex<D>,
        threads: usize,
    ) -> Vec<EngineResult<SolverReport<Placement<D>>>>;

    /// Solves one instance, or explains why it cannot: [`Self::solve_all`]
    /// for the instance's shape over a one-off [`SharedIndex`] of its
    /// points, on one thread.
    fn solve(&self, instance: &WeightedInstance<D>) -> EngineResult<SolverReport<Placement<D>>> {
        let index = SharedIndex::over(instance.shared_points(), Finite::default());
        let mut reports =
            self.solve_all(instance, std::slice::from_ref(instance.shape()), &index, 1);
        reports.pop().expect("solve_all answers every shape")
    }

    /// The registry name, shorthand for `descriptor().name`.
    fn name(&self) -> &'static str {
        self.descriptor().name
    }
}

/// A solver for colored MaxRS: place the range to maximize the number of
/// distinct covered colors.
pub trait ColoredSolver<const D: usize>: Send + Sync {
    /// Capability metadata (name, shape class, dimensions, guarantee class).
    fn descriptor(&self) -> &SolverDescriptor;

    /// Answers many query shapes over one shared site set.  See
    /// [`WeightedSolver::solve_all`] for the contract.
    fn solve_all(
        &self,
        base: &ColoredInstance<D>,
        shapes: &[RangeShape<D>],
        index: &SharedIndex<D>,
        threads: usize,
    ) -> Vec<EngineResult<SolverReport<ColoredPlacement<D>>>>;

    /// Solves one instance, or explains why it cannot: [`Self::solve_all`]
    /// for the instance's shape over a one-off [`SharedIndex`] of its
    /// sites, on one thread.
    fn solve(
        &self,
        instance: &ColoredInstance<D>,
    ) -> EngineResult<SolverReport<ColoredPlacement<D>>> {
        let index = SharedIndex::over(Finite::default(), instance.shared_sites());
        let mut reports =
            self.solve_all(instance, std::slice::from_ref(instance.shape()), &index, 1);
        reports.pop().expect("solve_all answers every shape")
    }

    /// The registry name, shorthand for `descriptor().name`.
    fn name(&self) -> &'static str {
        self.descriptor().name
    }
}

/// The `solve_all` body of a solver that shares nothing across queries:
/// answers each shape on its own with `solve_one` and stamps each report
/// with the time its call took.
pub fn each_shape<const D: usize, P>(
    shapes: &[RangeShape<D>],
    mut solve_one: impl FnMut(&RangeShape<D>) -> EngineResult<SolverReport<P>>,
) -> Vec<EngineResult<SolverReport<P>>> {
    shapes
        .iter()
        .map(|shape| {
            let start = Instant::now();
            let mut report = solve_one(shape)?;
            report.stats.elapsed = start.elapsed();
            Ok(report)
        })
        .collect()
}
