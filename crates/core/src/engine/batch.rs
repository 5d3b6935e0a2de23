//! The batch-query model: many MaxRS queries over one shared point set.
//!
//! The paper's general techniques all amortize work across queries — grid
//! shifting reuses one shifted-grid family, the Section 5 batched solver
//! reuses one sorted event list, the Section 4 algorithms reuse one spatial
//! index — and this module gives that amortization a first-class request
//! shape.  A batch is an ordered list of [`BatchQuery`]s, each naming a
//! problem kind, a solver registered under it and a query [`RangeShape`],
//! answered against one view of a
//! [`VersionedDataset`](super::VersionedDataset) (a static point set is
//! simply version 1).  The [`executor`](super::executor) answers it with
//! a [`BatchReport`]: one [`BatchAnswer`] and certification flag per query,
//! in query order, the version they were computed at, plus batch-level
//! [`BatchStats`] (wall clock, aggregate solver time, shared-index builds,
//! throughput).
//!
//! ```
//! use mrs_core::engine::{
//!     registry, BatchExecutor, BatchQuery, RangeShape, TraceRecorder, VersionedDataset,
//! };
//! use mrs_geom::{Point2, WeightedPoint};
//!
//! let points = vec![
//!     WeightedPoint::unit(Point2::xy(0.0, 0.0)),
//!     WeightedPoint::unit(Point2::xy(0.5, 0.0)),
//!     WeightedPoint::unit(Point2::xy(9.0, 9.0)),
//! ];
//! let dataset = VersionedDataset::new(points, Vec::new());
//! let queries = [
//!     BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0)),
//!     BatchQuery::weighted("exact-rect-2d", RangeShape::rect(2.0, 2.0)),
//! ];
//! let registry = registry();
//! let report = BatchExecutor::new(&registry).execute_versioned_traced(
//!     &dataset,
//!     &queries,
//!     &mut TraceRecorder::disabled(),
//! );
//! assert_eq!(report.answers.len(), 2);
//! assert_eq!(report.weighted(0).unwrap().placement.value, 2.0);
//! assert_eq!(report.certified, vec![Some(true), Some(true)]);
//! assert_eq!(report.version, 1);
//! ```

use std::time::Duration;

use super::instance::RangeShape;
use super::report::SolverReport;
use super::{EngineError, ProblemKind};
use crate::input::{ColoredPlacement, Placement};

/// One query of a batch: which problem, which solver to ask, and with what
/// range shape.
///
/// The solver is named by its registry key (see
/// [`Registry`](super::Registry)) under the query's problem kind; the
/// executor resolves every distinct `(problem, solver)` once per batch.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchQuery<const D: usize> {
    /// Weighted MaxRS against the batch's point set, or colored MaxRS
    /// against its site set.
    pub problem: ProblemKind,
    /// Registry name of the solver to dispatch to.
    pub solver: String,
    /// The query-range shape.
    pub shape: RangeShape<D>,
}

impl<const D: usize> BatchQuery<D> {
    /// A weighted query for the named solver.
    pub fn weighted(solver: impl Into<String>, shape: RangeShape<D>) -> Self {
        Self { problem: ProblemKind::Weighted, solver: solver.into(), shape }
    }

    /// A colored query for the named solver.
    pub fn colored(solver: impl Into<String>, shape: RangeShape<D>) -> Self {
        Self { problem: ProblemKind::Colored, solver: solver.into(), shape }
    }

    /// The registry name the query dispatches to.
    pub fn solver(&self) -> &str {
        &self.solver
    }

    /// The query's range shape.
    pub fn shape(&self) -> &RangeShape<D> {
        &self.shape
    }
}

/// The outcome of one batch query, in the report's `answers` vector at the
/// query's position in the batch.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchAnswer<const D: usize> {
    /// A weighted query's report.
    Weighted(SolverReport<Placement<D>>),
    /// A colored query's report.
    Colored(SolverReport<ColoredPlacement<D>>),
    /// The query could not be answered (unknown solver, shape/dimension
    /// mismatch, negative-weight rejection).
    Failed(EngineError),
}

impl<const D: usize> BatchAnswer<D> {
    /// `true` unless the query failed.
    pub fn is_ok(&self) -> bool {
        !matches!(self, BatchAnswer::Failed(_))
    }

    /// The weighted report, if this is a successful weighted answer.
    pub fn weighted(&self) -> Option<&SolverReport<Placement<D>>> {
        match self {
            BatchAnswer::Weighted(report) => Some(report),
            _ => None,
        }
    }

    /// The colored report, if this is a successful colored answer.
    pub fn colored(&self) -> Option<&SolverReport<ColoredPlacement<D>>> {
        match self {
            BatchAnswer::Colored(report) => Some(report),
            _ => None,
        }
    }

    /// The dispatch error, if the query failed.
    pub fn error(&self) -> Option<&EngineError> {
        match self {
            BatchAnswer::Failed(error) => Some(error),
            _ => None,
        }
    }

    /// Wall-clock time the solver spent on this query (zero for failures).
    pub fn elapsed(&self) -> Duration {
        match self {
            BatchAnswer::Weighted(report) => report.stats.elapsed,
            BatchAnswer::Colored(report) => report.stats.elapsed,
            BatchAnswer::Failed(_) => Duration::ZERO,
        }
    }

    /// The solve statistics, if the query succeeded.
    pub fn solve_stats(&self) -> Option<&super::SolveStats> {
        match self {
            BatchAnswer::Weighted(report) => Some(&report.stats),
            BatchAnswer::Colored(report) => Some(&report.stats),
            BatchAnswer::Failed(_) => None,
        }
    }
}

/// Batch-level execution statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Number of queries that failed dispatch.
    pub failed: usize,
    /// The executor's thread *budget*: at most this many scoped workers fan
    /// out across tasks, and an index-shared group task receives the
    /// leftover share for internal chunking — so fewer OS workers than this
    /// may have spawned when the batch had fewer tasks.
    pub threads: usize,
    /// Shared-index structures built for this batch (sorted event list,
    /// Fenwick tree, one hash grid per distinct query radius).
    pub index_builds: usize,
    /// Total time spent building shared-index structures.
    pub index_build_time: Duration,
    /// Wall-clock time of the whole batch, end to end.
    pub wall: Duration,
    /// Sum of per-query solver times (≥ `wall` when parallelism helps).
    pub solver_time: Duration,
    /// Answers certified against the shared index (see
    /// [`ExecutorConfig::certify`](super::ExecutorConfig)).
    pub certified: usize,
    /// Certifications whose re-evaluated value disagreed with the report
    /// (always 0 unless a solver violates its contract).
    pub certify_failures: usize,
    /// Points distance-tested through spatial-index queries, summed over the
    /// batch's successful answers (answers without the counter contribute
    /// zero).  Wall-clock-free work measure; see
    /// [`SolveStats::candidates_examined`](super::SolveStats).
    pub candidates_examined: usize,
    /// Spatial-index cells visited by those queries, summed likewise.
    pub grid_cells_visited: usize,
    /// Of the candidates examined, how many the widened f32 sieve rejected
    /// before the exact f64 verify, summed likewise (zero when the process
    /// runs a pure-f64 kernel mode; see `mrs_geom::kernels`).
    pub sieve_rejected: usize,
    /// Queries the `auto` meta-solver routed (answers whose stats carry
    /// [`SolveStats::auto_choice`](super::SolveStats)).
    pub auto_picks: usize,
    /// Sum of the cost model's predicted work over the auto-routed answers.
    pub auto_predicted_work: f64,
    /// Sum of the actual work the chosen solvers did over those answers.
    pub auto_actual_work: f64,
}

impl BatchStats {
    /// Answered queries per wall-clock second.
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            (self.queries - self.failed) as f64 / secs
        } else {
            0.0
        }
    }

    /// Ratio of aggregate solver time to wall time (parallel speedup
    /// actually realized, ≈ 1 for a serial run).
    pub fn parallelism(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            self.solver_time.as_secs_f64() / wall
        } else {
            1.0
        }
    }
}

/// A latency summary (min/mean/p50/p95/p99/max) over a set of duration
/// samples.
///
/// One struct serves every consumer that reports per-query wall time: the
/// `maxrs batch` CLI summary line, the `mrs_server` `/stats` endpoint (which
/// serializes one summary per HTTP endpoint), and the p50 ratios the
/// `serve_loadgen` gates check.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: usize,
    /// Fastest sample.
    pub min: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (50th percentile).
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Slowest sample.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarizes the samples.  An empty slice yields the all-zero summary
    /// (`count == 0`), so callers can render it unconditionally.
    pub fn from_durations(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort_unstable();
        let total: Duration = sorted.iter().sum();
        // Nearest-rank percentiles: `p95` of 20 samples is the 19th sorted
        // sample, never an interpolation between two.
        let rank = |p: f64| {
            let idx = (p * sorted.len() as f64).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        Self {
            count: sorted.len(),
            min: sorted[0],
            mean: total / sorted.len() as u32,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        write!(
            f,
            "min {:.1} µs | p50 {:.1} µs | p95 {:.1} µs | p99 {:.1} µs | max {:.1} µs | mean {:.1} µs",
            us(self.min),
            us(self.p50),
            us(self.p95),
            us(self.p99),
            us(self.max),
            us(self.mean),
        )
    }
}

/// The executor's response: one answer and one certification flag per
/// query, in query order, the dataset version they were computed at, plus
/// batch statistics.
#[derive(Clone, Debug)]
pub struct BatchReport<const D: usize> {
    /// Per-query outcomes, indexed like the submitted queries.
    pub answers: Vec<BatchAnswer<D>>,
    /// Per-query certification: `Some(true)` = certified against the
    /// version, `Some(false)` = contract violation, `None` = certification
    /// disabled (or the query failed).
    pub certified: Vec<Option<bool>>,
    /// The dataset version every answer was computed and certified at.
    pub version: u64,
    /// Batch-level statistics.
    pub stats: BatchStats,
}

impl<const D: usize> BatchReport<D> {
    /// The weighted report of query `i`, if it succeeded as a weighted query.
    pub fn weighted(&self, i: usize) -> Option<&SolverReport<Placement<D>>> {
        self.answers.get(i).and_then(BatchAnswer::weighted)
    }

    /// The colored report of query `i`, if it succeeded as a colored query.
    pub fn colored(&self, i: usize) -> Option<&SolverReport<ColoredPlacement<D>>> {
        self.answers.get(i).and_then(BatchAnswer::colored)
    }

    /// `true` if every query succeeded.
    pub fn all_ok(&self) -> bool {
        self.answers.iter().all(BatchAnswer::is_ok)
    }

    /// Per-query solver wall-time summary over the successful answers
    /// (failures carry no timing and are excluded).
    pub fn per_query_latency(&self) -> LatencySummary {
        let samples: Vec<Duration> =
            self.answers.iter().filter(|a| a.is_ok()).map(BatchAnswer::elapsed).collect();
        LatencySummary::from_durations(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_expose_solver_and_shape() {
        let query = BatchQuery::<2>::weighted("exact-rect-2d", RangeShape::rect(1.0, 2.0));
        assert_eq!(query.problem, ProblemKind::Weighted);
        assert_eq!(query.solver(), "exact-rect-2d");
        assert_eq!(query.shape(), &RangeShape::rect(1.0, 2.0));
        let colored = BatchQuery::<2>::colored("auto", RangeShape::ball(1.0));
        assert_eq!(colored.problem, ProblemKind::Colored);
    }

    #[test]
    fn answers_expose_reports_and_errors() {
        let failed = BatchAnswer::<2>::Failed(EngineError::UnknownSolver { name: "x".into() });
        assert!(!failed.is_ok());
        assert!(failed.weighted().is_none());
        assert!(failed.colored().is_none());
        assert!(failed.error().is_some());
        assert_eq!(failed.elapsed(), Duration::ZERO);
    }

    #[test]
    fn latency_summary_five_numbers() {
        let ms = Duration::from_millis;
        let samples: Vec<Duration> = (1..=20).map(ms).collect();
        let s = LatencySummary::from_durations(&samples);
        assert_eq!(s.count, 20);
        assert_eq!(s.min, ms(1));
        assert_eq!(s.max, ms(20));
        assert_eq!(s.p50, ms(10));
        assert_eq!(s.p95, ms(19));
        assert_eq!(s.p99, ms(20));
        assert_eq!(s.mean, ms(10) + Duration::from_micros(500));
        assert_eq!(LatencySummary::from_durations(&[]), LatencySummary::default());
        let one = LatencySummary::from_durations(&[ms(7)]);
        assert_eq!((one.min, one.p50, one.p95, one.max), (ms(7), ms(7), ms(7), ms(7)));
        assert!(format!("{s}").contains("p95"));
    }

    #[test]
    fn stats_throughput_and_parallelism() {
        let stats = BatchStats {
            queries: 10,
            failed: 2,
            wall: Duration::from_secs(2),
            solver_time: Duration::from_secs(6),
            ..BatchStats::default()
        };
        assert!((stats.queries_per_sec() - 4.0).abs() < 1e-12);
        assert!((stats.parallelism() - 3.0).abs() < 1e-12);
        assert_eq!(BatchStats::default().queries_per_sec(), 0.0);
    }
}
