//! Engine integration: expose the batched 1-D solver through the
//! `mrs_core::engine` dispatch layer.
//!
//! [`BatchedIntervalSolver`] answers every interval length of a batch off
//! the shared index's one sorted event list with the `O(n)` sorted-line
//! sweep — the one `exact-interval-1d` runs, so both solvers return
//! identical placements.  Its engine `solve` is a one-query batch over a
//! one-off index, so it sorts once per call; many lengths over one point set
//! belong in one batch, [`BatchedIntervalSolver::solve_lengths`] or
//! [`BatchedMaxRS1D`], where the `O(n log n)` build is paid once.
//!
//! [`register`] plugs the solver into a [`Registry`]; the `maxrs` facade's
//! `engine::registry()` calls it so the solver is visible to every consumer
//! of the full workspace.

use std::sync::Arc;
use std::time::Instant;

use mrs_core::engine::{
    interval_length, interval_report, BatchCapability, DimSupport, EngineResult, GuaranteeClass,
    ProblemKind, RangeShape, Registry, ShapeClass, SharedIndex, SolverDescriptor, SolverReport,
    WeightedInstance, WeightedSolver,
};
use mrs_core::input::Placement;

use crate::batched_maxrs::BatchedMaxRS1D;
use crate::LinePoint;

/// The batched 1-D MaxRS solver (Section 5 upper bound), dispatchable through
/// the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchedIntervalSolver;

impl BatchedIntervalSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "batched-interval-1d",
        problem: ProblemKind::Weighted,
        shape: ShapeClass::Ball,
        dims: DimSupport::Fixed(1),
        guarantee: GuaranteeClass::Exact,
        dynamic: false,
        batch: BatchCapability::IndexShared,
        negative_weights: true,
        reference: "Theorem 1.3 upper bound (O(n log n + m·n))",
    };

    /// Answers many interval lengths over one instance, sharing the
    /// `O(n log n)` build: the batched setting of Theorem 1.3.
    ///
    /// # Panics
    /// Panics if a length is negative or not finite.
    pub fn solve_lengths(
        &self,
        instance: &WeightedInstance<1>,
        lengths: &[f64],
    ) -> Vec<SolverReport<Placement<1>>> {
        let solver = BatchedMaxRS1D::new(&to_line_points(instance));
        lengths
            .iter()
            .map(|&len| {
                // Per-length timing only; the shared O(n log n) build above is
                // amortized across the batch and not charged to any report.
                let start = Instant::now();
                interval_report(Self::DESCRIPTOR.name, solver.solve_one(len), start.elapsed())
            })
            .collect()
    }
}

fn to_line_points(instance: &WeightedInstance<1>) -> Vec<LinePoint> {
    instance.points().iter().map(|wp| LinePoint::new(wp.point[0], wp.weight)).collect()
}

impl WeightedSolver<1> for BatchedIntervalSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    /// Sweeps the shared sorted event list in place — built once per point
    /// set, never copied — so a batch of `m` queries costs
    /// `O(n log n + m·n)` total instead of `m` independent `O(n log n)`
    /// builds.
    fn solve_all(
        &self,
        _base: &WeightedInstance<1>,
        shapes: &[RangeShape<1>],
        index: &SharedIndex<1>,
        _threads: usize,
    ) -> Vec<EngineResult<SolverReport<Placement<1>>>> {
        let name = Self::DESCRIPTOR.name;
        let line = index.sorted_line();
        shapes
            .iter()
            .map(|shape| {
                let len = interval_length(name, shape)?;
                let start = Instant::now();
                Ok(interval_report(name, line.max_interval(len), start.elapsed()))
            })
            .collect()
    }
}

/// Registers this crate's solvers with an engine registry.
pub fn register(registry: &mut Registry) {
    registry.register_weighted::<1>(Arc::new(BatchedIntervalSolver));
}

/// The full workspace registry under `config`: the `mrs_core` built-ins
/// plus everything this crate contributes.  This is THE one place the
/// "fully wired" solver set is defined — the `maxrs` facade
/// (`engine::registry_with`) and the `mrs_server` query service both
/// delegate here, so the CLI and the server can never drift apart on which
/// solvers exist.
pub fn full_registry(config: mrs_core::engine::EngineConfig) -> Registry {
    let mut registry = Registry::with_config(config);
    register(&mut registry);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::engine::{registry, EngineError, RangeShape};
    use mrs_geom::{Point, WeightedPoint};

    fn line_instance() -> WeightedInstance<1> {
        let points = [0.0, 0.4, 0.9, 3.0, 3.2, 9.0]
            .iter()
            .map(|&x| WeightedPoint::unit(Point::new([x])))
            .collect();
        WeightedInstance::<1>::new(points, RangeShape::interval(1.0))
    }

    #[test]
    fn engine_dispatch_matches_exact_interval_solver() {
        let instance = line_instance();
        let mut reg = registry();
        register(&mut reg);
        let batched = reg.weighted::<1>("batched-interval-1d").unwrap();
        let exact = reg.weighted::<1>("exact-interval-1d").unwrap();
        for len in [0.1, 0.45, 1.0, 2.5, 10.0] {
            let instance = instance.with_shape(RangeShape::interval(len));
            let a = batched.solve(&instance).unwrap();
            let b = exact.solve(&instance).unwrap();
            assert_eq!(a.placement, b.placement, "len {len}");
            assert_eq!(instance.value_at(&a.placement.center), a.placement.value);
        }
        assert!(reg.descriptors().iter().any(|d| d.name == "batched-interval-1d"));
    }

    #[test]
    fn overflowing_lengths_are_typed_errors() {
        let instance = line_instance().with_shape(RangeShape::ball(1e308));
        let index = SharedIndex::<1>::new(instance.points().into(), Vec::new().into());
        let want = EngineError::RangeTooLarge { solver: "batched-interval-1d" };
        assert_eq!(BatchedIntervalSolver.solve(&instance).unwrap_err(), want);
        let all = BatchedIntervalSolver.solve_all(&instance, &[*instance.shape()], &index, 1);
        assert_eq!(all[0].as_ref().unwrap_err(), &want);
    }

    #[test]
    fn batched_lengths_share_one_build() {
        let instance = line_instance();
        let reports = BatchedIntervalSolver.solve_lengths(&instance, &[0.1, 1.0, 10.0]);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[1].placement.value, 3.0);
        assert_eq!(reports[2].placement.value, 6.0);
        // Longer intervals never cover less.
        assert!(reports[0].placement.value <= reports[1].placement.value);
    }

    #[test]
    fn box_shape_is_rejected() {
        let instance = WeightedInstance::<1>::axis_box(vec![], [1.0]);
        assert!(BatchedIntervalSolver.solve(&instance).is_err());
    }

    #[test]
    fn solve_all_shares_the_executor_index_and_matches_per_query_solves() {
        let instance = line_instance();
        let index = SharedIndex::<1>::new(instance.points().into(), Vec::new().into());
        let shapes = [
            RangeShape::interval(0.1),
            RangeShape::interval(1.0),
            RangeShape::interval(10.0),
            RangeShape::<1>::axis_box([1.0]),
        ];
        let results = BatchedIntervalSolver.solve_all(&instance, &shapes, &index, 1);
        assert_eq!(results.len(), 4);
        for (shape, result) in shapes.iter().zip(&results) {
            match result {
                Err(error) => {
                    assert!(shape.ball_radius().is_none(), "unexpected error {error}");
                }
                Ok(report) => {
                    let one = BatchedIntervalSolver.solve(&instance.with_shape(*shape)).unwrap();
                    assert_eq!(report.placement.value, one.placement.value);
                }
            }
        }
        // The sorted event list was built exactly once, by solve_all.
        assert_eq!(index.builds(), 2, "sorted line + Fenwick, shared across all queries");
    }
}
