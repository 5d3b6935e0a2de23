//! Built-in [`WeightedSolver`] implementations wrapping the weighted MaxRS
//! entry points: the exact 1-D interval sweep, the planar rectangle and disk
//! sweeps, and the Technique 1 static and dynamic samplers.

use std::time::{Duration, Instant};

use mrs_geom::Point;

use super::convert::{repack_point, repack_weighted};
use super::descriptor::{
    BatchCapability, DimSupport, GuaranteeClass, ProblemKind, ShapeClass, SolverDescriptor,
};
use super::index::SharedIndex;
use super::instance::{RangeShape, WeightedInstance};
use super::report::{Guarantee, SolveStats, SolverReport};
use super::{each_shape, EngineError, EngineResult, WeightedSolver};
use crate::config::SamplingConfig;
use crate::exact::disk2d::max_disk_placement_chunked;
use crate::exact::interval1d::IntervalPlacement;
use crate::exact::rect2d::max_rect_placement_presorted;
use crate::input::Placement;
use crate::technique1::weighted_placement;

pub(super) fn require_dim<const D: usize>(solver: &'static str, wanted: usize) -> EngineResult<()> {
    if D == wanted {
        Ok(())
    } else {
        Err(EngineError::UnsupportedDimension { solver, dim: D })
    }
}

pub(super) fn require_ball<const D: usize>(
    solver: &'static str,
    shape: &RangeShape<D>,
) -> EngineResult<f64> {
    shape.ball_radius().ok_or(EngineError::UnsupportedShape { solver, shape: shape.class() })
}

pub(super) fn require_box<const D: usize>(
    solver: &'static str,
    shape: &RangeShape<D>,
) -> EngineResult<[f64; D]> {
    shape.box_extents().ok_or(EngineError::UnsupportedShape { solver, shape: shape.class() })
}

fn require_nonnegative<const D: usize>(
    solver: &'static str,
    instance: &WeightedInstance<D>,
) -> EngineResult<()> {
    if instance.has_negative_weights() {
        Err(EngineError::NegativeWeights { solver })
    } else {
        Ok(())
    }
}

/// Exact 1-D interval MaxRS (`O(n log n)` sort + sweep), the per-length
/// oracle of the batched problem of Section 5.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactIntervalSolver;

impl ExactIntervalSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "exact-interval-1d",
        problem: ProblemKind::Weighted,
        shape: ShapeClass::Ball,
        dims: DimSupport::Fixed(1),
        guarantee: GuaranteeClass::Exact,
        dynamic: false,
        batch: BatchCapability::IndexShared,
        negative_weights: true,
        reference: "Section 5 per-length oracle (sorted sweep)",
    };
}

impl<const D: usize> WeightedSolver<D> for ExactIntervalSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    /// Answers every interval length off the shared sorted event list
    /// (built once per point-set lifetime), so a batch of `m` queries costs
    /// `O(n log n + m·n)` instead of `m` independent sorts.
    fn solve_all(
        &self,
        _base: &WeightedInstance<D>,
        shapes: &[RangeShape<D>],
        index: &SharedIndex<D>,
        _threads: usize,
    ) -> Vec<EngineResult<SolverReport<Placement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        if let Err(error) = require_dim::<D>(name, 1) {
            return shapes.iter().map(|_| Err(error.clone())).collect();
        }
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

/// The interval length `2·radius` of a ball query on the line, refused with
/// [`EngineError::RangeTooLarge`] when it overflows `f64`.
pub fn interval_length<const D: usize>(
    solver: &'static str,
    shape: &RangeShape<D>,
) -> EngineResult<f64> {
    let len = 2.0 * require_ball(solver, shape)?;
    if len.is_finite() {
        Ok(len)
    } else {
        Err(EngineError::RangeTooLarge { solver })
    }
}

/// The report of an exact 1-D placement: the interval's midpoint, its value,
/// and the time the sweep took.
pub fn interval_report<const D: usize>(
    solver: &'static str,
    best: IntervalPlacement,
    elapsed: Duration,
) -> SolverReport<Placement<D>> {
    let mut center = Point::<D>::origin();
    center[0] = 0.5 * (best.interval.lo + best.interval.hi);
    SolverReport {
        solver,
        placement: Placement { center, value: best.value },
        guarantee: Guarantee::Exact,
        stats: SolveStats { elapsed, ..SolveStats::default() },
    }
}

/// Exact planar rectangle MaxRS (`O(n log n)`, Imai–Asano / Nandy–
/// Bhattacharya sweep).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactRectSolver;

impl ExactRectSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "exact-rect-2d",
        problem: ProblemKind::Weighted,
        shape: ShapeClass::AxisBox,
        dims: DimSupport::Fixed(2),
        guarantee: GuaranteeClass::Exact,
        dynamic: false,
        batch: BatchCapability::IndexShared,
        negative_weights: false,
        reference: "[IA83]/[NB95] rectangle sweep",
    };
}

impl<const D: usize> WeightedSolver<D> for ExactRectSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    /// The points are repacked once and both sorted projections come from
    /// the shared index (built once per point-set lifetime), so each query
    /// runs the sort-free [`max_rect_placement_presorted`] sweep.
    fn solve_all(
        &self,
        base: &WeightedInstance<D>,
        shapes: &[RangeShape<D>],
        index: &SharedIndex<D>,
        _threads: usize,
    ) -> Vec<EngineResult<SolverReport<Placement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        if let Err(error) = require_dim::<D>(name, 2) {
            return shapes.iter().map(|_| Err(error.clone())).collect();
        }
        if let Err(error) = require_nonnegative(name, base) {
            return shapes.iter().map(|_| Err(error.clone())).collect();
        }
        let points = repack_weighted::<D, 2>(base.points());
        let by_x = index.sorted_projection(0);
        let by_y = index.sorted_projection(1);
        shapes
            .iter()
            .map(|shape| {
                let extents = require_box(name, shape)?;
                let start = Instant::now();
                let best =
                    max_rect_placement_presorted(&points, extents[0], extents[1], &by_x, &by_y);
                let center2 = best.rect.lo.lerp(&best.rect.hi, 0.5);
                Ok(SolverReport {
                    solver: name,
                    placement: Placement { center: repack_point(&center2), value: best.value },
                    guarantee: Guarantee::Exact,
                    stats: SolveStats { elapsed: start.elapsed(), ..SolveStats::default() },
                })
            })
            .collect()
    }
}

/// Exact planar disk MaxRS (`O(n² log n)`, Chazelle–Lee sweep).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactDiskSolver;

impl ExactDiskSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "exact-disk-2d",
        problem: ProblemKind::Weighted,
        shape: ShapeClass::Ball,
        dims: DimSupport::Fixed(2),
        guarantee: GuaranteeClass::Exact,
        dynamic: false,
        batch: BatchCapability::IndexShared,
        negative_weights: false,
        reference: "[CL86] disk sweep",
    };
}

impl<const D: usize> WeightedSolver<D> for ExactDiskSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    /// The neighbour grid comes from the shared index (one CSR build per
    /// distinct radius, cached for the point set's whole lifetime) and each
    /// sweep fans its candidate centers out over `threads` chunk workers — so
    /// `--threads` accelerates a *single* expensive query, not just
    /// query-level parallelism.  Chunk results merge deterministically;
    /// placements are identical at every thread count.
    fn solve_all(
        &self,
        base: &WeightedInstance<D>,
        shapes: &[RangeShape<D>],
        index: &SharedIndex<D>,
        threads: usize,
    ) -> Vec<EngineResult<SolverReport<Placement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        if let Err(error) = require_dim::<D>(name, 2) {
            return shapes.iter().map(|_| Err(error.clone())).collect();
        }
        if let Err(error) = require_nonnegative(name, base) {
            return shapes.iter().map(|_| Err(error.clone())).collect();
        }
        let points = base.points();
        shapes
            .iter()
            .map(|shape| {
                let radius = require_ball(name, shape)?;
                let start = Instant::now();
                let grid = index.point_grid(radius.max(1e-9));
                let (best, sweep) = max_disk_placement_chunked(points, radius, &grid, threads);
                Ok(SolverReport {
                    solver: name,
                    placement: best,
                    guarantee: Guarantee::Exact,
                    stats: SolveStats {
                        elapsed: start.elapsed(),
                        candidates_examined: Some(sweep.candidates_examined),
                        grid_cells_visited: Some(sweep.grid_cells_visited),
                        sieve_rejected: Some(sweep.sieve_rejected),
                        ..SolveStats::default()
                    },
                })
            })
            .collect()
    }
}

/// Static `(1/2 − ε)`-approximate `d`-ball MaxRS via point sampling
/// (Theorem 1.2).
#[derive(Clone, Copy, Debug)]
pub struct StaticBallSolver {
    config: SamplingConfig,
}

impl StaticBallSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "approx-static-ball",
        problem: ProblemKind::Weighted,
        shape: ShapeClass::Ball,
        dims: DimSupport::Any,
        guarantee: GuaranteeClass::HalfMinusEps,
        dynamic: false,
        batch: BatchCapability::IndexShared,
        negative_weights: false,
        reference: "Theorem 1.2",
    };

    /// A solver running with the given sampling configuration.
    pub fn new(config: SamplingConfig) -> Self {
        Self { config }
    }

    /// The sampling configuration the solver runs with.
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }
}

impl Default for StaticBallSolver {
    fn default() -> Self {
        Self::new(SamplingConfig::default())
    }
}

impl<const D: usize> WeightedSolver<D> for StaticBallSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    /// The Technique 1 sample set is built once per distinct radius, and
    /// the shared index keeps its answer for the point set's whole
    /// lifetime; every query reads that answer through
    /// [`weighted_placement`], which certifies the chosen center by an
    /// exact recount.
    fn solve_all(
        &self,
        base: &WeightedInstance<D>,
        shapes: &[RangeShape<D>],
        index: &SharedIndex<D>,
        _threads: usize,
    ) -> Vec<EngineResult<SolverReport<Placement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        if let Err(error) = require_nonnegative(name, base) {
            return shapes.iter().map(|_| Err(error.clone())).collect();
        }
        shapes
            .iter()
            .map(|shape| {
                let radius = require_ball(name, shape)?;
                let start = Instant::now();
                let (placement, set_stats) = if base.is_empty() {
                    (Placement::empty(), None)
                } else {
                    let set = index.weighted_sample_set(radius, &self.config);
                    let placement = weighted_placement(&set, base.points(), radius);
                    (placement, Some((set.grids, set.cells, set.samples)))
                };
                Ok(SolverReport {
                    solver: name,
                    placement,
                    guarantee: Guarantee::HalfMinusEps { eps: self.config.eps },
                    stats: SolveStats {
                        elapsed: start.elapsed(),
                        grids: set_stats.map(|s| s.0),
                        cells: set_stats.map(|s| s.1),
                        samples: set_stats.map(|s| s.2),
                        ..SolveStats::default()
                    },
                })
            })
            .collect()
    }
}

/// Dynamic `(1/2 − ε)`-approximate `d`-ball MaxRS (Theorem 1.1).  The
/// executor answers its ball queries from the dataset's resident tracker,
/// which every write updates (see
/// [`VersionedDataset::dynamic_ball_best`](super::VersionedDataset::dynamic_ball_best)).
/// `solve_all` is the fallback for a read whose view a write has passed, for
/// `auto` and for direct calls: it reads the answer a fresh tracker over the
/// instance would give ([`DynamicBallMaxRS::from_points`], then its best
/// sample), which is the static [`weighted_sample_set`] of the same points,
/// from the shared index's cache, and recounts it.  So it shares
/// `approx-static-ball`'s cache entry and builds no tracker.  For genuine
/// update streams use [`DynamicBallMaxRS`] directly.
///
/// [`DynamicBallMaxRS`]: crate::technique1::DynamicBallMaxRS
/// [`DynamicBallMaxRS::from_points`]: crate::technique1::DynamicBallMaxRS::from_points
/// [`weighted_sample_set`]: crate::technique1::weighted_sample_set
#[derive(Clone, Copy, Debug)]
pub struct DynamicBallSolver {
    config: SamplingConfig,
}

impl DynamicBallSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "dynamic-ball",
        problem: ProblemKind::Weighted,
        shape: ShapeClass::Ball,
        dims: DimSupport::Any,
        guarantee: GuaranteeClass::HalfMinusEps,
        dynamic: true,
        batch: BatchCapability::Independent,
        negative_weights: false,
        reference: "Theorem 1.1",
    };

    /// A solver running with the given sampling configuration.
    pub fn new(config: SamplingConfig) -> Self {
        Self { config }
    }

    /// The sampling configuration the solver runs with.
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }
}

impl Default for DynamicBallSolver {
    fn default() -> Self {
        Self::new(SamplingConfig::default())
    }
}

impl<const D: usize> WeightedSolver<D> for DynamicBallSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    fn solve_all(
        &self,
        base: &WeightedInstance<D>,
        shapes: &[RangeShape<D>],
        index: &SharedIndex<D>,
        _threads: usize,
    ) -> Vec<EngineResult<SolverReport<Placement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        each_shape(shapes, |shape| {
            let radius = require_ball(name, shape)?;
            require_nonnegative(name, base)?;
            let placement = if base.is_empty() {
                Placement::empty()
            } else {
                weighted_placement(
                    &index.weighted_sample_set(radius, &self.config),
                    base.points(),
                    radius,
                )
            };
            Ok(SolverReport {
                solver: name,
                placement,
                guarantee: Guarantee::HalfMinusEps { eps: self.config.eps },
                stats: SolveStats::default(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_geom::{Point2, WeightedPoint};

    fn planar_cluster() -> WeightedInstance<2> {
        WeightedInstance::ball(
            vec![
                WeightedPoint::unit(Point2::xy(0.0, 0.0)),
                WeightedPoint::unit(Point2::xy(0.5, 0.0)),
                WeightedPoint::unit(Point2::xy(0.0, 0.5)),
                WeightedPoint::unit(Point2::xy(9.0, 9.0)),
            ],
            1.0,
        )
    }

    #[test]
    fn exact_disk_dispatch() {
        let report = ExactDiskSolver.solve(&planar_cluster()).unwrap();
        assert_eq!(report.placement.value, 3.0);
        assert_eq!(report.guarantee, Guarantee::Exact);
        assert_eq!(report.solver, "exact-disk-2d");
    }

    #[test]
    fn exact_rect_dispatch_uses_box_shape() {
        let instance = WeightedInstance::axis_box(
            vec![
                WeightedPoint::unit(Point2::xy(0.0, 0.0)),
                WeightedPoint::unit(Point2::xy(0.6, 0.4)),
                WeightedPoint::unit(Point2::xy(5.0, 5.0)),
            ],
            [1.0, 1.0],
        );
        let report = ExactRectSolver.solve(&instance).unwrap();
        assert_eq!(report.placement.value, 2.0);
        // The reported center must actually cover that value.
        assert_eq!(instance.value_at(&report.placement.center), 2.0);
    }

    #[test]
    fn exact_interval_dispatch_in_1d() {
        let points = [0.0, 0.4, 0.9, 3.0, 3.2, 9.0]
            .iter()
            .map(|&x| WeightedPoint::unit(Point::new([x])))
            .collect();
        let instance = WeightedInstance::<1>::new(points, RangeShape::interval(1.0));
        let report = ExactIntervalSolver.solve(&instance).unwrap();
        assert_eq!(report.placement.value, 3.0);
        assert_eq!(instance.value_at(&report.placement.center), 3.0);
    }

    #[test]
    fn samplers_respect_their_guarantee_on_the_cluster() {
        let instance = planar_cluster();
        let exact = ExactDiskSolver.solve(&instance).unwrap().placement.value;
        for report in [
            StaticBallSolver::default().solve(&instance).unwrap(),
            DynamicBallSolver::default().solve(&instance).unwrap(),
        ] {
            assert!(
                report.placement.value >= report.guarantee.ratio() * exact,
                "{}: {} < {} * {}",
                report.solver,
                report.placement.value,
                report.guarantee.ratio(),
                exact
            );
            // Reported value is certified: re-evaluating the center agrees.
            assert_eq!(instance.value_at(&report.placement.center), report.placement.value);
        }
    }

    #[test]
    fn shape_and_dimension_mismatches_are_typed_errors() {
        let ball = planar_cluster();
        assert!(matches!(
            ExactRectSolver.solve(&ball),
            Err(EngineError::UnsupportedShape { solver: "exact-rect-2d", .. })
        ));
        assert!(matches!(
            ExactIntervalSolver.solve(&ball),
            Err(EngineError::UnsupportedDimension { solver: "exact-interval-1d", dim: 2 })
        ));
        let boxed = WeightedInstance::axis_box(vec![], [1.0, 1.0]);
        assert!(matches!(
            ExactDiskSolver.solve(&boxed),
            Err(EngineError::UnsupportedShape { solver: "exact-disk-2d", .. })
        ));
        assert!(matches!(
            StaticBallSolver::default().solve(&boxed),
            Err(EngineError::UnsupportedShape { .. })
        ));
    }

    #[test]
    fn negative_weights_route_to_the_interval_solver_only() {
        // The Section 5 gadgets use negative "wall" weights; the 1-D sweep
        // must accept them while the ball/rect solvers refuse with a typed
        // error instead of panicking deep inside the algorithm.
        let line = WeightedInstance::<1>::new(
            vec![
                WeightedPoint::new(Point::new([0.0]), 5.0),
                WeightedPoint::new(Point::new([0.4]), -2.0),
                WeightedPoint::new(Point::new([3.0]), 4.0),
            ],
            RangeShape::interval(1.0),
        );
        let report = ExactIntervalSolver.solve(&line).unwrap();
        assert_eq!(report.placement.value, 5.0, "the sweep must dodge the negative point");

        let planar =
            WeightedInstance::<2>::ball(vec![WeightedPoint::new(Point2::xy(0.0, 0.0), -1.0)], 1.0);
        assert!(matches!(
            ExactDiskSolver.solve(&planar),
            Err(EngineError::NegativeWeights { solver: "exact-disk-2d" })
        ));
        assert!(matches!(
            StaticBallSolver::default().solve(&planar),
            Err(EngineError::NegativeWeights { .. })
        ));
        assert!(matches!(
            DynamicBallSolver::default().solve(&planar),
            Err(EngineError::NegativeWeights { .. })
        ));
    }

    #[test]
    fn empty_instances_solve_to_empty_placements() {
        let empty = WeightedInstance::<2>::ball(vec![], 1.0);
        assert_eq!(ExactDiskSolver.solve(&empty).unwrap().placement.value, 0.0);
        assert_eq!(StaticBallSolver::default().solve(&empty).unwrap().placement.value, 0.0);
        assert_eq!(DynamicBallSolver::default().solve(&empty).unwrap().placement.value, 0.0);
    }
}
