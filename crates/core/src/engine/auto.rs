//! The `auto` meta-solver: route each query to the predicted-cheapest
//! capable built-in solver, using the [`cost`](super::cost) model.
//!
//! `auto` registers under one name for both problem kinds.  Per query it
//! profiles the instance once, prices every capable concrete built-in
//! ([`SolverDescriptor::supports`]), and dispatches to the cheapest
//! prediction (ties break toward registry order, which lists exact solvers
//! first).  The inner report is forwarded with three provenance fields
//! stamped into its [`SolveStats`](super::SolveStats): `auto_choice` (the
//! chosen solver's name), `auto_predicted_work`, and `auto_actual_work` —
//! so callers can audit the router's accuracy query by query, and the
//! batch/server layers can aggregate it.
//!
//! Contract notes:
//!
//! * the descriptor claims [`ShapeClass::Any`] / [`DimSupport::Any`]; when
//!   no concrete solver is capable of a shape in the instance's dimension
//!   (e.g. boxes outside the plane), dispatch fails with a typed
//!   [`EngineError::UnsupportedShape`];
//! * the descriptor's guarantee class is [`GuaranteeClass::HalfMinusEps`],
//!   the honest floor across everything `auto` may pick; each report's
//!   per-solve [`Guarantee`](super::Guarantee) is the chosen solver's own
//!   (often `Exact`);
//! * negative weights are refused up front (`negative_weights: false`):
//!   routing them would silently restrict the candidate set to the 1-D
//!   interval solver, and a meta-solver that sometimes accepts what it
//!   usually refuses is worse than a typed error;
//! * `auto` picks among *built-ins* only — externally registered solvers
//!   have no committed cost row.

use super::cancel;
use super::cost::{self, InstanceProfile};
use super::descriptor::{
    BatchCapability, DimSupport, GuaranteeClass, ProblemKind, ShapeClass, SolverDescriptor,
};
use super::index::SharedIndex;
use super::instance::{ColoredInstance, RangeShape, WeightedInstance};
use super::registry::{
    concrete_colored, concrete_weighted, EngineConfig, SharedColoredSolver, SharedWeightedSolver,
};
use super::report::SolverReport;
use super::{ColoredSolver, EngineError, EngineResult, WeightedSolver};
use crate::input::{ColoredPlacement, Placement};

const AUTO_REFERENCE: &str = "cost-model router over the registered solvers";

fn stamp<P>(report: &mut SolverReport<P>, choice: &'static str, predicted: f64, n: usize) {
    let actual = cost::actual_work(&report.stats, n);
    report.solver = "auto";
    report.stats.auto_choice = Some(choice);
    report.stats.auto_predicted_work = Some(predicted);
    report.stats.auto_actual_work = Some(actual);
    report.stats.degraded = cancel::degraded();
}

/// Under overload degradation the router drops the `Exact` guarantee tier —
/// whose hardness-walled worst cases (the (min,+)-convolution-hard rectangle
/// sweep among them) are exactly what an overloaded server cannot afford —
/// as long as at least one approximate solver stays capable.  With no
/// capable approximate solver the full candidate set is kept: shedding a
/// query entirely is the admission layer's job, not the router's.
fn degrade_candidates<S>(candidates: &mut Vec<S>, guarantee_of: impl Fn(&S) -> GuaranteeClass) {
    if !cancel::degraded() {
        return;
    }
    if candidates.iter().any(|s| guarantee_of(s) != GuaranteeClass::Exact) {
        candidates.retain(|s| guarantee_of(s) != GuaranteeClass::Exact);
    }
}

/// The cost-routed weighted meta-solver.  See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct AutoWeightedSolver {
    config: EngineConfig,
}

impl AutoWeightedSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "auto",
        problem: ProblemKind::Weighted,
        shape: ShapeClass::Any,
        dims: DimSupport::Any,
        guarantee: GuaranteeClass::HalfMinusEps,
        dynamic: false,
        batch: BatchCapability::IndexShared,
        negative_weights: false,
        reference: AUTO_REFERENCE,
    };

    /// A router whose candidate solvers run with `config`.
    pub fn new(config: EngineConfig) -> Self {
        Self { config }
    }

    fn pick<const D: usize>(
        &self,
        shape: &RangeShape<D>,
        profile: &InstanceProfile<D>,
    ) -> Option<(SharedWeightedSolver<D>, f64)> {
        let features = profile.features(shape);
        let mut candidates: Vec<SharedWeightedSolver<D>> = concrete_weighted::<D>(&self.config)
            .into_iter()
            .filter(|s| s.descriptor().supports(ProblemKind::Weighted, shape.class(), D))
            .collect();
        degrade_candidates(&mut candidates, |s| s.descriptor().guarantee);
        candidates
            .into_iter()
            .map(|s| {
                let work = cost::predicted_work(s.name(), &features);
                (s, work)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

impl Default for AutoWeightedSolver {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl<const D: usize> WeightedSolver<D> for AutoWeightedSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    fn solve_all(
        &self,
        base: &WeightedInstance<D>,
        shapes: &[RangeShape<D>],
        index: &SharedIndex<D>,
        threads: usize,
    ) -> Vec<EngineResult<SolverReport<Placement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        if base.has_negative_weights() {
            return shapes
                .iter()
                .map(|_| Err(EngineError::NegativeWeights { solver: name }))
                .collect();
        }
        let profile = InstanceProfile::of_points(base.points());
        let mut results: Vec<Option<EngineResult<SolverReport<Placement<D>>>>> =
            (0..shapes.len()).map(|_| None).collect();
        struct Route<const D: usize> {
            solver: SharedWeightedSolver<D>,
            predicted: Vec<f64>,
            indices: Vec<usize>,
            shapes: Vec<RangeShape<D>>,
        }
        let mut routes: Vec<Route<D>> = Vec::new();
        for (i, shape) in shapes.iter().enumerate() {
            match self.pick(shape, &profile) {
                None => {
                    results[i] = Some(Err(EngineError::UnsupportedShape {
                        solver: name,
                        shape: shape.class(),
                    }));
                }
                Some((solver, predicted)) => {
                    match routes.iter_mut().find(|r| r.solver.name() == solver.name()) {
                        Some(route) => {
                            route.predicted.push(predicted);
                            route.indices.push(i);
                            route.shapes.push(*shape);
                        }
                        None => routes.push(Route {
                            solver,
                            predicted: vec![predicted],
                            indices: vec![i],
                            shapes: vec![*shape],
                        }),
                    }
                }
            }
        }
        for route in routes {
            let inner = route.solver.solve_all(base, &route.shapes, index, threads);
            for ((&i, &predicted), result) in route.indices.iter().zip(&route.predicted).zip(inner)
            {
                results[i] = Some(result.map(|mut report| {
                    stamp(&mut report, route.solver.name(), predicted, base.len());
                    report
                }));
            }
        }
        results.into_iter().map(|r| r.expect("every shape was routed")).collect()
    }
}

/// The cost-routed colored meta-solver.  See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct AutoColoredSolver {
    config: EngineConfig,
}

impl AutoColoredSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "auto",
        problem: ProblemKind::Colored,
        shape: ShapeClass::Any,
        dims: DimSupport::Any,
        guarantee: GuaranteeClass::HalfMinusEps,
        dynamic: false,
        batch: BatchCapability::IndexShared,
        // Vacuous, as for every colored solver: sites carry no weights.
        negative_weights: true,
        reference: AUTO_REFERENCE,
    };

    /// A router whose candidate solvers run with `config`.
    pub fn new(config: EngineConfig) -> Self {
        Self { config }
    }

    fn pick<const D: usize>(
        &self,
        shape: &RangeShape<D>,
        profile: &InstanceProfile<D>,
    ) -> Option<(SharedColoredSolver<D>, f64)> {
        let features = profile.features(shape);
        let mut candidates: Vec<SharedColoredSolver<D>> = concrete_colored::<D>(&self.config)
            .into_iter()
            .filter(|s| s.descriptor().supports(ProblemKind::Colored, shape.class(), D))
            .collect();
        degrade_candidates(&mut candidates, |s| s.descriptor().guarantee);
        candidates
            .into_iter()
            .map(|s| {
                let work = cost::predicted_work(s.name(), &features);
                (s, work)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

impl Default for AutoColoredSolver {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl<const D: usize> ColoredSolver<D> for AutoColoredSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    fn solve_all(
        &self,
        base: &ColoredInstance<D>,
        shapes: &[RangeShape<D>],
        index: &SharedIndex<D>,
        threads: usize,
    ) -> Vec<EngineResult<SolverReport<ColoredPlacement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        let profile = InstanceProfile::of_sites(base.sites());
        let mut results: Vec<Option<EngineResult<SolverReport<ColoredPlacement<D>>>>> =
            (0..shapes.len()).map(|_| None).collect();
        struct Route<const D: usize> {
            solver: SharedColoredSolver<D>,
            predicted: Vec<f64>,
            indices: Vec<usize>,
            shapes: Vec<RangeShape<D>>,
        }
        let mut routes: Vec<Route<D>> = Vec::new();
        for (i, shape) in shapes.iter().enumerate() {
            match self.pick(shape, &profile) {
                None => {
                    results[i] = Some(Err(EngineError::UnsupportedShape {
                        solver: name,
                        shape: shape.class(),
                    }));
                }
                Some((solver, predicted)) => {
                    match routes.iter_mut().find(|r| r.solver.name() == solver.name()) {
                        Some(route) => {
                            route.predicted.push(predicted);
                            route.indices.push(i);
                            route.shapes.push(*shape);
                        }
                        None => routes.push(Route {
                            solver,
                            predicted: vec![predicted],
                            indices: vec![i],
                            shapes: vec![*shape],
                        }),
                    }
                }
            }
        }
        for route in routes {
            let inner = route.solver.solve_all(base, &route.shapes, index, threads);
            for ((&i, &predicted), result) in route.indices.iter().zip(&route.predicted).zip(inner)
            {
                results[i] = Some(result.map(|mut report| {
                    stamp(&mut report, route.solver.name(), predicted, base.len());
                    report
                }));
            }
        }
        results.into_iter().map(|r| r.expect("every shape was routed")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_geom::{ColoredSite, Point, Point2, WeightedPoint};

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
    fn auto_routes_and_stamps_provenance() {
        let report = AutoWeightedSolver::default().solve(&planar_cluster()).unwrap();
        assert_eq!(report.solver, "auto");
        let choice = report.stats.auto_choice.expect("auto stamps its choice");
        assert_ne!(choice, "auto");
        let predicted = report.stats.auto_predicted_work.expect("predicted work stamped");
        let actual = report.stats.auto_actual_work.expect("actual work stamped");
        assert!(predicted >= 1.0 && actual >= 4.0, "{predicted} {actual}");
        // The answer is certified whatever the route: re-evaluating the
        // reported center reproduces the reported value.
        let instance = planar_cluster();
        assert_eq!(instance.value_at(&report.placement.center), report.placement.value);
    }

    #[test]
    fn auto_picks_the_exact_interval_sweep_on_the_line() {
        let points = [0.0, 0.4, 0.9, 3.0].iter().map(|&x| WeightedPoint::unit(Point::new([x])));
        let instance = WeightedInstance::<1>::new(points.collect(), RangeShape::interval(1.0));
        let report = AutoWeightedSolver::default().solve(&instance).unwrap();
        assert_eq!(report.stats.auto_choice, Some("exact-interval-1d"));
        assert!(report.guarantee.is_exact());
        assert_eq!(report.placement.value, 3.0);
    }

    #[test]
    fn auto_routes_boxes_to_the_rect_sweep() {
        let instance = WeightedInstance::axis_box(
            vec![
                WeightedPoint::unit(Point2::xy(0.0, 0.0)),
                WeightedPoint::unit(Point2::xy(0.6, 0.4)),
                WeightedPoint::unit(Point2::xy(5.0, 5.0)),
            ],
            [1.0, 1.0],
        );
        let report = AutoWeightedSolver::default().solve(&instance).unwrap();
        assert_eq!(report.stats.auto_choice, Some("exact-rect-2d"));
        assert_eq!(report.placement.value, 2.0);
    }

    #[test]
    fn auto_refuses_negative_weights_up_front() {
        let line = WeightedInstance::<1>::new(
            vec![WeightedPoint::new(Point::new([0.0]), -1.0)],
            RangeShape::interval(1.0),
        );
        assert!(matches!(
            AutoWeightedSolver::default().solve(&line),
            Err(EngineError::NegativeWeights { solver: "auto" })
        ));
    }

    #[test]
    fn auto_fails_typed_on_uncoverable_shapes() {
        // Boxes outside the plane have no capable solver.
        let instance = WeightedInstance::<3>::axis_box(
            vec![WeightedPoint::unit(Point::new([0.0, 0.0, 0.0]))],
            [1.0, 1.0, 1.0],
        );
        assert!(matches!(
            AutoWeightedSolver::default().solve(&instance),
            Err(EngineError::UnsupportedShape { solver: "auto", shape: ShapeClass::AxisBox })
        ));
    }

    #[test]
    fn auto_colored_routes_and_certifies() {
        let instance = ColoredInstance::ball(
            vec![
                ColoredSite::new(Point2::xy(0.0, 0.0), 0),
                ColoredSite::new(Point2::xy(0.5, 0.0), 1),
                ColoredSite::new(Point2::xy(0.1, 0.6), 2),
                ColoredSite::new(Point2::xy(5.0, 5.0), 3),
            ],
            1.0,
        );
        let report = AutoColoredSolver::default().solve(&instance).unwrap();
        assert_eq!(report.solver, "auto");
        assert!(report.stats.auto_choice.is_some());
        assert_eq!(instance.distinct_at(&report.placement.center), report.placement.distinct);
    }

    #[test]
    fn auto_in_high_dimension_routes_to_a_sampler() {
        let instance = WeightedInstance::<4>::ball(
            vec![
                WeightedPoint::unit(Point::new([0.0, 0.0, 0.0, 0.0])),
                WeightedPoint::unit(Point::new([0.1, 0.0, 0.0, 0.0])),
            ],
            1.0,
        );
        let report =
            AutoWeightedSolver::new(EngineConfig::practical(0.25)).solve(&instance).unwrap();
        let choice = report.stats.auto_choice.unwrap();
        assert!(
            choice == "approx-static-ball" || choice == "dynamic-ball",
            "only the samplers are capable in d = 4, got {choice}"
        );
        assert!(!report.guarantee.is_exact());
    }
}
