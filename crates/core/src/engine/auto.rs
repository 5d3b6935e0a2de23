//! The `auto` meta-solver: route each query to the predicted-cheapest
//! capable built-in solver, using the [`cost`](super::cost) model.
//!
//! `auto` registers under one name for both problem kinds, as two types over
//! one routing function.  Per call it profiles the instance once; per query
//! it prices every capable concrete built-in ([`SolverDescriptor::supports`])
//! and picks the cheapest prediction (ties break toward registry order,
//! which lists exact solvers first).  The shapes routed to one solver reach
//! it in one inner `solve_all`, so an index-sharing solver still amortizes
//! its build.  Each inner report is forwarded with three provenance fields
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
//! * under overload degradation ([`cancel::degraded`]) the router drops the
//!   `Exact` guarantee tier — whose hardness-walled worst cases (the
//!   (min,+)-convolution-hard rectangle sweep among them) are exactly what
//!   an overloaded server cannot afford — as long as at least one
//!   approximate solver stays capable of the shape; with none, it keeps
//!   every capable solver: shedding a query entirely is the admission
//!   layer's job, not the router's;
//! * weighted `auto` refuses negative weights up front (`negative_weights:
//!   false`): routing them would silently restrict the candidate set to the
//!   1-D interval solver, and a meta-solver that sometimes accepts what it
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
use super::registry::{builtins, EngineConfig, SharedColoredSolver, SharedWeightedSolver};
use super::report::SolverReport;
use super::{ColoredSolver, EngineError, EngineResult, WeightedSolver};
use crate::input::{ColoredPlacement, Placement};

const AUTO_REFERENCE: &str = "cost-model router over the registered solvers";

/// The route both `auto` types run, for the kind of `router`: pick a
/// candidate per shape, group the shapes by pick, make one inner
/// `solve_all` per group, then stamp and scatter the reports.  `T` is the
/// kind's handle type, `n` the instance's size, and `solve_all` answers a
/// group of shapes with one candidate.
fn route<const D: usize, T: Clone + 'static, P>(
    router: &SolverDescriptor,
    config: &EngineConfig,
    profile: InstanceProfile<D>,
    n: usize,
    shapes: &[RangeShape<D>],
    solve_all: impl Fn(&T, &[RangeShape<D>]) -> Vec<EngineResult<SolverReport<P>>>,
) -> Vec<EngineResult<SolverReport<P>>> {
    let candidates: Vec<(SolverDescriptor, T)> = builtins::<D>(config)
        .iter()
        .filter(|e| e.descriptor.name != router.name)
        .filter_map(|e| Some((e.descriptor, e.handle()?)))
        .collect();
    let picks: Vec<Option<(usize, f64)>> = shapes
        .iter()
        .map(|shape| {
            let capable: Vec<usize> = (0..candidates.len())
                .filter(|&c| candidates[c].0.supports(router.problem, shape.class(), D))
                .collect();
            let exact = |c: &usize| candidates[*c].0.guarantee.is_exact();
            let degrade = cancel::degraded() && !capable.iter().all(exact);
            let features = profile.features(shape);
            capable
                .into_iter()
                .filter(|c| !(degrade && exact(c)))
                .map(|c| (c, cost::predicted_work(candidates[c].0.name, &features)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
        })
        .collect();
    let unsupported = |shape: &RangeShape<D>| {
        Err(EngineError::UnsupportedShape { solver: router.name, shape: shape.class() })
    };
    let mut results: Vec<Option<EngineResult<SolverReport<P>>>> = shapes
        .iter()
        .zip(&picks)
        .map(|(shape, pick)| pick.is_none().then(|| unsupported(shape)))
        .collect();
    for (c, (descriptor, solver)) in candidates.iter().enumerate() {
        let routed: Vec<(usize, f64)> = picks
            .iter()
            .enumerate()
            .filter_map(|(i, pick)| pick.filter(|&(p, _)| p == c).map(|(_, work)| (i, work)))
            .collect();
        if routed.is_empty() {
            continue;
        }
        let group: Vec<RangeShape<D>> = routed.iter().map(|&(i, _)| shapes[i]).collect();
        for (&(i, predicted), result) in routed.iter().zip(solve_all(solver, &group)) {
            results[i] = Some(result.map(|mut report| {
                report.solver = router.name;
                report.stats.auto_choice = Some(descriptor.name);
                report.stats.auto_predicted_work = Some(predicted);
                report.stats.auto_actual_work = Some(cost::actual_work(&report.stats, n));
                report.stats.degraded = cancel::degraded();
                report
            }));
        }
    }
    results.into_iter().map(|r| r.expect("every shape was routed")).collect()
}

/// The cost-routed weighted meta-solver.  See the module docs.
#[derive(Clone, Copy, Debug, Default)]
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
        if base.has_negative_weights() {
            let refusal = EngineError::NegativeWeights { solver: Self::DESCRIPTOR.name };
            return shapes.iter().map(|_| Err(refusal.clone())).collect();
        }
        let profile = InstanceProfile::of_points(base.points());
        let solve_all = |solver: &SharedWeightedSolver<D>, group: &[RangeShape<D>]| {
            solver.solve_all(base, group, index, threads)
        };
        route(&Self::DESCRIPTOR, &self.config, profile, base.len(), shapes, solve_all)
    }
}

/// The cost-routed colored meta-solver.  See the module docs.
#[derive(Clone, Copy, Debug, Default)]
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
        let profile = InstanceProfile::of_sites(base.sites());
        let solve_all = |solver: &SharedColoredSolver<D>, group: &[RangeShape<D>]| {
            solver.solve_all(base, group, index, threads)
        };
        route(&Self::DESCRIPTOR, &self.config, profile, base.len(), shapes, solve_all)
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
