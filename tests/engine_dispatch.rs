//! Engine-wide dispatch test: run **every** registered solver on one shared
//! small instance per (problem, shape, dimension) combination, and assert
//! that exact solvers agree with each other and approximate solvers respect
//! their stated guarantee.  This is the integration contract of the engine
//! layer: any solver added to the registry is automatically held to it.

use maxrs::prelude::*;

/// A planar weighted cluster whose radius-1 ball optimum and 1×1 closed-box
/// optimum are both 4.0 (the four 0.8-spaced corners), by construction.
fn weighted_points() -> Vec<WeightedPoint<2>> {
    vec![
        WeightedPoint::unit(Point2::xy(0.0, 0.0)),
        WeightedPoint::unit(Point2::xy(0.8, 0.0)),
        WeightedPoint::unit(Point2::xy(0.0, 0.8)),
        WeightedPoint::unit(Point2::xy(0.8, 0.8)),
        WeightedPoint::unit(Point2::xy(10.0, 10.0)),
        WeightedPoint::unit(Point2::xy(-10.0, 10.0)),
    ]
}

/// A colored cluster whose disk optimum (radius 1) is 3 distinct colors.
fn colored_sites() -> Vec<ColoredSite<2>> {
    vec![
        ColoredSite::new(Point2::xy(0.0, 0.0), 0),
        ColoredSite::new(Point2::xy(0.4, 0.0), 0),
        ColoredSite::new(Point2::xy(0.8, 0.0), 1),
        ColoredSite::new(Point2::xy(0.0, 0.8), 2),
        ColoredSite::new(Point2::xy(12.0, 0.0), 3),
    ]
}

#[test]
fn every_planar_weighted_ball_solver_meets_its_guarantee() {
    let registry = engine::registry();
    let instance = WeightedInstance::ball(weighted_points(), 1.0);

    // Ground truth from direct evaluation: the four clustered points fit in
    // one unit disk (pairwise distances ≤ 2·radius around (0.4, 0.4)).
    let opt = instance.value_at(&Point2::xy(0.4, 0.4));
    assert_eq!(opt, 4.0);

    let mut ran = 0;
    for solver in registry.weighted_solvers::<2>() {
        let descriptor = solver.descriptor();
        let report = match solver.solve(&instance) {
            Ok(report) => report,
            Err(EngineError::UnsupportedShape { .. }) => continue, // box-only solver
            Err(other) => panic!("{}: unexpected dispatch error {other}", descriptor.name),
        };
        ran += 1;
        assert_eq!(report.solver, descriptor.name);
        // Reported values must be certified: re-evaluating the center agrees.
        assert_eq!(
            instance.value_at(&report.placement.center),
            report.placement.value,
            "{} reported an uncertified value",
            descriptor.name
        );
        if report.guarantee.is_exact() {
            assert_eq!(report.placement.value, opt, "{} must be exact", descriptor.name);
        } else {
            assert!(
                report.placement.value >= report.guarantee.ratio() * opt,
                "{}: {} < {} · {opt}",
                descriptor.name,
                report.placement.value,
                report.guarantee.ratio()
            );
        }
    }
    assert!(ran >= 3, "expected ≥ 3 planar ball solvers, ran {ran}");
}

#[test]
fn weighted_box_solvers_agree_with_direct_evaluation() {
    let registry = engine::registry();
    let instance = WeightedInstance::axis_box(weighted_points(), [1.0, 1.0]);
    let opt = instance.value_at(&Point2::xy(0.4, 0.4));
    assert_eq!(opt, 4.0, "the closed unit box centered at (0.4, 0.4) covers all four corners");

    let mut ran = 0;
    for solver in registry.weighted_solvers::<2>() {
        if let Ok(report) = solver.solve(&instance) {
            ran += 1;
            assert!(report.guarantee.is_exact());
            assert_eq!(report.placement.value, opt, "{}", solver.name());
            assert_eq!(instance.value_at(&report.placement.center), opt);
        }
    }
    assert!(ran >= 1, "expected ≥ 1 planar box solver");
}

#[test]
fn one_dimensional_solvers_agree_including_the_batched_one() {
    let registry = engine::registry();
    let points: Vec<WeightedPoint<1>> = [0.0, 0.2, 0.9, 4.0, 4.1, 4.2, 9.0]
        .iter()
        .map(|&x| WeightedPoint::unit(Point::new([x])))
        .collect();
    let instance = WeightedInstance::<1>::new(points, RangeShape::interval(1.0));

    let mut exact_values = Vec::new();
    for solver in registry.weighted_solvers::<1>() {
        if let Ok(report) = solver.solve(&instance) {
            assert_eq!(
                instance.value_at(&report.placement.center),
                report.placement.value,
                "{}",
                solver.name()
            );
            if report.guarantee.is_exact() {
                exact_values.push((solver.name(), report.placement.value));
            }
        }
    }
    assert!(
        exact_values.iter().any(|(name, _)| *name == "batched-interval-1d"),
        "the batched solver must be registered: {exact_values:?}"
    );
    assert!(exact_values.len() >= 2, "expected ≥ 2 exact 1-D solvers");
    for (name, value) in &exact_values {
        assert_eq!(*value, 3.0, "{name} disagrees with the 1-D optimum");
    }
}

#[test]
fn every_colored_ball_solver_meets_its_guarantee() {
    let registry = engine::registry();
    let instance = ColoredInstance::ball(colored_sites(), 1.0);
    let opt = instance.distinct_at(&Point2::xy(0.3, 0.3));
    assert_eq!(opt, 3);

    let mut exact_ran = 0;
    let mut approx_ran = 0;
    for solver in registry.colored_solvers::<2>() {
        let descriptor = solver.descriptor();
        let report = match solver.solve(&instance) {
            Ok(report) => report,
            Err(EngineError::UnsupportedShape { .. }) => continue,
            Err(other) => panic!("{}: unexpected dispatch error {other}", descriptor.name),
        };
        assert_eq!(
            instance.distinct_at(&report.placement.center),
            report.placement.distinct,
            "{} reported an uncertified count",
            descriptor.name
        );
        if report.guarantee.is_exact() {
            exact_ran += 1;
            assert_eq!(report.placement.distinct, opt, "{} must be exact", descriptor.name);
        } else {
            approx_ran += 1;
            assert!(
                report.placement.distinct as f64 >= report.guarantee.ratio() * opt as f64,
                "{}: {} < {} · {opt}",
                descriptor.name,
                report.placement.distinct,
                report.guarantee.ratio()
            );
        }
    }
    assert!(exact_ran >= 3, "expected ≥ 3 exact colored solvers, ran {exact_ran}");
    assert!(approx_ran >= 2, "expected ≥ 2 approximate colored solvers, ran {approx_ran}");
}

#[test]
fn higher_dimensional_dispatch_reaches_the_samplers() {
    // The theory-faithful default keeps the full (2/ε)^d grid family, which
    // is enormous in d = 4; the practical caps are what any real caller uses
    // beyond the plane.
    let registry = engine::registry_with(EngineConfig::practical(0.25));
    // A 4-D cluster of three points inside one unit ball plus one far point.
    let points: Vec<WeightedPoint<4>> = vec![
        WeightedPoint::unit(Point::new([0.0, 0.0, 0.0, 0.0])),
        WeightedPoint::unit(Point::new([0.4, 0.0, 0.0, 0.0])),
        WeightedPoint::unit(Point::new([0.0, 0.4, 0.0, 0.0])),
        WeightedPoint::unit(Point::new([8.0, 8.0, 8.0, 8.0])),
    ];
    let instance = WeightedInstance::ball(points, 1.0);
    let opt_lower_bound = instance.value_at(&Point::new([0.1, 0.1, 0.0, 0.0]));
    assert_eq!(opt_lower_bound, 3.0);

    let solvers = registry.weighted_solvers::<4>();
    assert!(!solvers.is_empty(), "the samplers must be dimension-generic");
    for solver in solvers {
        let report = solver.solve(&instance).expect("samplers accept any-dimension balls");
        assert!(!report.guarantee.is_exact(), "no exact solver is registered for d = 4");
        assert!(report.placement.value >= report.guarantee.ratio() * opt_lower_bound);
    }
}

/// Error-path contract, shape axis: every registered solver, offered an
/// instance whose shape class it does not support, must refuse with
/// `EngineError::UnsupportedShape` naming itself — never panic, never
/// silently answer.
#[test]
fn every_solver_rejects_the_wrong_shape_with_a_typed_error() {
    let registry = engine::registry();

    fn check_weighted<const D: usize>(registry: &Registry) {
        for solver in registry.weighted_solvers::<D>() {
            let descriptor = solver.descriptor();
            // Offer the opposite shape class of the one the solver declares.
            let wrong = match descriptor.shape {
                maxrs::core::engine::ShapeClass::Ball => {
                    WeightedInstance::<D>::axis_box(vec![], [1.0; D])
                }
                maxrs::core::engine::ShapeClass::AxisBox => {
                    WeightedInstance::<D>::ball(vec![], 1.0)
                }
                // The auto router accepts every shape class: no wrong shape.
                maxrs::core::engine::ShapeClass::Any => continue,
            };
            match solver.solve(&wrong) {
                Err(EngineError::UnsupportedShape { solver, .. }) => {
                    assert_eq!(solver, descriptor.name);
                }
                other => panic!("{}: expected UnsupportedShape, got {other:?}", descriptor.name),
            }
        }
    }
    fn check_colored<const D: usize>(registry: &Registry) {
        for solver in registry.colored_solvers::<D>() {
            let descriptor = solver.descriptor();
            let wrong = match descriptor.shape {
                maxrs::core::engine::ShapeClass::Ball => {
                    ColoredInstance::<D>::axis_box(vec![], [1.0; D])
                }
                maxrs::core::engine::ShapeClass::AxisBox => ColoredInstance::<D>::ball(vec![], 1.0),
                // The auto router accepts every shape class: no wrong shape.
                maxrs::core::engine::ShapeClass::Any => continue,
            };
            match solver.solve(&wrong) {
                Err(EngineError::UnsupportedShape { solver, .. }) => {
                    assert_eq!(solver, descriptor.name);
                }
                other => panic!("{}: expected UnsupportedShape, got {other:?}", descriptor.name),
            }
        }
    }
    check_weighted::<1>(&registry);
    check_weighted::<2>(&registry);
    check_colored::<2>(&registry);
}

/// Error-path contract, dimension axis: a fixed-dimension solver is
/// unreachable through the registry in any other dimension, and dispatching
/// one directly in the wrong dimension yields `UnsupportedDimension` rather
/// than a panic.
#[test]
fn dimension_mismatches_are_typed_not_panics() {
    let registry = engine::registry();
    for d in registry.descriptors() {
        if let maxrs::core::engine::DimSupport::Fixed(only) = d.dims {
            // d = 3 is supported by no fixed-dimension solver, and the other
            // fixed dimensions must not leak into each other.
            match d.problem {
                maxrs::core::engine::ProblemKind::Weighted => {
                    assert!(registry.weighted::<3>(d.name).is_none(), "{}", d.name);
                    if only != 1 {
                        assert!(registry.weighted::<1>(d.name).is_none(), "{}", d.name);
                    }
                }
                maxrs::core::engine::ProblemKind::Colored => {
                    assert!(registry.colored::<3>(d.name).is_none(), "{}", d.name);
                    if only != 2 {
                        assert!(registry.colored::<2>(d.name).is_none(), "{}", d.name);
                    }
                }
            }
        }
    }
    // Direct dispatch in the wrong dimension (bypassing registry lookup).
    use maxrs::core::engine::{ExactDiskSolver, ExactIntervalSolver, WeightedSolver};
    let line = WeightedInstance::<1>::ball(vec![], 1.0);
    assert!(matches!(
        WeightedSolver::<1>::solve(&ExactDiskSolver, &line),
        Err(EngineError::UnsupportedDimension { solver: "exact-disk-2d", dim: 1 })
    ));
    let planar = WeightedInstance::<2>::ball(vec![], 1.0);
    assert!(matches!(
        WeightedSolver::<2>::solve(&ExactIntervalSolver, &planar),
        Err(EngineError::UnsupportedDimension { solver: "exact-interval-1d", dim: 2 })
    ));
}

/// Error-path contract, weight-sign axis: every registered weighted solver
/// either declares `negative_weights` support (the Section 5 interval
/// solvers, which must then solve such instances) or refuses them with
/// `EngineError::NegativeWeights` naming itself.
#[test]
fn negative_weights_are_accepted_or_refused_per_descriptor() {
    let registry = engine::registry();

    fn check<const D: usize>(registry: &Registry) {
        for solver in registry.weighted_solvers::<D>() {
            let descriptor = solver.descriptor();
            let mut negative = Point::<D>::origin();
            negative[0] = 0.5;
            let points = vec![
                WeightedPoint::new(Point::<D>::origin(), 2.0),
                WeightedPoint::new(negative, -1.0),
            ];
            let instance = match descriptor.shape {
                // The auto router takes any shape; probe its negative-weight
                // refusal with a ball.
                maxrs::core::engine::ShapeClass::Ball | maxrs::core::engine::ShapeClass::Any => {
                    WeightedInstance::<D>::ball(points, 1.0)
                }
                maxrs::core::engine::ShapeClass::AxisBox => {
                    WeightedInstance::<D>::axis_box(points, [1.0; D])
                }
            };
            if descriptor.negative_weights {
                let report = solver
                    .solve(&instance)
                    .unwrap_or_else(|e| panic!("{} must accept negatives: {e}", descriptor.name));
                // The optimum dodges the negative point entirely in 1-D.
                assert!(report.placement.value >= 2.0, "{}", descriptor.name);
            } else {
                match solver.solve(&instance) {
                    Err(EngineError::NegativeWeights { solver }) => {
                        assert_eq!(solver, descriptor.name);
                    }
                    other => {
                        panic!("{}: expected NegativeWeights, got {other:?}", descriptor.name)
                    }
                }
            }
        }
    }
    check::<1>(&registry);
    check::<2>(&registry);
}

/// The batch layer surfaces the same typed errors per query: an unknown
/// solver name or a shape mismatch fails that answer alone while the rest
/// of the batch proceeds.
#[test]
fn batch_executor_fails_individual_queries_with_typed_errors() {
    let registry = engine::registry();
    let dataset = VersionedDataset::new(weighted_points(), Vec::new());
    let queries = [
        BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0)),
        BatchQuery::weighted("exact-disk-2d", RangeShape::rect(1.0, 1.0)),
        BatchQuery::weighted("not-a-solver", RangeShape::ball(1.0)),
        BatchQuery::colored("exact-disk-2d", RangeShape::ball(1.0)),
    ];
    let report = BatchExecutor::new(&registry).execute_versioned_traced(
        &dataset,
        &queries,
        &mut TraceRecorder::disabled(),
    );
    assert_eq!(report.weighted(0).unwrap().placement.value, 4.0);
    assert!(matches!(
        report.answers[1].error(),
        Some(EngineError::UnsupportedShape { solver: "exact-disk-2d", .. })
    ));
    assert!(matches!(
        report.answers[2].error(),
        Some(EngineError::UnknownSolver { name }) if name == "not-a-solver"
    ));
    // A weighted solver name is unknown to the *colored* side of the registry.
    assert!(matches!(report.answers[3].error(), Some(EngineError::UnknownSolver { .. })));
    assert_eq!(report.stats.failed, 3);
    assert_eq!(report.stats.certified, 1);
}

#[test]
fn registry_descriptor_listing_is_consistent_with_dispatch() {
    let registry = engine::registry();
    let descriptors = registry.descriptors();
    assert!(descriptors.len() >= 8, "acceptance: at least 8 named solvers");
    // Every descriptor that claims planar support must actually resolve.
    for d in &descriptors {
        if !d.dims.supports(2) {
            continue;
        }
        let found = match d.problem {
            maxrs::core::engine::ProblemKind::Weighted => registry.weighted::<2>(d.name).is_some(),
            maxrs::core::engine::ProblemKind::Colored => registry.colored::<2>(d.name).is_some(),
        };
        assert!(found, "descriptor {} listed but not constructible", d.name);
    }
}

/// The batch path answers exactly as a fresh per-query solve does: for
/// every exact solver in the registry and every shape it supports from a
/// small list, the answer `execute_versioned_traced` gives (certified, two
/// worker threads, indexes shared across the batch) has the same value bits
/// (the same distinct count for colored solvers) and the same center bits as
/// `solve` on a fresh instance.
#[test]
fn batch_answers_are_bit_identical_to_fresh_solves() {
    let registry = engine::registry();
    let executor = BatchExecutor::with_config(
        &registry,
        ExecutorConfig { threads: Some(2), certify: true, ..ExecutorConfig::default() },
    );
    let planar = mrs_bench::batch::mixed_planar_request(200, 0, 91);
    let planar_shapes = [
        RangeShape::ball(0.4),
        RangeShape::ball(0.9),
        RangeShape::rect(1.0, 1.0),
        RangeShape::rect(1.6, 0.7),
    ];
    let line = mrs_bench::batch::interval_lengths_request(2000, 0, 23);
    let line_shapes =
        [RangeShape::interval(1.0), RangeShape::interval(20.0), RangeShape::interval(300.0)];
    let compared = assert_batch_matches_fresh_solves(&registry, &executor, &planar, &planar_shapes)
        + assert_batch_matches_fresh_solves(&registry, &executor, &line, &line_shapes);
    // 6 planar exact solvers × 2 shapes each, 2 line solvers × 3 lengths.
    assert_eq!(compared, 18);
}

/// Runs one batch of every (exact solver, supported shape) pair over the
/// workload's points and sites, asserts each answer is bit-identical to a
/// fresh `solve`, and returns how many pairs it compared.
fn assert_batch_matches_fresh_solves<const D: usize>(
    registry: &Registry,
    executor: &BatchExecutor<'_>,
    workload: &mrs_bench::batch::Workload<D>,
    shapes: &[RangeShape<D>],
) -> usize {
    use maxrs::core::engine::ProblemKind;
    let bits = |center: &Point<D>| -> [u64; D] { std::array::from_fn(|i| center[i].to_bits()) };

    let descriptors = registry.descriptors();
    let queries: Vec<BatchQuery<D>> = descriptors
        .iter()
        .filter(|d| d.name != "auto" && d.guarantee.is_exact())
        .flat_map(|d| {
            shapes.iter().filter(|s| d.supports(d.problem, s.class(), D)).map(|s| match d.problem {
                ProblemKind::Weighted => BatchQuery::weighted(d.name, *s),
                ProblemKind::Colored => BatchQuery::colored(d.name, *s),
            })
        })
        .collect();
    let dataset = VersionedDataset::new(workload.points.clone(), workload.sites.clone());
    let report =
        executor.execute_versioned_traced(&dataset, &queries, &mut TraceRecorder::disabled());
    assert_eq!(report.stats.certify_failures, 0);
    for (query, answer) in queries.iter().zip(&report.answers) {
        match query {
            BatchQuery::Weighted { solver, shape } => {
                let batch = answer.weighted().unwrap_or_else(|| panic!("{solver}: {answer:?}"));
                let fresh = registry
                    .weighted::<D>(solver)
                    .expect("the query names a registered solver")
                    .solve(&WeightedInstance::new(workload.points.clone(), *shape))
                    .expect("the fresh solve succeeds");
                assert_eq!(
                    batch.placement.value.to_bits(),
                    fresh.placement.value.to_bits(),
                    "{solver} {shape:?}: batch value"
                );
                assert_eq!(
                    bits(&batch.placement.center),
                    bits(&fresh.placement.center),
                    "{solver} {shape:?}: batch center"
                );
            }
            BatchQuery::Colored { solver, shape } => {
                let batch = answer.colored().unwrap_or_else(|| panic!("{solver}: {answer:?}"));
                let fresh = registry
                    .colored::<D>(solver)
                    .expect("the query names a registered solver")
                    .solve(&ColoredInstance::new(workload.sites.clone(), *shape))
                    .expect("the fresh solve succeeds");
                assert_eq!(
                    batch.placement.distinct, fresh.placement.distinct,
                    "{solver} {shape:?}: batch distinct count"
                );
                assert_eq!(
                    bits(&batch.placement.center),
                    bits(&fresh.placement.center),
                    "{solver} {shape:?}: batch center"
                );
            }
        }
    }
    queries.len()
}
