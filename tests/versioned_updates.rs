//! End-to-end guarantees of the versioned update path: exact solvers are
//! **byte-identical** between the delta-overlay index and a from-scratch
//! rebuild at *every* version of a randomized update script, and the
//! incrementally maintained dynamic sampler stays pinned to a brute-force
//! recount through interleaved inserts, deletes (including
//! delete-then-reinsert of the same coordinates) and compaction
//! boundaries.

use maxrs::engine::{
    registry, BatchAnswer, BatchExecutor, BatchQuery, DynamicBallSolver, EngineConfig,
    ExecutorConfig, Finite, Mutation, RangeShape, Registry, ScriptOutcome, ScriptStep,
    TraceRecorder, VersionedDataset, WeightedInstance, WeightedSolver,
};
use mrs_core::config::SamplingConfig;
use mrs_geom::{Point, Point2, WeightedPoint};
use proptest::prelude::*;
use rand::prelude::*;

fn executor(registry: &Registry) -> BatchExecutor<'_> {
    BatchExecutor::with_config(
        registry,
        ExecutorConfig { threads: Some(1), certify: true, ..ExecutorConfig::default() },
    )
}

/// Runs a script through the one execution path, untraced.
fn script<const D: usize>(
    registry: &Registry,
    dataset: &VersionedDataset<D>,
    steps: &[ScriptStep<D>],
) -> maxrs::engine::ScriptReport<D> {
    executor(registry).execute_script(dataset, steps, &mut TraceRecorder::disabled())
}

/// Answers `query` from scratch over a materialized live snapshot — a fresh
/// dataset, so nothing is reused: the bump-epoch baseline every overlay
/// answer must match bit for bit.
fn rebuild_answer<const D: usize>(
    registry: &Registry,
    live: Finite<WeightedPoint<D>>,
    query: &BatchQuery<D>,
) -> BatchAnswer<D> {
    let fresh = VersionedDataset::from_shared(live, Finite::default());
    let mut report = executor(registry).execute_versioned_traced(
        &fresh,
        std::slice::from_ref(query),
        &mut TraceRecorder::disabled(),
    );
    assert_eq!(report.stats.certify_failures, 0, "rebuild must certify");
    report.answers.remove(0)
}

/// Asserts two weighted answers are byte-identical (center and value bits).
fn assert_bits_equal<const D: usize>(a: &BatchAnswer<D>, b: &BatchAnswer<D>, context: &str) {
    let (a, b) = match (a.weighted(), b.weighted()) {
        (Some(a), Some(b)) => (a, b),
        _ => panic!("{context}: both answers must be weighted successes ({a:?} vs {b:?})"),
    };
    assert_eq!(
        a.placement.value.to_bits(),
        b.placement.value.to_bits(),
        "{context}: values differ ({} vs {})",
        a.placement.value,
        b.placement.value
    );
    for i in 0..D {
        assert_eq!(
            a.placement.center[i].to_bits(),
            b.placement.center[i].to_bits(),
            "{context}: centers differ on axis {i} ({:?} vs {:?})",
            a.placement.center,
            b.placement.center
        );
    }
}

#[test]
fn planar_exact_solvers_byte_identical_at_every_version() {
    let registry = registry();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    // Coordinates snap to a coarse lattice so deletes and re-inserts hit
    // existing coordinates often, and sweeps see plenty of ties.
    let lattice = |rng: &mut StdRng| {
        Point2::xy((rng.gen_range(0..30) as f64) * 0.4, (rng.gen_range(0..30) as f64) * 0.4)
    };
    let base: Vec<WeightedPoint<2>> =
        (0..250).map(|_| WeightedPoint::new(lattice(&mut rng), rng.gen_range(0.5..2.5))).collect();
    let dataset = VersionedDataset::new(base, Vec::new());
    let queries = [
        BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.1)),
        BatchQuery::weighted("exact-rect-2d", RangeShape::rect(2.0, 1.5)),
    ];
    for step in 0..30 {
        // One random mutation per step: inserts twice as often as deletes.
        let mutation = if rng.gen_bool(0.66) {
            Mutation::Insert {
                point: WeightedPoint::new(lattice(&mut rng), rng.gen_range(0.5..2.5)),
                color: None,
            }
        } else {
            let live = dataset.view().live_points();
            Mutation::Delete { point: live[rng.gen_range(0..live.len())].point }
        };
        let steps = [
            ScriptStep::Mutate(mutation),
            ScriptStep::Query(queries[0].clone()),
            ScriptStep::Query(queries[1].clone()),
        ];
        let report = script(&registry, &dataset, &steps);
        assert!(report.all_ok(), "step {step}: {:?}", report.outcomes);
        assert_eq!(report.stats.certify_failures, 0, "step {step}");
        let live = dataset.view().live_points();
        for (query, outcome) in queries.iter().zip(report.outcomes[1..].iter()) {
            let ScriptOutcome::Answer { answer, certified, version } = outcome else {
                panic!("query steps answer");
            };
            assert_eq!(*certified, Some(true), "step {step} v{version}");
            let rebuilt = rebuild_answer(&registry, live.clone(), query);
            assert_bits_equal(answer, &rebuilt, &format!("step {step} {}", query.solver()));
        }
    }
    assert_eq!(dataset.version(), 31, "every mutation bumps the version once");
}

#[test]
fn line_solvers_byte_identical_through_updates_and_compactions() {
    // The full registry includes the Theorem 1.3 batched solver; a tiny
    // compaction threshold forces several generation rebuilds mid-script.
    let registry = registry();
    let mut rng = StdRng::seed_from_u64(0xACE);
    let base: Vec<WeightedPoint<1>> = (0..120)
        .map(|_| {
            WeightedPoint::new(
                Point::new([(rng.gen_range(0..200) as f64) * 0.5]),
                rng.gen_range(0.5..2.0),
            )
        })
        .collect();
    let dataset = VersionedDataset::new(base, Vec::new()).with_compaction_alpha(0.1);
    let queries = [
        BatchQuery::weighted("batched-interval-1d", RangeShape::interval(7.0)),
        BatchQuery::weighted("exact-interval-1d", RangeShape::interval(11.0)),
    ];
    let mut compacted = false;
    for step in 0..40 {
        let mutation = if rng.gen_bool(0.5) {
            Mutation::Insert {
                point: WeightedPoint::new(
                    Point::new([(rng.gen_range(0..200) as f64) * 0.5]),
                    rng.gen_range(0.5..2.0),
                ),
                color: None,
            }
        } else {
            let live = dataset.view().live_points();
            Mutation::Delete { point: live[rng.gen_range(0..live.len())].point }
        };
        let steps = [
            ScriptStep::Mutate(mutation),
            ScriptStep::Query(queries[0].clone()),
            ScriptStep::Query(queries[1].clone()),
        ];
        let report = script(&registry, &dataset, &steps);
        assert!(report.all_ok(), "step {step}");
        if let ScriptOutcome::Mutated { compacted: c, .. } = &report.outcomes[0] {
            compacted |= c;
        }
        let live = dataset.view().live_points();
        for (query, outcome) in queries.iter().zip(report.outcomes[1..].iter()) {
            let answer = outcome.answer().expect("query answered");
            assert_eq!(outcome.certified(), Some(true), "step {step}");
            let rebuilt = rebuild_answer(&registry, live.clone(), query);
            assert_bits_equal(answer, &rebuilt, &format!("step {step} {}", query.solver()));
        }
    }
    assert!(compacted, "α = 0.1 over 40 mutations must compact at least once");
    assert!(dataset.compactions() >= 1);
}

/// Pins the compaction threshold at the *exact* `α` boundary: the predicate
/// is strictly `delta > α · live`, so a delta of exactly `α · live` must NOT
/// compact, and the very next mutation must.  Insert-only scripts make the
/// boundary reachable exactly: after `k` inserts on a base of `n` points the
/// delta is `k` and the live size is `n + k`, so `n = 96`, `α = 0.25` puts
/// equality at `k = 32` (`32 == 0.25 · 128`).  Along the way every version
/// bumps by exactly one (compaction itself adds no bump), the delta resets
/// to zero at the compaction, and answers computed right before, at, and
/// after the boundary stay bit-identical to a cold rebuild — any derived
/// structure cached for the old generation must have been invalidated.
#[test]
fn compaction_at_exact_alpha_boundary_is_strict() {
    let registry = registry();
    let mut rng = StdRng::seed_from_u64(0xA1FA);
    let lattice = |rng: &mut StdRng| {
        Point2::xy((rng.gen_range(0..24) as f64) * 0.5, (rng.gen_range(0..24) as f64) * 0.5)
    };
    let base: Vec<WeightedPoint<2>> =
        (0..96).map(|_| WeightedPoint::new(lattice(&mut rng), rng.gen_range(0.5..2.0))).collect();
    let dataset = VersionedDataset::new(base, Vec::new()).with_compaction_alpha(0.25);
    assert_eq!(dataset.version(), 1);
    let query = BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.3));

    for step in 1..=33usize {
        let steps = [
            ScriptStep::Mutate(Mutation::Insert {
                point: WeightedPoint::new(lattice(&mut rng), rng.gen_range(0.5..2.0)),
                color: None,
            }),
            ScriptStep::Query(query.clone()),
        ];
        let report = script(&registry, &dataset, &steps);
        assert!(report.all_ok(), "step {step}: {:?}", report.outcomes);
        let ScriptOutcome::Mutated { version, compacted, .. } = &report.outcomes[0] else {
            panic!("mutation steps report a mutation outcome");
        };
        // Versions advance one per mutation, with no extra bump from the
        // compaction itself.
        assert_eq!(*version, 1 + step as u64, "step {step}");
        assert_eq!(dataset.version(), 1 + step as u64, "step {step}");
        // delta == α · live is NOT enough (strict inequality): at step 32
        // the delta sits exactly on the boundary and survives; step 33
        // (33 > 0.25 · 129) compacts and resets the delta.
        match step {
            32 => {
                assert!(!compacted, "step 32 sits exactly on the α boundary");
                assert_eq!(dataset.view().delta_size(), 32);
                assert_eq!(dataset.compactions(), 0);
            }
            33 => {
                assert!(*compacted, "step 33 crosses the α boundary");
                assert_eq!(dataset.view().delta_size(), 0, "compaction resets the delta");
                assert_eq!(dataset.compactions(), 1);
            }
            _ => {
                assert!(!compacted, "step {step} is below the α boundary");
                assert_eq!(dataset.view().delta_size(), step);
            }
        }
        // The overlay (and, at step 33, the freshly compacted generation)
        // answers bit-identically to a cold rebuild of the live snapshot.
        let ScriptOutcome::Answer { answer, certified, .. } = &report.outcomes[1] else {
            panic!("query steps answer");
        };
        assert_eq!(*certified, Some(true), "step {step}");
        let rebuilt = rebuild_answer(&registry, dataset.view().live_points(), &query);
        assert_bits_equal(answer, &rebuilt, &format!("step {step}"));
    }
    assert_eq!(dataset.view().live_points().len(), 96 + 33);
}

/// The precondition for answering every `dynamic-ball` query from the
/// dataset's resident tracker: on a fresh dataset, the tracker's answer is
/// bit-identical to a fresh `DynamicBallSolver::solve` over the same
/// points.  Dyadic-lattice coordinates and integer weights keep every
/// recount exact, so the two value recounts (instance scan vs. overlay
/// grid) cannot differ by rounding.
#[test]
fn tracker_on_a_fresh_dataset_matches_a_fresh_solve() {
    fn check<const D: usize>(seed: u64) {
        let registry = Registry::with_config(EngineConfig::practical(0.25).with_seed(seed));
        let solver = DynamicBallSolver::new(registry.config().sampling);
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<WeightedPoint<D>> = (0..48)
            .map(|_| {
                let coords = std::array::from_fn(|_| rng.gen_range(0..16) as f64 * 0.25);
                WeightedPoint::new(Point::new(coords), rng.gen_range(1..5) as f64)
            })
            .collect();
        for radius in [0.3, 0.5, 1.0, 1.7] {
            let fresh = solver
                .solve(&WeightedInstance::ball(points.clone(), radius))
                .expect("non-negative weights");
            let dataset = VersionedDataset::new(points.clone(), Vec::new());
            let query = BatchQuery::weighted("dynamic-ball", RangeShape::ball(radius));
            let report = executor(&registry).execute_versioned_traced(
                &dataset,
                &[query],
                &mut TraceRecorder::disabled(),
            );
            assert_eq!(report.certified, vec![Some(true)], "D={D} r={radius}");
            assert_bits_equal(
                &report.answers[0],
                &BatchAnswer::Weighted(fresh),
                &format!("D={D} r={radius}"),
            );
        }
    }
    check::<1>(0xD1);
    check::<2>(0xD2);
}

proptest! {
    /// Interleaved insert/delete/query scripts pin the delta-overlay index
    /// and the dynamic sampler against a brute-force rebuild at every
    /// step.  Coordinates come from a tiny lattice, so deleting and
    /// re-inserting the *same* coordinates is common, and a small α forces
    /// the script across compaction boundaries.
    #[test]
    fn interleaved_scripts_pin_overlay_and_sampler_to_brute_force(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec((0usize..3, 0usize..8, 0usize..8), 8..28),
    ) {
        let registry = Registry::with_config(EngineConfig::practical(0.3).with_seed(seed));
        let sampling = SamplingConfig::practical(0.3).with_seed(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<WeightedPoint<2>> = (0..20)
            .map(|_| {
                WeightedPoint::new(
                    Point2::xy(rng.gen_range(0..8) as f64 * 0.5, rng.gen_range(0..8) as f64 * 0.5),
                    rng.gen_range(0.5..2.0),
                )
            })
            .collect();
        let dataset = VersionedDataset::new(base, Vec::new()).with_compaction_alpha(0.2);
        let radius = 0.8;
        for &(kind, xi, yi) in &ops {
            let coords = Point2::xy(xi as f64 * 0.5, yi as f64 * 0.5);
            let mutation = match kind {
                0 | 1 => Mutation::Insert {
                    point: WeightedPoint::new(coords, 1.0 + (xi + yi) as f64 * 0.25),
                    color: None,
                },
                _ => Mutation::Delete { point: coords },
            };
            let steps = [
                ScriptStep::Mutate(mutation),
                ScriptStep::Query(BatchQuery::weighted("exact-disk-2d", RangeShape::ball(radius))),
            ];
            let report = script(&registry, &dataset, &steps);
            let view = dataset.view();
            let live = view.live_points();

            // 1. The exact overlay answer equals a from-scratch rebuild,
            //    bit for bit, and certifies.
            let ScriptOutcome::Answer { answer, certified, .. } = &report.outcomes[1] else {
                panic!("query step answers");
            };
            prop_assert_eq!(*certified, Some(true));
            let rebuilt = rebuild_answer(
                &registry,
                live.clone(),
                &BatchQuery::weighted("exact-disk-2d", RangeShape::ball(radius)),
            );
            let (a, b) = (answer.weighted().unwrap(), rebuilt.weighted().unwrap());
            prop_assert_eq!(a.placement.value.to_bits(), b.placement.value.to_bits());
            prop_assert_eq!(a.placement.center[0].to_bits(), b.placement.center[0].to_bits());
            prop_assert_eq!(a.placement.center[1].to_bits(), b.placement.center[1].to_bits());

            // 2. The overlay's recount primitive agrees with a brute-force
            //    scan of the live snapshot.
            let probe = Point2::xy((xi as f64) * 0.5, (yi as f64) * 0.5);
            let brute: f64 = live
                .iter()
                .filter(|p| p.point.dist(&probe) <= radius * (1.0 + 1e-12) + 1e-12)
                .map(|p| p.weight)
                .sum();
            prop_assert!((view.ball_weight(&probe, radius) - brute).abs() < 1e-9);

            // 3. The incrementally maintained sampler reports an exact
            //    recount of its own center and respects its guarantee
            //    against the true optimum.
            if live.is_empty() {
                continue;
            }
            let (tracker_view, best) =
                dataset.dynamic_ball_best(radius, &sampling).expect("non-negative weights");
            prop_assert!(tracker_view.version() >= view.version());
            let recount: f64 = live
                .iter()
                .filter(|p| p.point.dist(&best.center) <= radius * (1.0 + 1e-12) + 1e-12)
                .map(|p| p.weight)
                .sum();
            prop_assert!(
                (best.value - recount).abs() < 1e-9,
                "sampler value {} vs recount {recount}",
                best.value
            );
            let exact = rebuilt.weighted().unwrap().placement.value;
            prop_assert!(
                best.value >= (0.5 - 0.3) * exact - 1e-9,
                "sampler {} below guarantee of exact {exact}",
                best.value
            );
        }
    }
}
