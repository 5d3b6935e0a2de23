//! Wall-clock-free performance smoke tests.
//!
//! Timing asserts are flaky in CI, so these tests bound *work counters*
//! instead: the CSR grid's `GridQueryStats` (cells visited, candidates
//! distance-tested), the engine's aggregated `candidates_examined` /
//! `grid_cells_visited`, the shared index's build counter, and the
//! output-sensitive solver's pruning counters.  A change that re-introduces
//! per-query index rebuilds, defeats the localization prunes, or makes grid
//! queries scan quadratically fails here deterministically.

use maxrs::core::technique2::output_sensitive_colored_disk_with_stats;
use maxrs::engine::{
    registry, BatchExecutor, BatchQuery, ExecutorConfig, RangeShape, TraceRecorder,
    VersionedDataset,
};
use maxrs::geom::{HashGrid, Point2, WeightedPoint};
use rand::prelude::*;

fn uniform_points(n: usize, extent: f64, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Point2::xy(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent))).collect()
}

/// A grid query's candidate count is `O(output + cells visited)`: with the
/// cell side matched to the radius, the 3×3 cell neighbourhood around the
/// query bounds the candidates by the hits within radius 3r (a constant-area
/// blowup), never by `n`.
#[test]
fn grid_query_work_is_output_plus_cells() {
    let points = uniform_points(20_000, 100.0, 7);
    let index = HashGrid::build(1.0, &points);
    let mut total_candidates = 0usize;
    let mut total_blownup_hits = 0usize;
    let mut total_cells = 0usize;
    for q in uniform_points(64, 100.0, 8) {
        let mut hits_3r = 0usize;
        index.for_each_within(&q, 3.0, |_| hits_3r += 1);
        let stats = index.for_each_within(&q, 1.0, |_| {});
        total_candidates += stats.candidates;
        total_cells += stats.cells;
        total_blownup_hits += hits_3r;
        // Per query: at most the 3x3 cell neighbourhood.
        assert!(stats.cells <= 9, "radius = cell side visits at most 9 cells, got {}", stats.cells);
        // Every candidate lives in a visited cell and within the 3r blowup.
        assert!(
            stats.candidates <= hits_3r,
            "candidates {} exceed the 3r neighbourhood {hits_3r}",
            stats.candidates
        );
    }
    assert!(total_candidates > 0 && total_cells > 0);
    // Aggregate: the scan never degenerates toward O(n) per query.
    assert!(
        total_candidates <= total_blownup_hits,
        "{total_candidates} candidates vs {total_blownup_hits} 3r-hits"
    );
}

/// A batch over one dataset builds each structure exactly once: the first
/// execution pays the builds, a second identical execution pays zero, and
/// the per-query work counters are identical across both runs (the work is
/// deterministic, not timing-dependent).
#[test]
fn batch_reuses_the_shared_index_with_zero_rebuilds() {
    let points: Vec<WeightedPoint<2>> =
        uniform_points(500, 10.0, 11).into_iter().map(WeightedPoint::unit).collect();
    let dataset = VersionedDataset::new(points, Vec::new());
    // Two distinct radii → exactly two grids, regardless of query count.
    let queries: Vec<BatchQuery<2>> = (0..10)
        .map(|i| {
            let radius = if i % 2 == 0 { 0.8 } else { 1.3 };
            BatchQuery::weighted("exact-disk-2d", RangeShape::ball(radius))
        })
        .collect();
    let registry = registry();
    let executor = BatchExecutor::with_config(
        &registry,
        ExecutorConfig { threads: Some(1), certify: false, ..ExecutorConfig::default() },
    );
    let run =
        || executor.execute_versioned_traced(&dataset, &queries, &mut TraceRecorder::disabled());

    let first = run();
    assert!(first.all_ok());
    assert_eq!(dataset.builds(), 2, "one CSR grid per distinct radius, nothing else");
    assert!(first.stats.candidates_examined > 0);
    assert!(first.stats.grid_cells_visited > 0);

    let second = run();
    assert!(second.all_ok());
    assert_eq!(second.stats.index_builds, 0, "warm index must not rebuild");
    assert_eq!(dataset.builds(), 2, "still exactly two structures");
    assert_eq!(
        first.stats.candidates_examined, second.stats.candidates_examined,
        "work counters are deterministic run to run"
    );
    assert_eq!(first.stats.grid_cells_visited, second.stats.grid_cells_visited);
}

/// The technique-1 sample set is built once per distinct radius and shared
/// across every query of the batch (and across batches on the same index).
#[test]
fn sampler_batches_build_one_sample_set_per_radius() {
    let points: Vec<WeightedPoint<2>> =
        uniform_points(300, 8.0, 13).into_iter().map(WeightedPoint::unit).collect();
    let dataset = VersionedDataset::new(points, Vec::new());
    let queries = vec![BatchQuery::weighted("approx-static-ball", RangeShape::ball(1.0)); 8];
    let registry = registry();
    let executor = BatchExecutor::with_config(
        &registry,
        ExecutorConfig { threads: Some(1), certify: true, ..ExecutorConfig::default() },
    );
    let report =
        executor.execute_versioned_traced(&dataset, &queries, &mut TraceRecorder::disabled());
    assert!(report.all_ok());
    assert_eq!(report.stats.certify_failures, 0);
    // One sample set shared by all eight queries, plus the one per-radius
    // grid the certification pass reuses — never a per-query rebuild.
    assert_eq!(dataset.builds(), 2, "eight same-radius sampler queries share one sample set");
    // All eight queries answered from the same set: identical placements.
    let first = report.weighted(0).unwrap().placement;
    for i in 1..8 {
        assert_eq!(report.weighted(i).unwrap().placement, first);
    }
}

/// The f32 sieve must keep earning its keep on the loadgen planar dataset
/// (the clustered workload `serve_loadgen` uploads): raw grid queries under
/// the sieve-then-verify kernel — the process default — reject at least half
/// of all candidates the cell walk could not prune, before any f64
/// arithmetic runs.  A regression that widens the threshold until everything
/// survives (an `M²`-proportional error bound does exactly that at these
/// coordinate magnitudes) fails this floor deterministically.
#[test]
fn sieve_rejects_at_least_half_the_candidates_on_the_loadgen_dataset() {
    assert_eq!(
        maxrs::geom::kernels::kernel_mode(),
        maxrs::geom::KernelMode::SieveF32,
        "the sieve is the process default"
    );
    let csv = mrs_bench::serve::planar_csv(10_000, 42);
    let set = maxrs::core::input::parse_point_set_csv(&csv).expect("loadgen CSV parses");
    let points: Vec<Point2> = set.points.iter().map(|p| p.point).collect();
    for radius in [0.5, 1.0, 2.0] {
        let index = HashGrid::build(radius, &points);
        let mut stats = maxrs::geom::GridQueryStats::default();
        for q in points.iter().take(2000) {
            stats.merge(index.for_each_within(q, radius, |_| {}));
        }
        assert!(stats.candidates > 0);
        assert!(
            stats.sieve_rejected * 2 >= stats.candidates,
            "r={radius}: sieve rejected {} of {} candidates (< 50%)",
            stats.sieve_rejected,
            stats.candidates
        );
    }
}

/// End-to-end, the batch counters must carry the sieve's work through
/// `SolveStats → BatchStats`: a candidates-bound planar batch over the
/// loadgen dataset reports a `sieve_rejected` share that is substantial
/// (the union sweeps run denser neighbourhoods than raw queries, so the
/// floor is a third rather than half) yet strictly below the candidate
/// total.
#[test]
fn batch_counters_carry_the_sieve_share() {
    let csv = mrs_bench::serve::planar_csv(10_000, 42);
    let set = maxrs::core::input::parse_point_set_csv(&csv).expect("loadgen CSV parses");
    let dataset = VersionedDataset::new(set.points, set.sites);
    let mut queries = Vec::new();
    for radius in [0.5, 1.0] {
        queries.push(BatchQuery::weighted("exact-disk-2d", RangeShape::ball(radius)));
        queries
            .push(BatchQuery::colored("output-sensitive-colored-disk", RangeShape::ball(radius)));
    }
    let registry = registry();
    let executor = BatchExecutor::with_config(
        &registry,
        ExecutorConfig { threads: Some(1), certify: false, ..ExecutorConfig::default() },
    );
    let report =
        executor.execute_versioned_traced(&dataset, &queries, &mut TraceRecorder::disabled());
    assert!(report.all_ok());
    let stats = &report.stats;
    assert!(stats.candidates_examined > 0);
    assert!(
        stats.sieve_rejected * 3 >= stats.candidates_examined,
        "sieve rejected {} of {} candidates (< 1/3)",
        stats.sieve_rejected,
        stats.candidates_examined
    );
    assert!(stats.sieve_rejected < stats.candidates_examined);
}

/// The `auto` router must keep routing well on the loadgen mix, measured in
/// the same deterministic work units the cost model is calibrated in: for
/// every query, the chosen solver must be *capable* (a routing bug that
/// dispatches an incapable solver fails hard), and on at least 80% of the
/// mix the choice's measured work must be within 10% of the cheapest
/// capable solver's measured work.  Each run executes against a fresh
/// index, so counters are cold and comparable across solvers.
#[test]
fn auto_picks_the_measured_cheapest_solver_on_the_loadgen_mix() {
    use maxrs::core::engine::cost;
    use maxrs::engine::{EngineConfig, ProblemKind, Registry, ShapeClass};

    // The same practical caps the cost table was calibrated under (the
    // theory-faithful default keeps the full shifted-grid family, whose
    // build cost at loadgen extents is off the model's scale).
    let registry = Registry::with_config(EngineConfig::practical(0.25).with_seed(42));
    // Sizes are loadgen-shaped but trimmed for debug-mode CI: the colored
    // slice stays small because the exact colored-disk solvers are
    // output-sensitive and superlinear on clustered data.
    let weighted_set =
        maxrs::core::input::parse_point_set_csv(&mrs_bench::serve::planar_csv(1_200, 42))
            .expect("loadgen CSV parses");
    let colored_set =
        maxrs::core::input::parse_point_set_csv(&mrs_bench::serve::planar_csv(160, 7))
            .expect("loadgen CSV parses");
    let points = weighted_set.points;
    let sites = colored_set.sites;

    // The loadgen shape mix: rectangle sweeps, ball queries across the fill
    // range, and the colored variants on the smaller colored slice.
    let weighted_shapes = [
        RangeShape::ball(0.4),
        RangeShape::ball(1.0),
        RangeShape::ball(2.5),
        RangeShape::rect(2.0, 1.0),
        RangeShape::rect(3.0, 2.0),
        RangeShape::rect(1.5, 1.5),
        RangeShape::rect(4.0, 1.0),
    ];
    let colored_shapes = [RangeShape::ball(0.3), RangeShape::ball(0.5), RangeShape::rect(3.0, 2.0)];

    // One cold execution of one (solver, shape) query over a fresh dataset;
    // returns the solve stats so the caller can put every candidate on the
    // same work scale.
    let run = |solver: &str, shape: &RangeShape<2>, colored: bool| {
        let (dataset, query) = if colored {
            (VersionedDataset::new(Vec::new(), sites.clone()), BatchQuery::colored(solver, *shape))
        } else {
            (
                VersionedDataset::new(points.clone(), Vec::new()),
                BatchQuery::weighted(solver, *shape),
            )
        };
        let executor = BatchExecutor::with_config(
            &registry,
            ExecutorConfig { threads: Some(1), certify: false, ..ExecutorConfig::default() },
        );
        let mut report =
            executor.execute_versioned_traced(&dataset, &[query], &mut TraceRecorder::disabled());
        assert!(report.all_ok(), "{solver} failed on {shape:?}: {:?}", report.answers);
        report.answers.remove(0)
    };

    let descriptors = registry.descriptors();
    let mut total = 0usize;
    let mut cheap = 0usize;
    for (shapes, colored) in [(&weighted_shapes[..], false), (&colored_shapes[..], true)] {
        let problem = if colored { ProblemKind::Colored } else { ProblemKind::Weighted };
        let n = if colored { sites.len() } else { points.len() };
        for shape in shapes {
            let class =
                if shape.ball_radius().is_some() { ShapeClass::Ball } else { ShapeClass::AxisBox };
            let answer = run("auto", shape, colored);
            let (report_stats, placement_ok) = if colored {
                let r = answer.colored().expect("auto answers the colored query");
                (r.stats.clone(), r.placement.distinct >= 1)
            } else {
                let r = answer.weighted().expect("auto answers the weighted query");
                (r.stats.clone(), r.placement.value > 0.0)
            };
            assert!(placement_ok, "auto produced an empty answer for {shape:?}");
            let choice = report_stats.auto_choice.expect("auto stamps its choice");
            let choice_work = report_stats.auto_actual_work.expect("auto stamps actual work");
            assert!(report_stats.auto_predicted_work.expect("predicted work stamped") >= 1.0);

            // Hard invariant: the choice is a capable registered solver.
            let descriptor = descriptors
                .iter()
                .find(|d| d.name == choice && d.problem == problem)
                .unwrap_or_else(|| panic!("auto chose unregistered `{choice}`"));
            assert!(
                descriptor.supports(problem, class, 2),
                "auto chose `{choice}`, incapable of {class:?} in d=2"
            );

            // Measure every capable candidate cold and find the floor.
            let min_work = descriptors
                .iter()
                .filter(|d| d.name != "auto" && d.supports(problem, class, 2))
                .map(|d| {
                    let answer = run(d.name, shape, colored);
                    let stats = if colored {
                        &answer.colored().expect("candidate answers").stats
                    } else {
                        &answer.weighted().expect("candidate answers").stats
                    };
                    cost::actual_work(stats, n)
                })
                .fold(f64::INFINITY, f64::min);
            assert!(min_work.is_finite(), "no capable candidate for {shape:?}");
            total += 1;
            if choice_work <= 1.1 * min_work + 1e-6 {
                cheap += 1;
            }
        }
    }
    assert!(
        cheap * 5 >= total * 4,
        "auto picked the measured-cheapest solver on only {cheap} of {total} queries (< 80%)"
    );
}

/// Tracing must stay effectively free: phase timing reads two `Instant`s
/// per phase around work that walks thousands of candidates, so a traced
/// batch over the loadgen planar dataset may cost at most 5% more wall
/// time than the identical untraced batch.  This is the one intentionally
/// wall-clock test in this file; it is made robust the standard way —
/// min-of-N over interleaved runs, so shared-CI noise inflates both sides
/// equally and the minimum estimates the true cost of each path.
#[test]
fn tracing_overhead_stays_under_five_percent() {
    use maxrs::engine::{ScriptStep, VersionedDataset};
    use std::time::{Duration, Instant};

    // Loadgen-shaped but trimmed for debug-mode CI: the clustered planar
    // dataset makes the exact disk sweep superlinear, so the point count
    // stays small, and the mix sticks to the index-shared exact solvers
    // (the sampler-backed ones cost minutes per query in debug builds) —
    // the gate measures relative overhead, not throughput.
    let csv = mrs_bench::serve::planar_csv(1_500, 42);
    let set = maxrs::core::input::parse_point_set_csv(&csv).expect("loadgen CSV parses");
    let dataset = VersionedDataset::new(set.points, set.sites);
    let mut steps = Vec::new();
    for radius in [0.5, 1.0] {
        steps.push(ScriptStep::Query(BatchQuery::weighted(
            "exact-disk-2d",
            RangeShape::ball(radius),
        )));
        steps.push(ScriptStep::Query(BatchQuery::weighted(
            "exact-rect-2d",
            RangeShape::rect(radius, radius),
        )));
    }
    let registry = registry();
    let executor = BatchExecutor::with_config(
        &registry,
        ExecutorConfig { threads: Some(1), certify: false, ..ExecutorConfig::default() },
    );

    // Warm up once (index builds amortize identically on both sides since
    // each run gets a fresh dataset view — keep both paths fully symmetric).
    let mut disabled_min = Duration::MAX;
    let mut enabled_min = Duration::MAX;
    for _ in 0..5 {
        let started = Instant::now();
        let report = executor.execute_script(&dataset, &steps, &mut TraceRecorder::disabled());
        assert!(report.all_ok());
        disabled_min = disabled_min.min(started.elapsed());

        let mut recorder = TraceRecorder::new();
        let started = Instant::now();
        let report = executor.execute_script(&dataset, &steps, &mut recorder);
        assert!(report.all_ok());
        enabled_min = enabled_min.min(started.elapsed());
        assert_eq!(recorder.traces().len(), steps.len(), "every query step leaves a trace");
    }

    // 5% relative plus a small absolute floor so micro-jitter on a fast
    // batch cannot fail the gate spuriously.
    let budget = disabled_min.mul_f64(1.05) + Duration::from_millis(2);
    assert!(
        enabled_min <= budget,
        "tracing overhead too high: traced {enabled_min:?} vs untraced {disabled_min:?} \
         (budget {budget:?})"
    );
}

/// The output-sensitive localization must keep doing its job: on a clustered
/// instance the behavior-identical prunes (color-bound skip + subset dedup
/// across the 36 shifted grids) eliminate the overwhelming majority of
/// per-cell union sweeps, and the boundary-crossing count stays far below
/// the unpruned regime.  A regression that disables either prune fails the
/// ratio bound deterministically.
#[test]
fn output_sensitive_prunes_dominate_on_clustered_data() {
    let mut rng = StdRng::seed_from_u64(91);
    let sites: Vec<maxrs::geom::ColoredSite<2>> = (0..400)
        .map(|_| {
            let cluster = rng.gen_range(0..6);
            let (cx, cy) = (cluster as f64 * 7.0, (cluster % 3) as f64 * 5.0);
            maxrs::geom::ColoredSite::new(
                Point2::xy(cx + rng.gen_range(-1.2..1.2), cy + rng.gen_range(-1.2..1.2)),
                rng.gen_range(0..30),
            )
        })
        .collect();
    let (placement, stats) = output_sensitive_colored_disk_with_stats(&sites, 0.3);
    assert!(placement.distinct >= 1);
    let swept = stats.cells - stats.cells_pruned - stats.cells_deduped;
    assert!(
        stats.cells_pruned + stats.cells_deduped > 0,
        "the prunes must fire on clustered data: {stats:?}"
    );
    assert!(
        swept * 4 <= stats.cells,
        "at least 3/4 of the {} cells must be pruned or deduped, swept {swept}",
        stats.cells
    );
}
