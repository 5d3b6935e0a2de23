//! Cross-crate integration tests: the weighted MaxRS pipeline from raw points
//! through the exact baselines, the sampling technique and the dynamic
//! structure.

use maxrs::core::input::ball_coverage_weight;
use maxrs::prelude::*;
use rand::prelude::*;

fn random_points(n: usize, extent: f64, seed: u64) -> Vec<WeightedPoint<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            WeightedPoint::new(
                Point2::xy(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)),
                rng.gen_range(0.5..3.0),
            )
        })
        .collect()
}

#[test]
fn static_sampling_respects_the_guarantee_against_the_exact_baseline() {
    for seed in 0..3u64 {
        let points = random_points(250, 8.0, seed);
        let exact = max_disk_placement(&points, 1.0);
        for eps in [0.15, 0.25, 0.4] {
            let approx =
                approx_static_ball(&points, 1.0, SamplingConfig::practical(eps).with_seed(seed));
            assert!(
                approx.value >= (0.5 - eps) * exact.value - 1e-9,
                "seed {seed} eps {eps}: approx {} vs exact {}",
                approx.value,
                exact.value
            );
            assert!(approx.value <= exact.value + 1e-9);
            // The reported value is the true coverage of the reported center.
            assert!(
                (ball_coverage_weight(&points, &approx.center, 1.0) - approx.value).abs() < 1e-9
            );
        }
    }
}

#[test]
fn rectangle_and_disk_baselines_agree_on_trivially_coverable_inputs() {
    // All points inside a tiny cluster: every query shape covers everything.
    let points: Vec<WeightedPoint<2>> =
        (0..30).map(|i| WeightedPoint::new(Point2::xy(0.01 * i as f64, 0.0), 1.0)).collect();
    let rect = max_rect_placement(&points, 2.0, 2.0);
    let disk = max_disk_placement(&points, 1.0);
    assert_eq!(rect.value, 30.0);
    assert_eq!(disk.value, 30.0);
}

#[test]
fn dynamic_structure_converges_to_the_static_answer_after_churn() {
    let points = random_points(200, 6.0, 11);
    let mut dynamic = DynamicBallMaxRS::<2>::new(1.0, SamplingConfig::practical(0.25).with_seed(4));

    // Insert everything, then repeatedly delete a random point and re-insert
    // that same point, so the live multiset never changes but the structure
    // churns through plenty of updates (and epochs).
    let mut live: Vec<(usize, usize)> =
        points.iter().enumerate().map(|(i, p)| (dynamic.insert(p.point, p.weight), i)).collect();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..300 {
        let victim = rng.gen_range(0..live.len());
        let (id, point_index) = live.swap_remove(victim);
        assert!(dynamic.remove(id));
        let p = &points[point_index];
        live.push((dynamic.insert(p.point, p.weight), point_index));
    }
    assert_eq!(dynamic.len(), points.len());

    let dyn_best = dynamic.best().unwrap();
    let exact = max_disk_placement(&points, 1.0);
    assert!(
        dyn_best.value >= 0.25 * exact.value,
        "dynamic {} vs exact {}",
        dyn_best.value,
        exact.value
    );
    assert!(dyn_best.value <= exact.value + 1e-9);
}

#[test]
fn one_dimensional_and_two_dimensional_solvers_are_consistent() {
    // Points on a horizontal line: a w×h rectangle and a 1-D interval of
    // length w cover exactly the same sets.
    let xs = [0.0, 0.3, 0.9, 1.0, 2.5, 2.6, 5.0];
    let points_2d: Vec<WeightedPoint<2>> =
        xs.iter().map(|&x| WeightedPoint::unit(Point2::xy(x, 0.0))).collect();
    let points_1d: Vec<LinePoint> = xs.iter().map(|&x| LinePoint::new(x, 1.0)).collect();
    for len in [0.5, 1.0, 2.0, 4.0] {
        let rect = max_rect_placement(&points_2d, len, 1.0);
        let interval = max_interval_placement(&points_1d, len);
        assert_eq!(rect.value, interval.value, "length {len}");
    }
}

#[test]
fn instance_validation_panics_are_informative() {
    let result = std::panic::catch_unwind(|| {
        WeightedInstance::ball(vec![WeightedPoint::new(Point2::xy(0.0, 0.0), f64::NAN)], 1.0)
    });
    assert!(result.is_err(), "NaN weights must be rejected");
}
