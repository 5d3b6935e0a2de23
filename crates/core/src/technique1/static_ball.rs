//! Static MaxRS with a `d`-ball via point sampling (Theorem 1.2).
//!
//! A randomized `(1/2 − ε)`-approximation running in `O(ε^{-2d-2} n log n)`
//! time: sample every non-empty cell of the dual unit balls, sum each
//! sample's depth, and report the deepest sample.  Unlike the `(1 − ε)`
//! schemes based on sampling *input objects*, the running time has no
//! `log^{Θ(d)} n` factor.
//!
//! The theorem reports one thing, the deepest sample, so the build keeps
//! nothing else: [`weighted_sample_set`] goes cell by cell and returns a
//! [`SampledBest`] of about a hundred bytes.  Its answer is bit for bit
//! the one inserting every ball into a
//! [`SampleSet`](crate::technique1::SampleSet) gives (see
//! [`crate::technique1::sample_set`] for the two build orders and their
//! transient memory).

use mrs_geom::WeightedPoint;

use crate::config::SamplingConfig;
use crate::input::{ball_coverage_weight, Placement};
use crate::technique1::sample_set::{static_best, Mark, SampledBest};

/// What the Technique 1 sample set of weighted ball MaxRS at query radius
/// `radius` reports: every point's dual unit ball (Section 1.4: its center
/// scaled by `1/radius`) inserted in input order with the point's weight,
/// reduced to its deepest sample and its size.  The one builder behind
/// [`approx_static_ball`] and the engine's shared index, which caches one
/// answer per radius.
pub fn weighted_sample_set<const D: usize>(
    points: &[WeightedPoint<D>],
    radius: f64,
    config: SamplingConfig,
) -> SampledBest<D> {
    let inv = 1.0 / radius;
    let balls: Vec<_> =
        points.iter().map(|wp| (wp.point.scale(inv), Mark::Weight(wp.weight))).collect();
    static_best(config, &balls)
}

/// The certified placement `set`, the [`weighted_sample_set`] of `points` at
/// `radius`, reports: its deepest sample scaled back to input coordinates,
/// valued at the exact weight of `points` it covers.  The one read behind
/// [`approx_static_ball`] and the engine's `approx-static-ball` and
/// `dynamic-ball` solvers.
pub fn weighted_placement<const D: usize>(
    set: &SampledBest<D>,
    points: &[WeightedPoint<D>],
    radius: f64,
) -> Placement<D> {
    let Some((scaled_center, _sampled_depth)) = set.best else {
        return Placement::empty();
    };
    let center = scaled_center.scale(radius);
    // The sampled depth equals the recount only up to floating-point
    // boundary ties: samples sit exactly on dual ball boundaries, and on
    // clustered inputs several input points can land within the
    // scaled-vs-original rounding window of the returned ball's boundary.
    Placement { center, value: ball_coverage_weight(points, &center, radius) }
}

/// Computes a `(1/2 − ε)`-approximate placement of a ball of radius `radius`
/// over `points` (Theorem 1.2).
///
/// The returned value is the *exact* covered weight of the returned center, so
/// it is always a valid lower bound on `opt`; the theorem guarantees it is at
/// least `(1/2 − ε)·opt` with high probability.
///
/// # Panics
/// Panics if `radius` is not strictly positive or any weight is negative.
pub fn approx_static_ball<const D: usize>(
    points: &[WeightedPoint<D>],
    radius: f64,
    config: SamplingConfig,
) -> Placement<D> {
    assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
    for wp in points {
        assert!(wp.weight >= 0.0, "ball MaxRS requires non-negative weights");
    }
    weighted_placement(&weighted_sample_set(points, radius, config), points, radius)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::disk2d::max_disk_placement;
    use mrs_geom::{Point, Point2, WeightedPoint};
    use rand::prelude::*;

    fn cfg(eps: f64, seed: u64) -> SamplingConfig {
        SamplingConfig::practical(eps).with_seed(seed)
    }

    #[test]
    fn empty_instance() {
        let res = approx_static_ball::<2>(&[], 1.0, cfg(0.25, 1));
        assert_eq!(res.value, 0.0);
    }

    #[test]
    #[should_panic(expected = "ball MaxRS requires non-negative weights")]
    fn negative_weights_rejected() {
        approx_static_ball(&[WeightedPoint::new(Point2::xy(0.0, 0.0), -1.0)], 1.0, cfg(0.25, 1));
    }

    #[test]
    #[should_panic(expected = "query radius must be positive")]
    fn zero_radius_rejected() {
        approx_static_ball::<2>(&[], 0.0, cfg(0.25, 1));
    }

    #[test]
    fn single_cluster_is_found() {
        let pts: Vec<WeightedPoint<2>> = (0..20)
            .map(|i| WeightedPoint::unit(Point2::xy((i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1)))
            .collect();
        let res = approx_static_ball(&pts, 1.0, cfg(0.25, 2));
        // All 20 points fit in one unit disk; the sampling scheme should find
        // essentially all of them (and certainly at least half).
        assert!(res.value >= 10.0, "found {}", res.value);
        assert_eq!(ball_coverage_weight(&pts, &res.center, 1.0), res.value);
    }

    #[test]
    fn reported_value_matches_true_coverage_and_ratio_holds_2d() {
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..5 {
            let n = 120;
            let pts: Vec<WeightedPoint<2>> = (0..n)
                .map(|_| {
                    WeightedPoint::new(
                        Point2::xy(rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0)),
                        rng.gen_range(0.5..2.0),
                    )
                })
                .collect();
            let eps = 0.25;
            let res = approx_static_ball(&pts, 1.0, cfg(eps, round));
            let exact = max_disk_placement(&pts, 1.0);
            // Value must be a genuine coverage of the reported center...
            assert!((ball_coverage_weight(&pts, &res.center, 1.0) - res.value).abs() < 1e-9);
            // ...and within the (1/2 − ε) guarantee of the true optimum.
            assert!(
                res.value >= (0.5 - eps) * exact.value - 1e-9,
                "round {round}: approx {} vs opt {}",
                res.value,
                exact.value
            );
            assert!(res.value <= exact.value + 1e-9);
        }
    }

    #[test]
    fn respects_non_unit_radius() {
        // Two clusters: a tight pair reachable with radius 0.5 and a wide pair
        // needing radius 3; with radius 0.5 only the tight pair is coverable.
        let pts = vec![
            WeightedPoint::unit(Point2::xy(0.0, 0.0)),
            WeightedPoint::unit(Point2::xy(0.4, 0.0)),
            WeightedPoint::unit(Point2::xy(10.0, 0.0)),
            WeightedPoint::unit(Point2::xy(14.0, 0.0)),
        ];
        let res = approx_static_ball(&pts, 0.5, cfg(0.25, 3));
        assert_eq!(res.value, 2.0);
        assert!(res.center.dist(&Point2::xy(0.2, 0.0)) < 1.0);
    }

    #[test]
    fn works_in_four_dimensions() {
        // A clustered workload in R^4: twenty points in a tiny cluster, a few
        // scattered far away.
        let mut rng = StdRng::seed_from_u64(5);
        let mut pts: Vec<WeightedPoint<4>> = Vec::new();
        for _ in 0..20 {
            let p = Point::new([
                rng.gen_range(0.0..0.3),
                rng.gen_range(0.0..0.3),
                rng.gen_range(0.0..0.3),
                rng.gen_range(0.0..0.3),
            ]);
            pts.push(WeightedPoint::unit(p));
        }
        for i in 0..4 {
            let far = 10.0 + 5.0 * i as f64;
            pts.push(WeightedPoint::unit(Point::new([far, far, far, far])));
        }
        let mut config = SamplingConfig::new(0.4).with_seed(9);
        config.max_grids = Some(4);
        config.max_samples_per_cell = 16;
        let res = approx_static_ball(&pts, 1.0, config);
        // The cluster of 20 is the optimum; the guarantee demands ≥ (1/2 − ε)·20 = 2.
        assert!(res.value >= 10.0, "found {}", res.value);
        assert_eq!(ball_coverage_weight(&pts, &res.center, 1.0), res.value);
    }

    #[test]
    fn sample_set_counts_are_populated() {
        let pts = vec![WeightedPoint::unit(Point2::xy(0.0, 0.0))];
        let set = weighted_sample_set(&pts, 1.0, cfg(0.25, 4));
        assert!(set.grids >= 1);
        assert!(set.cells >= 1);
        assert_eq!(set.samples, set.cells * cfg(0.25, 4).samples_per_cell(1));
    }
}
