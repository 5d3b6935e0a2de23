//! Colored MaxRS with a `d`-ball via point sampling (Theorem 1.5).
//!
//! A randomized `(1/2 − ε)`-approximation running in `O(ε^{-2d-2} n log n)`
//! time.  The sampling structure is the same as in the weighted case; only the
//! depth computation differs: the dual balls are processed grouped by color
//! and every sample point carries a "last color seen" flag, so each color
//! contributes at most one unit to a sample's colored depth (Section 3.2).

use mrs_geom::{Ball, ColoredSite};

use crate::config::SamplingConfig;
use crate::input::{ball_distinct_colors, ColoredPlacement};
use crate::technique1::sample_set::SampleSet;

/// The Technique 1 sample set of colored ball MaxRS at query radius
/// `radius`: every site's dual unit ball (its center scaled by `1/radius`),
/// inserted grouped by color.  The one builder behind
/// [`approx_colored_ball`] and the engine's shared index, which caches one
/// set per radius.
pub fn colored_sample_set<const D: usize>(
    sites: &[ColoredSite<D>],
    radius: f64,
    config: SamplingConfig,
) -> SampleSet<D> {
    let inv = 1.0 / radius;
    let mut dual: Vec<(Ball<D>, usize)> =
        sites.iter().map(|s| (Ball::unit(s.point.scale(inv)), s.color)).collect();
    // Group by color (any order within a group works; sorting is the paper's
    // "order the set B by color index" step).
    dual.sort_by_key(|(_, color)| *color);
    let mut set = SampleSet::new(config, sites.len());
    // The per-sample flag only tells one color group from the next, so each
    // group goes in under its ordinal: an id of `usize::MAX` would otherwise
    // collide with the flag's "no color yet" sentinel.
    let mut group = 0;
    for (k, (ball, color)) in dual.iter().enumerate() {
        group += usize::from(k > 0 && *color != dual[k - 1].1);
        set.insert_colored_ball(ball, group);
    }
    set
}

/// The certified placement `set`, the [`colored_sample_set`] of `sites` at
/// `radius`, reports: its deepest sample scaled back to input coordinates,
/// valued at the exact number of distinct colors of `sites` it covers.  The
/// one read behind [`approx_colored_ball`] and the engine's
/// `approx-colored-ball` solver.
pub fn colored_placement<const D: usize>(
    set: &SampleSet<D>,
    sites: &[ColoredSite<D>],
    radius: f64,
) -> ColoredPlacement<D> {
    let Some((scaled_center, _sampled_depth)) = set.best() else {
        return ColoredPlacement::empty();
    };
    let center = scaled_center.scale(radius);
    // The sampled colored depth equals the recount only up to floating-point
    // boundary ties, as in the weighted case.
    ColoredPlacement { center, distinct: ball_distinct_colors(sites, &center, radius) }
}

/// Computes a `(1/2 − ε)`-approximate placement of a ball of radius `radius`
/// for colored MaxRS over `sites` (Theorem 1.5).
///
/// The returned `distinct` count is the exact colored depth of the returned
/// center, so it is always a valid lower bound on `opt`; the theorem
/// guarantees it is at least `(1/2 − ε)·opt` with high probability.
///
/// # Panics
/// Panics if `radius` is not strictly positive.
pub fn approx_colored_ball<const D: usize>(
    sites: &[ColoredSite<D>],
    radius: f64,
    config: SamplingConfig,
) -> ColoredPlacement<D> {
    assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
    if sites.is_empty() {
        return ColoredPlacement::empty();
    }
    colored_placement(&colored_sample_set(sites, radius, config), sites, radius)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::colored_disk2d::exact_colored_disk;
    use mrs_geom::{ColoredSite, Point, Point2};
    use rand::prelude::*;

    fn cfg(seed: u64) -> SamplingConfig {
        SamplingConfig::practical(0.25).with_seed(seed)
    }

    fn site(x: f64, y: f64, color: usize) -> ColoredSite<2> {
        ColoredSite::new(Point2::xy(x, y), color)
    }

    #[test]
    fn empty_instance() {
        assert_eq!(approx_colored_ball::<2>(&[], 1.0, cfg(1)).distinct, 0);
    }

    #[test]
    #[should_panic(expected = "query radius must be positive")]
    fn non_positive_radius_rejected() {
        approx_colored_ball::<2>(&[], -1.0, cfg(1));
    }

    #[test]
    fn duplicates_of_a_color_do_not_inflate_the_count() {
        let sites = vec![
            site(0.0, 0.0, 0),
            site(0.05, 0.0, 0),
            site(0.10, 0.0, 0),
            site(0.0, 0.05, 1),
            site(0.0, 0.10, 2),
        ];
        let res = approx_colored_ball(&sites, 1.0, cfg(2));
        assert_eq!(res.distinct, 3);
        assert_eq!(ball_distinct_colors(&sites, &res.center, 1.0), 3);
    }

    #[test]
    fn far_apart_color_groups_cannot_be_merged() {
        let sites = vec![site(0.0, 0.0, 0), site(100.0, 0.0, 1), site(200.0, 0.0, 2)];
        let res = approx_colored_ball(&sites, 1.0, cfg(3));
        assert_eq!(res.distinct, 1);
    }

    #[test]
    fn ratio_holds_against_exact_in_2d() {
        let mut rng = StdRng::seed_from_u64(31);
        for round in 0..5 {
            let n = 150;
            let m = 12;
            let sites: Vec<ColoredSite<2>> = (0..n)
                .map(|_| {
                    site(rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0), rng.gen_range(0..m))
                })
                .collect();
            let eps = 0.25;
            let approx = approx_colored_ball(&sites, 1.0, cfg(round));
            let exact = exact_colored_disk(&sites, 1.0);
            assert!(
                approx.distinct as f64 >= (0.5 - eps) * exact.distinct as f64 - 1e-9,
                "round {round}: approx {} vs exact {}",
                approx.distinct,
                exact.distinct
            );
            assert!(approx.distinct <= exact.distinct);
            assert_eq!(ball_distinct_colors(&sites, &approx.center, 1.0), approx.distinct);
        }
    }

    #[test]
    fn trajectory_style_instance_in_3d() {
        // Three "animals" (colors) whose trajectory samples pass near the
        // origin, plus one far away: the best tracking-ball position covers 3.
        let mut sites: Vec<ColoredSite<3>> = Vec::new();
        for step in 0..10 {
            let t = step as f64 * 0.05;
            sites.push(ColoredSite::new(Point::new([t, 0.0, 0.0]), 0));
            sites.push(ColoredSite::new(Point::new([0.0, t, 0.0]), 1));
            sites.push(ColoredSite::new(Point::new([0.0, 0.0, t]), 2));
            sites.push(ColoredSite::new(Point::new([50.0 + t, 50.0, 50.0]), 3));
        }
        let mut config = SamplingConfig::practical(0.3).with_seed(4);
        config.max_grids = Some(4);
        config.max_samples_per_cell = 32;
        let res = approx_colored_ball(&sites, 1.0, config);
        assert!(res.distinct >= 2, "guarantee is ≥ (1/2 − ε)·3; found {}", res.distinct);
        assert_eq!(ball_distinct_colors(&sites, &res.center, 1.0), res.distinct);
    }

    #[test]
    fn single_color_everywhere_gives_one() {
        let sites: Vec<ColoredSite<2>> = (0..30).map(|i| site(i as f64 * 0.1, 0.0, 5)).collect();
        assert_eq!(approx_colored_ball(&sites, 1.0, cfg(8)).distinct, 1);
    }
}
