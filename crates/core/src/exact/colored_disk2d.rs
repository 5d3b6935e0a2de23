//! The "straightforward" exact algorithm for colored disk MaxRS in the plane.
//!
//! Section 1.5 of the paper notes there is an easy `O(n² log n)`-style exact
//! algorithm for colored MaxRS with a disk; this module provides it: the
//! maximum colored depth of a closed-disk arrangement is attained at a
//! boundary–boundary intersection vertex or at a disk's center, so it suffices
//! to enumerate those `O(n²)` candidates and evaluate the distinct-color count
//! at each with a neighbourhood query.  It is the comparator that Theorem 4.6
//! (output-sensitive) and Theorem 1.6 (color sampling) are benchmarked
//! against, and the test oracle for both.

use std::collections::HashSet;

use mrs_geom::{Ball, ColoredSite, HashGrid, Point2};

use crate::engine::cancel;
use crate::input::ColoredPlacement;

/// Number of distinct colors among sites within distance `radius` of `q`,
/// answered with the prebuilt center index.
pub fn colored_depth_with_index(
    sites: &[ColoredSite<2>],
    index: &HashGrid<2>,
    radius: f64,
    q: &Point2,
) -> usize {
    let mut colors = HashSet::new();
    index.for_each_within(q, radius, |j| {
        colors.insert(sites[j].color);
    });
    colors.len()
}

/// Number of distinct colors among sites within distance `radius` of `q`
/// (brute force over all sites).
pub fn colored_depth_at(sites: &[ColoredSite<2>], radius: f64, q: &Point2) -> usize {
    let query = Ball::new(*q, radius);
    let mut colors = HashSet::new();
    for s in sites {
        if query.contains(&s.point) {
            colors.insert(s.color);
        }
    }
    colors.len()
}

/// Exact colored disk MaxRS by candidate enumeration.
///
/// Candidates are every site location plus every intersection point between
/// the boundaries of two dual disks; for a closed-disk arrangement the
/// maximum colored depth is attained at one of them.  Worst-case
/// `O(n² · local)` where `local` is the number of disks overlapping a
/// candidate.
///
/// # Panics
/// Panics if `radius` is not strictly positive.
pub fn exact_colored_disk(sites: &[ColoredSite<2>], radius: f64) -> ColoredPlacement<2> {
    assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
    if sites.is_empty() {
        return ColoredPlacement::empty();
    }
    let centers: Vec<Point2> = sites.iter().map(|s| s.point).collect();
    let index = HashGrid::build(radius.max(1e-9), &centers);

    let mut best = ColoredPlacement { center: sites[0].point, distinct: 0 };
    // Each candidate polls the deadline; `false` means stop, and a stopped
    // sweep returns its best so far.
    let mut evaluated = 0usize;
    let mut consider = |q: Point2, best: &mut ColoredPlacement<2>| {
        evaluated += 1;
        if cancel::poll(evaluated - 1) {
            return false;
        }
        let depth = colored_depth_with_index(sites, &index, radius * (1.0 + 1e-12), &q);
        if depth > best.distinct {
            *best = ColoredPlacement { center: q, distinct: depth };
        }
        true
    };

    for s in sites {
        if !consider(s.point, &mut best) {
            return best;
        }
    }
    let two_r = 2.0 * radius;
    let mut live = true;
    for (i, si) in sites.iter().enumerate() {
        let a = Ball::new(si.point, radius);
        index.for_each_within(&si.point, two_r, |j| {
            if j <= i || !live {
                return;
            }
            let b = Ball::new(sites[j].point, radius);
            if let Some((p, q)) = a.boundary_intersections(&b) {
                live = consider(p, &mut best) && consider(q, &mut best);
            }
        });
        if !live {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn site(x: f64, y: f64, color: usize) -> ColoredSite<2> {
        ColoredSite::new(Point2::xy(x, y), color)
    }

    #[test]
    fn figure_1b_style_instance() {
        // Three colors can be covered by one unit disk; a fourth color sits far
        // away; duplicates of an already-covered color must not inflate the
        // count.
        let sites = vec![
            site(0.0, 0.0, 0),
            site(0.3, 0.2, 0),
            site(0.5, 0.0, 1),
            site(0.1, 0.6, 2),
            site(10.0, 10.0, 3),
        ];
        let res = exact_colored_disk(&sites, 1.0);
        assert_eq!(res.distinct, 3);
        assert_eq!(colored_depth_at(&sites, 1.0, &res.center), 3);
    }

    #[test]
    fn all_same_color_yields_one() {
        let sites = vec![site(0.0, 0.0, 7), site(0.1, 0.0, 7), site(0.2, 0.0, 7)];
        let res = exact_colored_disk(&sites, 1.0);
        assert_eq!(res.distinct, 1);
    }

    #[test]
    fn far_apart_colors_cannot_be_combined() {
        let sites = vec![site(0.0, 0.0, 0), site(100.0, 0.0, 1), site(200.0, 0.0, 2)];
        let res = exact_colored_disk(&sites, 1.0);
        assert_eq!(res.distinct, 1);
    }

    #[test]
    fn needs_an_intersection_vertex() {
        // Two colors whose dual disks overlap only in a lens away from both
        // centers: the optimum is at a boundary intersection, not at a site.
        let sites = vec![site(0.0, 0.0, 0), site(1.9, 0.0, 1)];
        let res = exact_colored_disk(&sites, 1.0);
        assert_eq!(res.distinct, 2);
        // Neither site alone sees both colors.
        assert_eq!(colored_depth_at(&sites, 1.0, &sites[0].point), 1);
        assert_eq!(colored_depth_at(&sites, 1.0, &sites[1].point), 1);
    }

    #[test]
    fn empty_input() {
        assert_eq!(exact_colored_disk(&[], 1.0).distinct, 0);
    }

    #[test]
    fn index_and_brute_depth_agree() {
        let mut rng = StdRng::seed_from_u64(13);
        let sites: Vec<ColoredSite<2>> = (0..200)
            .map(|_| {
                site(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0), rng.gen_range(0..10usize))
            })
            .collect();
        let centers: Vec<Point2> = sites.iter().map(|s| s.point).collect();
        let index = HashGrid::build(1.0, &centers);
        for _ in 0..40 {
            let q = Point2::xy(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0));
            assert_eq!(
                colored_depth_with_index(&sites, &index, 1.0, &q),
                colored_depth_at(&sites, 1.0, &q)
            );
        }
    }

    #[test]
    fn reported_center_achieves_reported_count() {
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..20 {
            let n = rng.gen_range(1..40);
            let m = rng.gen_range(1..8usize);
            let sites: Vec<ColoredSite<2>> = (0..n)
                .map(|_| {
                    site(rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0), rng.gen_range(0..m))
                })
                .collect();
            let radius = rng.gen_range(0.4..1.5);
            let res = exact_colored_disk(&sites, radius);
            assert_eq!(colored_depth_at(&sites, radius * (1.0 + 1e-9), &res.center), res.distinct);
            assert!(res.distinct >= 1);
            assert!(res.distinct <= m);
        }
    }
}
