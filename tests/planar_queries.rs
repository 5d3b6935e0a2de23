//! Integration tests for the planar query family: exact rectangle / disk /
//! colored-rectangle solvers, their batched drivers, and the CLI front-end,
//! exercised together on shared workloads.

use maxrs::batched::{batched_disk_maxrs, batched_rect_maxrs};
use maxrs::cli::{parse_args, run_on_text, Command, QueryKind};
use maxrs::core::exact::colored_rect2d::exact_colored_rect;
use maxrs::prelude::*;
use rand::prelude::*;

fn random_weighted(n: usize, extent: f64, seed: u64) -> Vec<WeightedPoint<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            WeightedPoint::new(
                Point2::xy(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)),
                rng.gen_range(0.5..2.0),
            )
        })
        .collect()
}

#[test]
fn square_rectangle_dominates_inscribed_disk_and_is_dominated_by_circumscribed_disk() {
    // A disk of radius r fits inside a 2r x 2r square and contains a square of
    // side r√2, so the optimal covered weights must be ordered accordingly.
    let points = random_weighted(300, 10.0, 1);
    for radius in [0.5, 1.0, 1.5] {
        let disk = max_disk_placement(&points, radius);
        let outer_square = max_rect_placement(&points, 2.0 * radius, 2.0 * radius);
        let side = radius * std::f64::consts::SQRT_2;
        let inner_square = max_rect_placement(&points, side, side);
        assert!(
            outer_square.value + 1e-9 >= disk.value,
            "radius {radius}: square {} < disk {}",
            outer_square.value,
            disk.value
        );
        assert!(
            disk.value + 1e-9 >= inner_square.value,
            "radius {radius}: disk {} < inscribed square {}",
            disk.value,
            inner_square.value
        );
    }
}

#[test]
fn batched_planar_drivers_agree_with_single_queries() {
    let points = random_weighted(120, 8.0, 2);
    let sizes = vec![(0.5, 0.5), (1.0, 2.0), (3.0, 3.0)];
    let rects = batched_rect_maxrs(&points, &sizes);
    for (&(w, h), batched) in sizes.iter().zip(&rects) {
        assert_eq!(batched.value, max_rect_placement(&points, w, h).value);
    }
    let radii = vec![0.5, 1.0, 2.0];
    let disks = batched_disk_maxrs(&points, &radii);
    for (&r, batched) in radii.iter().zip(&disks) {
        assert_eq!(batched.value, max_disk_placement(&points, r).value);
    }
}

#[test]
fn colored_rectangle_and_colored_disk_are_consistent_on_shared_workloads() {
    // The colored rectangle of side 2r always covers at least as many colors
    // as the best disk of radius r (the disk fits inside the square).
    let mut rng = StdRng::seed_from_u64(3);
    let sites: Vec<ColoredSite<2>> = (0..200)
        .map(|_| {
            ColoredSite::new(
                Point2::xy(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)),
                rng.gen_range(0..15usize),
            )
        })
        .collect();
    for radius in [0.6, 1.0] {
        let disk = output_sensitive_colored_disk(&sites, radius);
        let square = exact_colored_rect(&sites, 2.0 * radius, 2.0 * radius);
        assert!(
            square.distinct >= disk.distinct,
            "radius {radius}: square {} < disk {}",
            square.distinct,
            disk.distinct
        );
    }
}

#[test]
fn cli_round_trip_matches_the_library() {
    let points = random_weighted(60, 5.0, 4);
    let csv: String =
        points.iter().map(|p| format!("{},{},{}\n", p.point.x(), p.point.y(), p.weight)).collect();
    let expected = max_disk_placement(&points, 1.0);

    let args: Vec<String> =
        ["disk", "--radius", "1.0", "points.csv"].iter().map(|s| s.to_string()).collect();
    let command = parse_args(&args).unwrap();
    assert_eq!(
        command,
        Command::Query {
            kind: QueryKind::subcommand("disk").unwrap(),
            shape: RangeShape::Ball { radius: 1.0 },
            eps: 0.25,
            path: "points.csv".into(),
        }
    );
    let report = run_on_text(&command, &csv).unwrap();
    let expected_fragment = format!("covered weight = {:.6}", expected.value);
    assert!(
        report.contains(&expected_fragment),
        "CLI report `{report}` does not contain `{expected_fragment}`"
    );
}

#[test]
fn approximations_never_beat_their_exact_counterparts() {
    let points = random_weighted(400, 9.0, 5);
    let exact = max_disk_placement(&points, 1.0);
    for eps in [0.15, 0.3, 0.45] {
        let approx = approx_static_ball(&points, 1.0, SamplingConfig::practical(eps).with_seed(9));
        assert!(approx.value <= exact.value + 1e-9);
        assert!(approx.value >= (0.5 - eps) * exact.value - 1e-9);
    }
}
