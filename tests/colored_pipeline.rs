//! Cross-crate integration tests for the colored MaxRS pipeline: the three
//! algorithms of the paper (Theorem 1.5 sampling, Theorem 4.6 output-sensitive
//! exact, Theorem 1.6 color sampling) must be mutually consistent on shared
//! workloads.

use maxrs::core::exact::colored_disk2d::exact_colored_disk;
use maxrs::core::technique2::approx_colored_disk_sampling_with_details;
use maxrs::prelude::*;
use rand::prelude::*;

fn clustered_sites(
    clusters: usize,
    per_cluster: usize,
    colors: usize,
    seed: u64,
) -> Vec<ColoredSite<2>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sites = Vec::new();
    for c in 0..clusters {
        let cx = (c as f64) * 7.0;
        let cy = rng.gen_range(0.0..3.0);
        for _ in 0..per_cluster {
            sites.push(ColoredSite::new(
                Point2::xy(cx + rng.gen_range(-0.8..0.8), cy + rng.gen_range(-0.8..0.8)),
                rng.gen_range(0..colors),
            ));
        }
    }
    sites
}

#[test]
fn output_sensitive_matches_the_candidate_oracle() {
    for seed in 0..4u64 {
        let sites = clustered_sites(3, 40, 10, seed);
        let fast = output_sensitive_colored_disk(&sites, 1.0);
        let oracle = exact_colored_disk(&sites, 1.0);
        assert_eq!(fast.distinct, oracle.distinct, "seed {seed}");
    }
}

#[test]
fn union_exact_and_output_sensitive_agree_for_non_unit_radius() {
    for seed in 10..13u64 {
        let sites = clustered_sites(2, 35, 8, seed);
        for radius in [0.6, 1.3, 2.2] {
            let a = exact_colored_disk_by_union(&sites, radius);
            let b = output_sensitive_colored_disk(&sites, radius);
            assert_eq!(a.distinct, b.distinct, "seed {seed} radius {radius}");
        }
    }
}

#[test]
fn sampling_technique_stays_within_its_guarantee() {
    for seed in 0..3u64 {
        let sites = clustered_sites(3, 60, 15, seed);
        let exact = output_sensitive_colored_disk(&sites, 1.0);
        let approx =
            approx_colored_ball(&sites, 1.0, SamplingConfig::practical(0.25).with_seed(seed));
        assert!(
            approx.distinct as f64 >= 0.25 * exact.distinct as f64,
            "seed {seed}: {} vs {}",
            approx.distinct,
            exact.distinct
        );
        assert!(approx.distinct <= exact.distinct);
    }
}

#[test]
fn color_sampling_is_near_exact_on_large_opt_instances() {
    // One dense cluster where almost every color is present: opt is large, and
    // the (1 − ε) algorithm should get within ε of it.
    let mut rng = StdRng::seed_from_u64(77);
    let colors = 100usize;
    let mut sites = Vec::new();
    for color in 0..colors {
        for _ in 0..3 {
            sites.push(ColoredSite::new(
                Point2::xy(rng.gen_range(0.0..1.2), rng.gen_range(0.0..1.2)),
                color,
            ));
        }
    }
    // Distractor cluster with only a few colors.
    for _ in 0..60 {
        sites.push(ColoredSite::new(
            Point2::xy(rng.gen_range(20.0..22.0), rng.gen_range(0.0..2.0)),
            rng.gen_range(0..5),
        ));
    }
    let exact = output_sensitive_colored_disk(&sites, 1.0);
    assert_eq!(exact.distinct, colors);

    let mut config = ColorSamplingConfig::new(0.2).with_seed(9);
    config.c1 = 0.5;
    let details = approx_colored_disk_sampling_with_details(&sites, 1.0, config);
    assert!(
        details.placement.distinct as f64 >= 0.8 * exact.distinct as f64,
        "(1 − ε) guarantee violated: {} vs {}",
        details.placement.distinct,
        exact.distinct
    );
    assert!(details.opt_estimate >= exact.distinct / 4);
}

#[test]
fn colored_results_never_exceed_the_number_of_colors_present() {
    for seed in 20..24u64 {
        let sites = clustered_sites(2, 30, 6, seed);
        let bound = ColoredInstance::ball(sites.clone(), 1.0).distinct_colors();
        assert!(output_sensitive_colored_disk(&sites, 1.0).distinct <= bound);
        assert!(approx_colored_ball(&sites, 1.0, SamplingConfig::practical(0.3)).distinct <= bound);
        assert!(
            approx_colored_disk_sampling(&sites, 1.0, ColorSamplingConfig::new(0.3)).distinct
                <= bound
        );
    }
}
