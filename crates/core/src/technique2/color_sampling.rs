//! The `(1 − ε)`-approximation for colored disk MaxRS via random sampling on
//! colors (Theorem 1.6 / Section 4.4).
//!
//! The algorithm first estimates `opt` with the Technique 1 colored
//! `(1/2 − ε)`-approximation at `ε = 1/4`, giving `opt' ∈ [opt/4, opt]` with
//! high probability.  If `opt'` is below the `c₁ ε^{-2} log n` threshold the
//! output-sensitive exact algorithm is cheap enough to run directly; otherwise
//! each *color* is kept independently with probability
//! `λ = c₁ log n / (ε² opt')`, the exact algorithm runs on the kept disks
//! only, and the returned point's true colored depth (with respect to the full
//! input) is reported.  Lemma 4.8's concentration argument shows the returned
//! point is `(1 − ε)`-optimal with high probability, and Lemma 4.7 bounds the
//! expected running time by `O(ε^{-2} n log n)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mrs_geom::ColoredSite;

use crate::config::{ColorSamplingConfig, SamplingConfig};
use crate::input::{ball_distinct_colors, dense_colors, ColoredPlacement};
use crate::technique1::colored_ball::approx_colored_ball;
use crate::technique2::output_sensitive::output_sensitive_colored_disk;

/// Which branch the algorithm took, reported for the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColorSamplingBranch {
    /// `opt'` was below the threshold; the exact algorithm ran on the full
    /// input.
    ExactOnFullInput,
    /// Colors were subsampled; the exact algorithm ran on the sample.
    SampledColors {
        /// Number of colors kept by the subsample.
        kept_colors: usize,
        /// Number of disks kept by the subsample.
        kept_disks: usize,
    },
}

/// Result of the color-sampling algorithm together with diagnostics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColorSamplingResult {
    /// The `(1 − ε)`-approximate placement.
    pub placement: ColoredPlacement<2>,
    /// The Technique 1 estimate `opt'` used to set the sampling rate.
    pub opt_estimate: usize,
    /// The branch taken.
    pub branch: ColorSamplingBranch,
}

/// Computes a `(1 − ε)`-approximate placement of a disk of radius `radius`
/// for colored MaxRS over `sites` in the plane (Theorem 1.6).
///
/// # Example
/// ```
/// use mrs_core::config::ColorSamplingConfig;
/// use mrs_core::technique2::approx_colored_disk_sampling;
/// use mrs_geom::{ColoredSite, Point2};
///
/// let sites = vec![
///     ColoredSite::new(Point2::xy(0.0, 0.0), 0),
///     ColoredSite::new(Point2::xy(0.2, 0.1), 1),
///     ColoredSite::new(Point2::xy(7.0, 7.0), 2),
/// ];
/// let placement = approx_colored_disk_sampling(&sites, 1.0, ColorSamplingConfig::new(0.25));
/// assert_eq!(placement.distinct, 2);
/// ```
///
/// # Panics
/// Panics if `radius` is not strictly positive.
pub fn approx_colored_disk_sampling(
    sites: &[ColoredSite<2>],
    radius: f64,
    config: ColorSamplingConfig,
) -> ColoredPlacement<2> {
    approx_colored_disk_sampling_with_details(sites, radius, config).placement
}

/// Like [`approx_colored_disk_sampling`] but also reports the estimator value
/// and which branch ran.
///
/// # Panics
/// Panics if `radius` is not strictly positive.
pub fn approx_colored_disk_sampling_with_details(
    sites: &[ColoredSite<2>],
    radius: f64,
    config: ColorSamplingConfig,
) -> ColorSamplingResult {
    assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
    let n = sites.len();
    if n == 0 {
        return ColorSamplingResult {
            placement: ColoredPlacement::empty(),
            opt_estimate: 0,
            branch: ColorSamplingBranch::ExactOnFullInput,
        };
    }

    // Phase 0: estimate opt with Technique 1 at ε = 1/4 (Theorem 1.5).
    let estimator_cfg = SamplingConfig { eps: 0.25, ..config.estimator };
    let estimate = approx_colored_ball(sites, radius, estimator_cfg);
    let opt_estimate = estimate.distinct.max(1);

    // Cheap case: opt' is small, the output-sensitive exact algorithm is
    // already near-linear (Theorem 4.6 costs O(n log n + n·opt)).
    if (opt_estimate as f64) <= config.threshold(n) {
        let placement = output_sensitive_colored_disk(sites, radius);
        return ColorSamplingResult {
            placement,
            opt_estimate,
            branch: ColorSamplingBranch::ExactOnFullInput,
        };
    }

    // Interesting case: sample colors independently with probability λ.
    let lambda = config.sampling_probability(n, opt_estimate as f64);
    let mut rng = StdRng::seed_from_u64(config.seed);
    // One draw per color present, in ascending id order.
    let (dense, num_colors) = dense_colors(sites.iter().map(|s| s.color));
    let kept: Vec<bool> = (0..num_colors).map(|_| rng.gen_bool(lambda)).collect();
    let sample: Vec<ColoredSite<2>> =
        sites.iter().zip(&dense).filter(|&(_, &c)| kept[c]).map(|(s, _)| *s).collect();
    let kept_colors = kept.iter().filter(|&&k| k).count();

    // If the subsample came out empty (tiny λ and unlucky draw), fall back to
    // the estimator's own placement — it is still a certified placement.
    if sample.is_empty() {
        return ColorSamplingResult {
            placement: ColoredPlacement {
                center: estimate.center,
                distinct: ball_distinct_colors(sites, &estimate.center, radius),
            },
            opt_estimate,
            branch: ColorSamplingBranch::SampledColors { kept_colors: 0, kept_disks: 0 },
        };
    }

    let on_sample = output_sensitive_colored_disk(&sample, radius);
    // Report the true colored depth of the chosen point with respect to the
    // full input; by Lemma 4.8 it is at least (1 − ε)·opt with high
    // probability.
    let distinct = ball_distinct_colors(sites, &on_sample.center, radius);
    ColorSamplingResult {
        placement: ColoredPlacement { center: on_sample.center, distinct },
        opt_estimate,
        branch: ColorSamplingBranch::SampledColors { kept_colors, kept_disks: sample.len() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ColoredInstance;
    use crate::exact::colored_disk2d::exact_colored_disk;
    use mrs_geom::Point2;

    fn site(x: f64, y: f64, color: usize) -> ColoredSite<2> {
        ColoredSite::new(Point2::xy(x, y), color)
    }

    #[test]
    fn empty_instance() {
        let res = approx_colored_disk_sampling(&[], 1.0, ColorSamplingConfig::new(0.25));
        assert_eq!(res.distinct, 0);
    }

    #[test]
    fn small_opt_takes_the_exact_branch_and_is_exact() {
        // opt = 3 < threshold, so the answer is exact.
        let sites = vec![
            site(0.0, 0.0, 0),
            site(0.2, 0.0, 1),
            site(0.0, 0.2, 2),
            site(20.0, 20.0, 3),
            site(40.0, 0.0, 4),
        ];
        let details =
            approx_colored_disk_sampling_with_details(&sites, 1.0, ColorSamplingConfig::new(0.25));
        assert_eq!(details.branch, ColorSamplingBranch::ExactOnFullInput);
        assert_eq!(details.placement.distinct, exact_colored_disk(&sites, 1.0).distinct);
    }

    #[test]
    fn large_opt_takes_the_sampling_branch_and_stays_near_optimal() {
        // 120 colors, all of whose disks overlap around the origin, so
        // opt = 120 far exceeds the (reduced-c₁) threshold and the sampling
        // branch must run.  A (1 − ε) guarantee with ε = 0.25 demands at
        // least 90.
        let mut rng = StdRng::seed_from_u64(1);
        let mut sites = Vec::new();
        for color in 0..120usize {
            for _ in 0..2 {
                sites.push(site(rng.gen_range(0.0..0.5), rng.gen_range(0.0..0.5), color));
            }
        }
        // Noise far away.
        for color in 0..40usize {
            sites.push(site(rng.gen_range(30.0..60.0), rng.gen_range(30.0..60.0), color));
        }
        let mut config = ColorSamplingConfig::new(0.25).with_seed(7);
        // Lower c₁ so the threshold (c₁ ε⁻² ln n ≈ 45) sits below opt' and the
        // interesting branch is exercised at this test size.
        config.c1 = 0.5;
        let details = approx_colored_disk_sampling_with_details(&sites, 1.0, config);
        match details.branch {
            ColorSamplingBranch::SampledColors { kept_colors, kept_disks } => {
                assert!(kept_colors > 0);
                assert!(kept_disks >= kept_colors);
                assert!(kept_disks < sites.len(), "sampling must actually subsample");
            }
            other => panic!("expected the sampling branch, got {other:?}"),
        }
        let exact = exact_colored_disk(&sites, 1.0);
        assert_eq!(exact.distinct, 120);
        assert!(
            details.placement.distinct as f64 >= 0.75 * exact.distinct as f64,
            "(1 − ε) guarantee violated: {} vs {}",
            details.placement.distinct,
            exact.distinct
        );
    }

    #[test]
    fn reported_count_is_a_true_placement_value() {
        let mut rng = StdRng::seed_from_u64(5);
        let sites: Vec<ColoredSite<2>> = (0..150)
            .map(|_| {
                site(rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0), rng.gen_range(0..50usize))
            })
            .collect();
        let res =
            approx_colored_disk_sampling(&sites, 1.0, ColorSamplingConfig::new(0.2).with_seed(3));
        assert_eq!(ball_distinct_colors(&sites, &res.center, 1.0), res.distinct);
        assert!(res.distinct <= ColoredInstance::ball(sites, 1.0).distinct_colors());
    }

    #[test]
    fn epsilon_controls_quality_monotonically_on_average() {
        // A smoke check that a tighter ε does not do worse on a fixed seed.
        let mut rng = StdRng::seed_from_u64(11);
        let mut sites = Vec::new();
        for color in 0..80usize {
            sites.push(site(rng.gen_range(0.0..0.8), rng.gen_range(0.0..0.8), color));
        }
        let run = |eps| {
            approx_colored_disk_sampling(&sites, 1.0, ColorSamplingConfig::new(eps).with_seed(2))
        };
        let (loose, tight) = (run(0.5), run(0.1));
        assert!(tight.distinct >= loose.distinct.saturating_sub(8));
        assert!(tight.distinct <= 80);
    }
}
