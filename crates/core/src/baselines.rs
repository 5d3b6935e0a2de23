//! Prior-work approximation baselines the paper compares its techniques
//! against.
//!
//! Section 1.5 contrasts Technique 1 with the classical `(1 − ε)` recipe of
//! \[AHR+02\]/\[AH08\]/\[THCC13\]: sample the *input objects*, run an exact
//! algorithm on the sample, and argue by concentration that deep points stay
//! deep.  For a disk in the plane that recipe is perfectly practical (the
//! exact algorithm is the `O(n² log n)` sweep), and having it implemented
//! makes the trade-off the paper describes measurable: input sampling gets a
//! better approximation factor, but its running time inherits the exact
//! algorithm's dependence on the sample size, which is what blows up to
//! `log^{Θ(d)} n` in higher dimensions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mrs_geom::WeightedPoint;

use crate::config::SamplingConfig;
use crate::exact::disk2d::max_disk_placement;
use crate::input::{ball_coverage_weight, Placement};
use crate::technique1::static_ball::approx_static_ball;

/// Configuration for the input-sampling baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InputSamplingConfig {
    /// Approximation parameter `ε ∈ (0, 1)`.
    pub eps: f64,
    /// Seed for the point sample.
    pub seed: u64,
    /// Constant `c` in the per-point keep probability `c·log n / (ε² opt')`.
    pub c: f64,
    /// Configuration of the Technique 1 estimator used to guess `opt`.
    pub estimator: SamplingConfig,
}

impl InputSamplingConfig {
    /// A default configuration for the given `ε`.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "ε must lie in (0, 1), got {eps}");
        Self { eps, seed: 0xABCD, c: 2.0, estimator: SamplingConfig::practical(0.25) }
    }

    /// Overrides the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.estimator = self.estimator.with_seed(seed ^ 0x51AB);
        self
    }
}

/// The classical `(1 − ε)`-style baseline for disk MaxRS in the plane:
/// estimate `opt` with Technique 1, keep each (unit-weight share of a) point
/// with probability `min(1, c·log n / (ε² opt'))`, run the exact planar sweep
/// on the sample, and report the chosen center with its *true* covered weight.
///
/// For small instances (or small `opt`) the sample is the whole input and the
/// answer is exact.
///
/// # Panics
/// Panics if `radius` is not strictly positive or any weight is negative.
pub fn approx_disk_by_input_sampling(
    points: &[WeightedPoint<2>],
    radius: f64,
    config: InputSamplingConfig,
) -> Placement<2> {
    // Step 1: constant-factor estimate of opt (Theorem 1.2 with ε = 1/4),
    // which also refuses a non-positive radius or a negative weight.
    let estimator_cfg = SamplingConfig { eps: 0.25, ..config.estimator };
    let estimate = approx_static_ball(points, radius, estimator_cfg).value.max(1e-9);
    let n = points.len();
    if n == 0 {
        return Placement::empty();
    }

    // Step 2: keep probability.  `estimate` is at least opt/4 w.h.p., so the
    // expected sampled weight near the optimum is Θ(c·log n / ε²).
    let n_f = (n.max(2)) as f64;
    let keep = (config.c * n_f.ln() / (config.eps * config.eps * estimate)).min(1.0);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let sample: Vec<WeightedPoint<2>> =
        points.iter().copied().filter(|_| rng.gen_bool(keep)).collect();
    if sample.is_empty() {
        // Degenerate draw: fall back to the estimator's placement.
        let center = approx_static_ball(points, radius, estimator_cfg).center;
        return Placement { center, value: ball_coverage_weight(points, &center, radius) };
    }

    // Step 3: exact sweep on the sample, then certify the chosen center
    // against the full input.
    let on_sample = max_disk_placement(&sample, radius);
    let value = ball_coverage_weight(points, &on_sample.center, radius);
    Placement { center: on_sample.center, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_geom::Point2;

    #[test]
    fn empty_instance() {
        assert_eq!(
            approx_disk_by_input_sampling(&[], 1.0, InputSamplingConfig::new(0.2)).value,
            0.0
        );
    }

    #[test]
    fn small_instances_are_answered_exactly() {
        // With few points the keep probability saturates at 1, so the answer
        // matches the exact sweep.
        let points = vec![
            WeightedPoint::unit(Point2::xy(0.0, 0.0)),
            WeightedPoint::unit(Point2::xy(0.5, 0.0)),
            WeightedPoint::unit(Point2::xy(4.0, 0.0)),
        ];
        let config = InputSamplingConfig::new(0.3).with_seed(1);
        let res = approx_disk_by_input_sampling(&points, 1.0, config);
        let exact = max_disk_placement(&points, 1.0);
        assert_eq!(res.value, exact.value);
    }

    #[test]
    fn stays_close_to_optimal_on_dense_instances() {
        // A dense hotspot plus background noise; the (1 − ε) recipe should land
        // well above the (1/2 − ε) floor of Technique 1.
        let mut rng = StdRng::seed_from_u64(8);
        let mut points = Vec::new();
        for _ in 0..400 {
            points.push(WeightedPoint::unit(Point2::xy(
                rng.gen_range(0.0..0.8),
                rng.gen_range(0.0..0.8),
            )));
        }
        for _ in 0..400 {
            points.push(WeightedPoint::unit(Point2::xy(
                rng.gen_range(5.0..25.0),
                rng.gen_range(5.0..25.0),
            )));
        }
        let exact = max_disk_placement(&points, 1.0);
        let config = InputSamplingConfig::new(0.2).with_seed(2);
        let res = approx_disk_by_input_sampling(&points, 1.0, config);
        assert!(
            res.value >= 0.8 * exact.value,
            "input sampling found {} vs exact {}",
            res.value,
            exact.value
        );
        // And the reported value is certified against the full input.
        assert!((ball_coverage_weight(&points, &res.center, 1.0) - res.value).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ε must lie in (0, 1)")]
    fn rejects_bad_epsilon() {
        InputSamplingConfig::new(1.5);
    }
}
