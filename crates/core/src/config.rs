//! Tuning knobs for the randomized algorithms.
//!
//! The paper's sample sizes (`t = Θ(ε^{-2} log n)` points per non-empty cell)
//! and grid-family sizes (`(2/ε)^d` shifted grids, Lemma 2.1) hide constants
//! that matter enormously in practice.  `SamplingConfig` exposes them: the
//! defaults follow the theory, and [`SamplingConfig::practical`] caps them,
//! trading Lemma 2.1's worst-case guarantee for speed.  The experiment runner
//! (`cargo run --release -p mrs-bench --bin experiments`) reports the
//! approximation ratios measured under such caps (E1–E3, E6).

/// Configuration of the point-sampling technique (Section 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingConfig {
    /// Approximation parameter `ε ∈ (0, 1/2)`; the guarantee is `(1/2 − ε)`.
    pub eps: f64,
    /// Seed for all randomness, so runs are reproducible.
    pub seed: u64,
    /// The constant `c` in `t = c · ε^{-2} · ln n` samples per non-empty cell.
    pub sample_constant: f64,
    /// Lower clamp on the per-cell sample count.
    pub min_samples_per_cell: usize,
    /// Upper clamp on the per-cell sample count (guards against runaway memory
    /// when `ε` is very small).
    pub max_samples_per_cell: usize,
    /// Maximum number of shifted grids to keep from the Lemma 2.1 family.
    /// `None` keeps the full family (the theoretical guarantee); the
    /// benchmarks cap it for speed.
    pub max_grids: Option<usize>,
}

impl SamplingConfig {
    /// A theory-faithful configuration for the given `ε`.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1/2`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 0.5, "ε must lie in (0, 1/2), got {eps}");
        Self {
            eps,
            seed: 0xC0FFEE,
            sample_constant: 1.0,
            min_samples_per_cell: 4,
            max_samples_per_cell: 4096,
            max_grids: None,
        }
    }

    /// A configuration with practical caps, suitable for benchmarks and large
    /// inputs: at most `max_grids` shifted grids and at most 64 samples per
    /// cell.  The worst-case guarantee of Lemma 2.1 is traded for speed; the
    /// sampling-vs-exact ratios of experiment E2 quantify the effect.
    pub fn practical(eps: f64) -> Self {
        let mut cfg = Self::new(eps);
        cfg.max_grids = Some(8);
        cfg.max_samples_per_cell = 64;
        cfg
    }

    /// Overrides the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the grid-family cap.
    pub fn with_max_grids(mut self, max_grids: Option<usize>) -> Self {
        self.max_grids = max_grids;
        self
    }

    /// Number of sample points per non-empty cell for an instance of size `n`
    /// (`t = c · ε^{-2} · ln n`, clamped to the configured bounds).
    pub fn samples_per_cell(&self, n: usize) -> usize {
        let n = n.max(2) as f64;
        let t = self.sample_constant * n.ln() / (self.eps * self.eps);
        (t.ceil() as usize).clamp(self.min_samples_per_cell, self.max_samples_per_cell)
    }

    /// Grid cell side `s = 2ε/√d` used by Technique 1.
    pub fn grid_side(&self, d: usize) -> f64 {
        2.0 * self.eps / (d as f64).sqrt()
    }

    /// Grid nearness parameter `Δ = ε²` used by Technique 1.
    pub fn grid_delta(&self) -> f64 {
        self.eps * self.eps
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self::new(0.25)
    }
}

/// Configuration of the color-sampling technique (Section 4.4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColorSamplingConfig {
    /// Approximation parameter `ε ∈ (0, 1)`; the guarantee is `(1 − ε)`.
    pub eps: f64,
    /// Seed for all randomness.
    pub seed: u64,
    /// The constant `c₁` in the threshold `c₁ ε^{-2} log n` and the sampling
    /// probability `λ = c₁ log n / (ε² opt')`.
    pub c1: f64,
    /// Configuration of the Technique 1 estimator used to obtain `opt'`
    /// (the paper fixes its ε to 1/4).
    pub estimator: SamplingConfig,
}

impl ColorSamplingConfig {
    /// A default configuration for the given `ε`.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "ε must lie in (0, 1), got {eps}");
        Self { eps, seed: 0xBEEF, c1: 2.0, estimator: SamplingConfig::practical(0.25) }
    }

    /// Overrides the random seed (also reseeds the estimator).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.estimator = self.estimator.with_seed(seed ^ 0x9E3779B97F4A7C15);
        self
    }

    /// The exact/approximate switch-over threshold `c₁ ε^{-2} ln n`.
    pub fn threshold(&self, n: usize) -> f64 {
        let n = n.max(2) as f64;
        self.c1 * n.ln() / (self.eps * self.eps)
    }

    /// The per-color sampling probability `λ = c₁ ln n / (ε² opt')`, clamped
    /// to `(0, 1]`.
    pub fn sampling_probability(&self, n: usize, opt_estimate: f64) -> f64 {
        if opt_estimate <= 0.0 {
            return 1.0;
        }
        (self.threshold(n) / opt_estimate).min(1.0)
    }
}

impl Default for ColorSamplingConfig {
    fn default() -> Self {
        Self::new(0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_grows_with_n_and_shrinks_with_eps() {
        let tight = SamplingConfig::new(0.1);
        let loose = SamplingConfig::new(0.4);
        assert!(tight.samples_per_cell(1000) > loose.samples_per_cell(1000));
        assert!(loose.samples_per_cell(100_000) >= loose.samples_per_cell(100));
    }

    #[test]
    fn sample_count_respects_clamps() {
        let mut cfg = SamplingConfig::new(0.01);
        cfg.max_samples_per_cell = 100;
        assert_eq!(cfg.samples_per_cell(1_000_000), 100);
        let mut cfg = SamplingConfig::new(0.45);
        cfg.min_samples_per_cell = 10;
        assert_eq!(cfg.samples_per_cell(2), 10);
    }

    #[test]
    fn grid_parameters_follow_the_paper() {
        let cfg = SamplingConfig::new(0.2);
        assert!((cfg.grid_side(4) - 2.0 * 0.2 / 2.0).abs() < 1e-12);
        assert!((cfg.grid_delta() - 0.04).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ε must lie in (0, 1/2)")]
    fn rejects_out_of_range_eps() {
        SamplingConfig::new(0.75);
    }

    #[test]
    fn color_sampling_probability_clamped() {
        let cfg = ColorSamplingConfig::new(0.5);
        assert_eq!(cfg.sampling_probability(100, 0.0), 1.0);
        assert!(cfg.sampling_probability(100, 1e9) < 1e-4);
        assert!(cfg.sampling_probability(100, 1.0) <= 1.0);
    }

    #[test]
    fn practical_config_caps_grids() {
        let cfg = SamplingConfig::practical(0.3);
        assert_eq!(cfg.max_grids, Some(8));
        assert!(cfg.max_samples_per_cell <= 64);
    }
}
