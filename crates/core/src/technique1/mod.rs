//! Technique 1 — sampling points in `R^d` (Section 3 of the paper).
//!
//! Instead of sampling the input objects (which leads to `log^{Θ(d)} n`
//! factors for balls), the technique samples a small set of *locations*:
//! `Θ(ε^{-2} log n)` points on the circumsphere of every non-empty cell of a
//! family of shifted grids (Lemma 2.1, `s = 2ε/√d`, `Δ = ε²`), maintains their
//! depth in the dual unit-ball arrangement, and reports the deepest sample.
//! The randomized game of Lemma 3.1 plus the spherical-cap bound of Lemma 3.2
//! show the deepest sample has depth at least `(1/2 − ε)·opt` with high
//! probability.
//!
//! * [`static_ball`] — Theorem 1.2, the static `(1/2 − ε)`-approximation;
//! * [`dynamic_ball`] — Theorem 1.1, insertions/deletions in amortized
//!   `O_ε(log n)` time via epochs;
//! * [`colored_ball`] — Theorem 1.5, the colored variant.

pub mod colored_ball;
pub mod dynamic_ball;
pub mod sample_set;
pub mod static_ball;

pub use colored_ball::{approx_colored_ball, colored_placement, colored_sample_set};
pub use dynamic_ball::{DynamicBallMaxRS, PointId};
pub use sample_set::{SampleSet, SampledBest};
pub use static_ball::{approx_static_ball, weighted_placement, weighted_sample_set};
