//! # mrs-core — maximum range sum algorithms
//!
//! This crate implements the algorithmic contributions of *"A Bouquet of
//! Results on Maximum Range Sum: General Techniques and Hardness Reductions"*
//! (PODS 2025) together with the exact baselines they are measured against:
//!
//! | Paper result | API |
//! |---|---|
//! | Theorem 1.1 — dynamic `(1/2 − ε)`-approx MaxRS with a `d`-ball | [`technique1::DynamicBallMaxRS`] |
//! | Theorem 1.2 — static `(1/2 − ε)`-approx MaxRS with a `d`-ball | [`technique1::approx_static_ball`], over [`technique1::weighted_sample_set`] |
//! | Theorem 1.5 — colored `(1/2 − ε)`-approx MaxRS with a `d`-ball | [`technique1::approx_colored_ball`], over [`technique1::colored_sample_set`] |
//! | Lemma 4.2 — exact colored disk MaxRS via union boundaries | [`technique2::exact_colored_disk_by_union`] |
//! | Theorem 4.6 — output-sensitive exact colored disk MaxRS | [`technique2::output_sensitive_colored_disk`] |
//! | Theorem 1.6 — `(1 − ε)`-approx colored disk MaxRS by color sampling | [`technique2::approx_colored_disk_sampling`] |
//! | Exact baselines (\[IA83\], \[NB95\], \[CL86\], \[ZGH+22\]-style colored rectangles) | [`exact`] |
//! | Prior-work input-sampling (1 − ε) baseline (\[AHR+02\]/\[AH08\]) | [`baselines`] |
//!
//! The batched problems and the hardness-reduction chains of Sections 5–6 live
//! in the sibling crates `mrs-batched` and `mrs-hardness`.
//!
//! All of the above are also dispatchable through the **solver engine**
//! ([`engine`]): one instance model ([`engine::WeightedInstance`] /
//! [`engine::ColoredInstance`]), object-safe [`engine::WeightedSolver`] /
//! [`engine::ColoredSolver`] traits, and a capability [`engine::registry`]
//! so callers select exact-vs-approximate per workload and downstream crates
//! plug in their own solvers.
//!
//! ## Quick start
//!
//! ```
//! use mrs_core::config::SamplingConfig;
//! use mrs_core::technique1::approx_static_ball;
//! use mrs_geom::{Point2, WeightedPoint};
//!
//! let points = vec![
//!     WeightedPoint::unit(Point2::xy(0.0, 0.0)),
//!     WeightedPoint::unit(Point2::xy(0.5, 0.0)),
//!     WeightedPoint::unit(Point2::xy(9.0, 9.0)),
//! ];
//! let placement = approx_static_ball(&points, 1.0, SamplingConfig::practical(0.25));
//! assert!(placement.value >= 2.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod config;
pub mod engine;
pub mod exact;
pub mod input;
pub mod technique1;
pub mod technique2;

pub use config::{ColorSamplingConfig, SamplingConfig};
pub use engine::{
    registry, ColoredInstance, ColoredSolver, EngineConfig, EngineError, Guarantee, RangeShape,
    Registry, SolveStats, SolverDescriptor, SolverReport, WeightedInstance, WeightedSolver,
};
pub use input::{ColoredPlacement, Placement};
pub use technique1::{approx_colored_ball, approx_static_ball, DynamicBallMaxRS};
pub use technique2::{approx_colored_disk_sampling, output_sensitive_colored_disk};
