//! # maxrs — maximum range sum algorithms, batched problems and hardness reductions
//!
//! A Rust implementation of *"A Bouquet of Results on Maximum Range Sum:
//! General Techniques and Hardness Reductions"* (PODS 2025).  This facade
//! crate re-exports the whole workspace behind one dependency:
//!
//! * [`geom`] — geometric substrate (points, balls, boxes, shifted grids,
//!   sphere sampling, disk-union boundaries, sweep structures);
//! * [`core`] — the MaxRS algorithms themselves: exact baselines, the
//!   point-sampling technique (static / dynamic / colored, Theorems 1.1, 1.2,
//!   1.5) and the output-sensitive + color-sampling technique (Theorems 4.6,
//!   1.6);
//! * [`batched`] — batched 1-D MaxRS and the batched smallest-k-enclosing
//!   interval problem (the upper bounds matched by Theorems 1.3 and 1.4);
//! * [`hardness`] — the (min,+)-convolution family and the executable
//!   reduction chains of Sections 5 and 6;
//! * [`server`] — the long-lived query service behind `maxrs serve`: a
//!   dataset catalog with resident shared indexes, a sharded answer cache,
//!   and a std-only HTTP/1.1 runtime.
//!
//! ## The solver engine
//!
//! Every algorithm is also dispatchable through the **engine**
//! ([`engine`], re-exported from `mrs_core` and wired up with the batched
//! solvers): one instance model ([`engine::WeightedInstance`] /
//! [`engine::ColoredInstance`]), two object-safe solver traits
//! ([`engine::WeightedSolver`] / [`engine::ColoredSolver`]), and a
//! [`engine::registry`] that enumerates solvers by name and capability so a
//! caller can pick exact-vs-approximate per workload.  Every solve returns a
//! [`engine::SolverReport`] carrying the placement, its certified
//! value/distinct-count, the approximation [`engine::Guarantee`], and
//! timing/sample statistics.
//!
//! The [`prelude`] pulls in the types and entry points most applications need.
//!
//! ```
//! use maxrs::prelude::*;
//!
//! // Where should a store with a 1 km catchment radius go?
//! let customers = vec![
//!     WeightedPoint::unit(Point2::xy(0.1, 0.2)),
//!     WeightedPoint::unit(Point2::xy(0.4, 0.1)),
//!     WeightedPoint::unit(Point2::xy(8.0, 8.0)),
//! ];
//! let instance = WeightedInstance::ball(customers, 1.0);
//! let solver = engine::registry().weighted::<2>("exact-disk-2d").unwrap();
//! let report = solver.solve(&instance).unwrap();
//! assert_eq!(report.placement.value, 2.0);
//! assert!(report.guarantee.is_exact());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;

pub use mrs_batched as batched;
pub use mrs_core as core;
pub use mrs_geom as geom;
pub use mrs_hardness as hardness;
pub use mrs_server as server;

/// The solver engine, fully wired: the `mrs_core` dispatch layer plus every
/// solver the other workspace crates contribute.
pub mod engine {
    pub use mrs_core::engine::*;

    pub use mrs_batched::engine::BatchedIntervalSolver;

    /// The full workspace registry: the `mrs_core` built-ins plus the
    /// solvers of `mrs_batched` (shadows the core-only
    /// [`mrs_core::engine::registry`]).
    pub fn registry() -> Registry {
        registry_with(EngineConfig::default())
    }

    /// Like [`registry`], with an explicit engine configuration.  The
    /// wiring lives in [`mrs_batched::engine::full_registry`] so the CLI
    /// and the query service can never drift apart on which solvers exist.
    pub fn registry_with(config: EngineConfig) -> Registry {
        mrs_batched::engine::full_registry(config)
    }
}

/// The most commonly used types and functions from across the workspace.
pub mod prelude {
    pub use crate::engine;
    pub use mrs_batched::{BatchedMaxRS1D, BatchedSei, IntervalPlacement, LinePoint};
    pub use mrs_core::config::{ColorSamplingConfig, SamplingConfig};
    pub use mrs_core::engine::{
        BatchAnswer, BatchCapability, BatchExecutor, BatchQuery, BatchReport, BatchStats,
        ColoredInstance, ColoredSolver, EngineConfig, EngineError, ExecutorConfig, Guarantee,
        RangeShape, Registry, SharedIndex, SolveStats, SolverDescriptor, SolverReport,
        TraceRecorder, VersionedDataset, WeightedInstance, WeightedSolver,
    };
    pub use mrs_core::exact::{max_disk_placement, max_interval_placement, max_rect_placement};
    pub use mrs_core::input::{ColoredPlacement, Placement};
    pub use mrs_core::technique1::{approx_colored_ball, approx_static_ball, DynamicBallMaxRS};
    pub use mrs_core::technique2::{
        approx_colored_disk_sampling, exact_colored_disk_by_union, output_sensitive_colored_disk,
    };
    pub use mrs_geom::{Aabb, Ball, ColoredSite, Interval, Point, Point2, Rect, WeightedPoint};
    pub use mrs_hardness::{min_plus_convolution, min_plus_via_batched_maxrs, min_plus_via_bsei};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_are_usable_together() {
        let sites = vec![
            ColoredSite::new(Point2::xy(0.0, 0.0), 0),
            ColoredSite::new(Point2::xy(0.5, 0.0), 1),
        ];
        let exact = output_sensitive_colored_disk(&sites, 1.0);
        assert_eq!(exact.distinct, 2);

        let conv = min_plus_convolution(&[1.0, 2.0], &[3.0, 0.0]);
        assert_eq!(conv, vec![4.0, 1.0]);
    }

    #[test]
    fn full_registry_includes_batched_solvers() {
        let reg = engine::registry();
        assert!(reg.descriptors().len() >= 8);
        assert!(reg.weighted::<1>("batched-interval-1d").is_some());
        assert!(reg.weighted::<2>("exact-disk-2d").is_some());
    }
}
