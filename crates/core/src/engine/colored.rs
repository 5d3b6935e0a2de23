//! Built-in [`ColoredSolver`] implementations wrapping the colored MaxRS
//! entry points: candidate enumeration, the Lemma 4.2 union-boundary
//! algorithm, the output-sensitive algorithm of Theorem 4.6, the Technique 1
//! colored sampler (Theorem 1.5), the color-sampling `(1 − ε)` scheme
//! (Theorem 1.6), and the exact colored rectangle sweep.

use std::time::Instant;

use super::convert::{repack_colored_placement, repack_point, repack_sites};
use super::descriptor::{
    BatchCapability, DimSupport, GuaranteeClass, ProblemKind, ShapeClass, SolverDescriptor,
};
use super::index::SharedIndex;
use super::instance::{ColoredInstance, RangeShape};
use super::report::{Guarantee, SolveStats, SolverReport};
use super::weighted::{require_ball, require_box, require_dim};
use super::{each_shape, ColoredSolver, EngineResult};
use crate::config::{ColorSamplingConfig, SamplingConfig};
use crate::exact::{exact_colored_disk, exact_colored_rect_chunked};
use crate::input::ColoredPlacement;
use crate::technique1::colored_placement;
use crate::technique2::{
    approx_colored_disk_sampling_with_details, exact_colored_disk_by_union,
    output_sensitive_colored_disk_chunked, ColorSamplingBranch,
};

/// Exact colored disk MaxRS by straightforward candidate enumeration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactColoredDiskEnumSolver;

impl ExactColoredDiskEnumSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "exact-colored-disk-enum",
        problem: ProblemKind::Colored,
        shape: ShapeClass::Ball,
        dims: DimSupport::Fixed(2),
        guarantee: GuaranteeClass::Exact,
        dynamic: false,
        batch: BatchCapability::Independent,
        negative_weights: true,
        reference: "candidate enumeration baseline",
    };
}

impl<const D: usize> ColoredSolver<D> for ExactColoredDiskEnumSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    fn solve_all(
        &self,
        base: &ColoredInstance<D>,
        shapes: &[RangeShape<D>],
        _index: &SharedIndex<D>,
        _threads: usize,
    ) -> Vec<EngineResult<SolverReport<ColoredPlacement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        each_shape(shapes, |shape| {
            require_dim::<D>(name, 2)?;
            let radius = require_ball(name, shape)?;
            let sites = repack_sites::<D, 2>(base.sites());
            let best = exact_colored_disk(&sites, radius);
            Ok(SolverReport {
                solver: name,
                placement: repack_colored_placement(&best),
                guarantee: Guarantee::Exact,
                stats: SolveStats::default(),
            })
        })
    }
}

/// Exact colored disk MaxRS via per-color union boundaries (Lemma 4.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactColoredDiskUnionSolver;

impl ExactColoredDiskUnionSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "exact-colored-disk-union",
        problem: ProblemKind::Colored,
        shape: ShapeClass::Ball,
        dims: DimSupport::Fixed(2),
        guarantee: GuaranteeClass::Exact,
        dynamic: false,
        batch: BatchCapability::Independent,
        negative_weights: true,
        reference: "Lemma 4.2",
    };
}

impl<const D: usize> ColoredSolver<D> for ExactColoredDiskUnionSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    fn solve_all(
        &self,
        base: &ColoredInstance<D>,
        shapes: &[RangeShape<D>],
        _index: &SharedIndex<D>,
        _threads: usize,
    ) -> Vec<EngineResult<SolverReport<ColoredPlacement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        each_shape(shapes, |shape| {
            require_dim::<D>(name, 2)?;
            let radius = require_ball(name, shape)?;
            let sites = repack_sites::<D, 2>(base.sites());
            let best = exact_colored_disk_by_union(&sites, radius);
            Ok(SolverReport {
                solver: name,
                placement: repack_colored_placement(&best),
                guarantee: Guarantee::Exact,
                stats: SolveStats::default(),
            })
        })
    }
}

/// Exact output-sensitive colored disk MaxRS (Theorem 4.6): cost scales with
/// the answer, not with `n²`.
#[derive(Clone, Copy, Debug, Default)]
pub struct OutputSensitiveColoredDiskSolver;

impl OutputSensitiveColoredDiskSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "output-sensitive-colored-disk",
        problem: ProblemKind::Colored,
        shape: ShapeClass::Ball,
        dims: DimSupport::Fixed(2),
        guarantee: GuaranteeClass::Exact,
        dynamic: false,
        batch: BatchCapability::Independent,
        negative_weights: true,
        reference: "Theorem 4.6",
    };
}

impl<const D: usize> ColoredSolver<D> for OutputSensitiveColoredDiskSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    fn solve_all(
        &self,
        base: &ColoredInstance<D>,
        shapes: &[RangeShape<D>],
        _index: &SharedIndex<D>,
        threads: usize,
    ) -> Vec<EngineResult<SolverReport<ColoredPlacement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        each_shape(shapes, |shape| {
            require_dim::<D>(name, 2)?;
            let radius = require_ball(name, shape)?;
            let sites = repack_sites::<D, 2>(base.sites());
            let (best, stats) = output_sensitive_colored_disk_chunked(&sites, radius, threads);
            Ok(SolverReport {
                solver: name,
                placement: repack_colored_placement(&best),
                guarantee: Guarantee::Exact,
                stats: SolveStats {
                    grids: Some(stats.grids),
                    cells: Some(stats.cells),
                    candidates: Some(stats.boundary_intersections),
                    candidates_examined: Some(stats.grid_queries.candidates),
                    grid_cells_visited: Some(stats.grid_queries.cells),
                    sieve_rejected: Some(stats.grid_queries.sieve_rejected),
                    ..SolveStats::default()
                },
            })
        })
    }
}

/// `(1/2 − ε)`-approximate colored `d`-ball MaxRS via point sampling
/// (Theorem 1.5).
#[derive(Clone, Copy, Debug)]
pub struct ColoredBallSolver {
    config: SamplingConfig,
}

impl ColoredBallSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "approx-colored-ball",
        problem: ProblemKind::Colored,
        shape: ShapeClass::Ball,
        dims: DimSupport::Any,
        guarantee: GuaranteeClass::HalfMinusEps,
        dynamic: false,
        batch: BatchCapability::IndexShared,
        negative_weights: true,
        reference: "Theorem 1.5",
    };

    /// A solver running with the given sampling configuration.
    pub fn new(config: SamplingConfig) -> Self {
        Self { config }
    }

    /// The sampling configuration the solver runs with.
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }
}

impl Default for ColoredBallSolver {
    fn default() -> Self {
        Self::new(SamplingConfig::default())
    }
}

impl<const D: usize> ColoredSolver<D> for ColoredBallSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    /// The colored Technique 1 sample set (dual balls inserted grouped by
    /// color, Section 3.2) is built once per distinct radius in the shared
    /// index; each query reads it through [`colored_placement`], which
    /// certifies the chosen center with an exact distinct-color recount.
    fn solve_all(
        &self,
        base: &ColoredInstance<D>,
        shapes: &[RangeShape<D>],
        index: &SharedIndex<D>,
        _threads: usize,
    ) -> Vec<EngineResult<SolverReport<ColoredPlacement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        shapes
            .iter()
            .map(|shape| {
                let radius = require_ball(name, shape)?;
                let start = Instant::now();
                let placement = if base.is_empty() {
                    ColoredPlacement::empty()
                } else {
                    colored_placement(
                        &index.colored_sample_set(radius, &self.config),
                        base.sites(),
                        radius,
                    )
                };
                Ok(SolverReport {
                    solver: name,
                    placement,
                    guarantee: Guarantee::HalfMinusEps { eps: self.config.eps },
                    stats: SolveStats { elapsed: start.elapsed(), ..SolveStats::default() },
                })
            })
            .collect()
    }
}

/// `(1 − ε)`-approximate colored disk MaxRS by color sampling (Theorem 1.6).
#[derive(Clone, Copy, Debug)]
pub struct ColoredDiskSamplingSolver {
    config: ColorSamplingConfig,
}

impl ColoredDiskSamplingSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "approx-colored-disk-sampling",
        problem: ProblemKind::Colored,
        shape: ShapeClass::Ball,
        dims: DimSupport::Fixed(2),
        guarantee: GuaranteeClass::OneMinusEps,
        dynamic: false,
        batch: BatchCapability::Independent,
        negative_weights: true,
        reference: "Theorem 1.6",
    };

    /// A solver running with the given color-sampling configuration.
    pub fn new(config: ColorSamplingConfig) -> Self {
        Self { config }
    }

    /// The color-sampling configuration the solver runs with.
    pub fn config(&self) -> &ColorSamplingConfig {
        &self.config
    }
}

impl Default for ColoredDiskSamplingSolver {
    fn default() -> Self {
        Self::new(ColorSamplingConfig::default())
    }
}

impl<const D: usize> ColoredSolver<D> for ColoredDiskSamplingSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    fn solve_all(
        &self,
        base: &ColoredInstance<D>,
        shapes: &[RangeShape<D>],
        _index: &SharedIndex<D>,
        _threads: usize,
    ) -> Vec<EngineResult<SolverReport<ColoredPlacement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        each_shape(shapes, |shape| {
            require_dim::<D>(name, 2)?;
            let radius = require_ball(name, shape)?;
            let sites = repack_sites::<D, 2>(base.sites());
            let details = approx_colored_disk_sampling_with_details(&sites, radius, self.config);
            let kept = match details.branch {
                ColorSamplingBranch::ExactOnFullInput => None,
                ColorSamplingBranch::SampledColors { kept_colors, .. } => Some(kept_colors),
            };
            Ok(SolverReport {
                solver: name,
                placement: repack_colored_placement(&details.placement),
                guarantee: Guarantee::OneMinusEps { eps: self.config.eps },
                stats: SolveStats {
                    samples: kept,
                    candidates: Some(details.opt_estimate),
                    ..SolveStats::default()
                },
            })
        })
    }
}

/// Exact colored rectangle MaxRS (the [ZGH+22]-style prior-work setting).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactColoredRectSolver;

impl ExactColoredRectSolver {
    /// Capability record.
    pub const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "exact-colored-rect-2d",
        problem: ProblemKind::Colored,
        shape: ShapeClass::AxisBox,
        dims: DimSupport::Fixed(2),
        guarantee: GuaranteeClass::Exact,
        dynamic: false,
        batch: BatchCapability::Independent,
        negative_weights: true,
        reference: "[ZGH+22]-style sweep",
    };
}

impl<const D: usize> ColoredSolver<D> for ExactColoredRectSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    fn solve_all(
        &self,
        base: &ColoredInstance<D>,
        shapes: &[RangeShape<D>],
        _index: &SharedIndex<D>,
        threads: usize,
    ) -> Vec<EngineResult<SolverReport<ColoredPlacement<D>>>> {
        let name = Self::DESCRIPTOR.name;
        each_shape(shapes, |shape| {
            require_dim::<D>(name, 2)?;
            let extents = require_box(name, shape)?;
            let sites = repack_sites::<D, 2>(base.sites());
            let best = exact_colored_rect_chunked(&sites, extents[0], extents[1], threads);
            let center = repack_point(&best.rect.lo.lerp(&best.rect.hi, 0.5));
            Ok(SolverReport {
                solver: name,
                placement: ColoredPlacement { center, distinct: best.distinct },
                guarantee: Guarantee::Exact,
                stats: SolveStats::default(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineError;
    use mrs_geom::{ColoredSite, Point2};

    fn herd() -> ColoredInstance<2> {
        ColoredInstance::ball(
            vec![
                ColoredSite::new(Point2::xy(0.0, 0.0), 0),
                ColoredSite::new(Point2::xy(0.3, 0.2), 0),
                ColoredSite::new(Point2::xy(0.5, 0.0), 1),
                ColoredSite::new(Point2::xy(0.1, 0.6), 2),
                ColoredSite::new(Point2::xy(5.0, 5.0), 3),
            ],
            1.0,
        )
    }

    #[test]
    fn exact_colored_solvers_agree() {
        let instance = herd();
        let enumerated = ExactColoredDiskEnumSolver.solve(&instance).unwrap();
        let union = ExactColoredDiskUnionSolver.solve(&instance).unwrap();
        let output_sensitive = OutputSensitiveColoredDiskSolver.solve(&instance).unwrap();
        assert_eq!(enumerated.placement.distinct, 3);
        assert_eq!(union.placement.distinct, 3);
        assert_eq!(output_sensitive.placement.distinct, 3);
        assert!(output_sensitive.stats.grids.is_some());
    }

    #[test]
    fn approximate_colored_solvers_respect_guarantees() {
        let instance = herd();
        let exact = 3.0;
        for report in [
            ColoredBallSolver::default().solve(&instance).unwrap(),
            ColoredDiskSamplingSolver::default().solve(&instance).unwrap(),
        ] {
            assert!(
                report.placement.distinct as f64 >= report.guarantee.ratio() * exact,
                "{}: {} < {} * {}",
                report.solver,
                report.placement.distinct,
                report.guarantee.ratio(),
                exact
            );
            assert_eq!(
                instance.distinct_at(&report.placement.center),
                report.placement.distinct,
                "{} must certify its reported count",
                report.solver
            );
        }
    }

    #[test]
    fn hostile_color_ids_answer_as_their_dense_ranks() {
        // `{0, 2^40, usize::MAX}` in id order is `{0, 1, 2}`: no solver may
        // size an array, or draw a random number, per possible id.
        let instance = |palette: [usize; 3]| {
            let sites = [(0.0, 0.0, 0), (0.3, 0.2, 0), (0.5, 0.0, 1), (0.1, 0.6, 2), (5.0, 5.0, 2)]
                .map(|(x, y, c)| ColoredSite::new(Point2::xy(x, y), palette[c]));
            ColoredInstance::ball(sites.to_vec(), 1.0)
        };
        let (dense, hostile) = (instance([0, 1, 2]), instance([0, 1 << 40, usize::MAX]));
        // A tiny `c1` sends the color sampler down its sampling branch.
        let mut sampling = ColorSamplingConfig::new(0.25);
        sampling.c1 = 0.01;
        let solvers: [&dyn ColoredSolver<2>; 6] = [
            &ExactColoredDiskEnumSolver,
            &ExactColoredDiskUnionSolver,
            &OutputSensitiveColoredDiskSolver,
            &ColoredBallSolver::default(),
            &ColoredDiskSamplingSolver::default(),
            &ColoredDiskSamplingSolver::new(sampling),
        ];
        for solver in solvers {
            let want = solver.solve(&dense).unwrap();
            let got = solver.solve(&hostile).unwrap();
            assert_eq!(got.placement, want.placement, "{}", solver.name());
            assert_eq!(got.stats.samples, want.stats.samples, "{}", solver.name());
        }
        let sampled = ColoredDiskSamplingSolver::new(sampling).solve(&hostile).unwrap();
        assert!(sampled.stats.samples.is_some(), "the sampling branch ran");
    }

    #[test]
    fn colored_rect_dispatch() {
        let sites = vec![
            ColoredSite::new(Point2::xy(0.0, 0.0), 0),
            ColoredSite::new(Point2::xy(0.6, 0.4), 1),
            ColoredSite::new(Point2::xy(5.0, 5.0), 2),
        ];
        let instance = ColoredInstance::axis_box(sites, [1.0, 1.0]);
        let report = ExactColoredRectSolver.solve(&instance).unwrap();
        assert_eq!(report.placement.distinct, 2);
        assert_eq!(instance.distinct_at(&report.placement.center), 2);
    }

    #[test]
    fn colored_mismatches_are_typed_errors() {
        let ball = herd();
        assert!(matches!(
            ExactColoredRectSolver.solve(&ball),
            Err(EngineError::UnsupportedShape { .. })
        ));
        let boxed = ColoredInstance::<2>::axis_box(vec![], [1.0, 1.0]);
        assert!(matches!(
            OutputSensitiveColoredDiskSolver.solve(&boxed),
            Err(EngineError::UnsupportedShape { .. })
        ));
    }
}
