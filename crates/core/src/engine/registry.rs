//! The solver registry: enumerate solvers by name and capability, construct
//! them under any ambient dimension, and let downstream crates plug in their
//! own implementations.
//!
//! Built-in solvers are constructed on demand from the registry's
//! [`EngineConfig`], so one registry serves every `const D` the caller asks
//! for.  External solvers (e.g. the batched 1-D solver from `mrs-batched`)
//! are registered per dimension as shared trait objects and take precedence
//! over built-ins with the same name, so a downstream crate can also
//! *replace* a built-in.

use std::any::Any;
use std::sync::Arc;

use super::auto::{AutoColoredSolver, AutoWeightedSolver};
use super::colored::{
    ColoredBallSolver, ColoredDiskSamplingSolver, ExactColoredDiskEnumSolver,
    ExactColoredDiskUnionSolver, ExactColoredRectSolver, OutputSensitiveColoredDiskSolver,
};
use super::descriptor::SolverDescriptor;
use super::weighted::{
    DynamicBallSolver, ExactDiskSolver, ExactIntervalSolver, ExactRectSolver, StaticBallSolver,
};
use super::{ColoredSolver, WeightedSolver};
use crate::config::{ColorSamplingConfig, SamplingConfig};

/// A shareable weighted solver handle.
pub type SharedWeightedSolver<const D: usize> = Arc<dyn WeightedSolver<D>>;

/// A shareable colored solver handle.
pub type SharedColoredSolver<const D: usize> = Arc<dyn ColoredSolver<D>>;

/// Configuration shared by every randomized solver the registry constructs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineConfig {
    /// Configuration of the Technique 1 samplers (Theorems 1.1, 1.2, 1.5).
    pub sampling: SamplingConfig,
    /// Configuration of the Theorem 1.6 color sampler.
    pub color_sampling: ColorSamplingConfig,
}

impl EngineConfig {
    /// A configuration with practical caps at the given `ε` (see
    /// [`SamplingConfig::practical`]).
    ///
    /// The Technique 1 samplers only admit `ε < 1/2`, so for `ε ≥ 1/2` (legal
    /// for the `(1 − ε)` color sampler) their `ε` is clamped just below it.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn practical(eps: f64) -> Self {
        Self {
            sampling: SamplingConfig::practical(eps.min(0.49)),
            color_sampling: ColorSamplingConfig::new(eps),
        }
    }

    /// Overrides every random seed, for reproducible runs.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sampling = self.sampling.with_seed(seed);
        self.color_sampling = self.color_sampling.with_seed(seed ^ 0x5DEECE66D);
        self
    }
}

enum ExternalObject {
    // The boxes hold `SharedWeightedSolver<D>` / `SharedColoredSolver<D>`
    // for the `dim` recorded next to them; retrieval downcasts back with the
    // caller's `const D`.
    Weighted(Box<dyn Any + Send + Sync>),
    Colored(Box<dyn Any + Send + Sync>),
}

struct ExternalEntry {
    descriptor: SolverDescriptor,
    dim: usize,
    object: ExternalObject,
}

/// The solver registry.  See the [engine docs](crate::engine) for semantics.
pub struct Registry {
    config: EngineConfig,
    external: Vec<ExternalEntry>,
}

/// The registry of built-in solvers under the default [`EngineConfig`].
///
/// The default configuration is theory-faithful: the samplers keep the full
/// `(2/ε)^d` shifted-grid family of Lemma 2.1, which is affordable in the
/// plane but grows exponentially with the dimension.  Use
/// [`Registry::with_config`] with [`EngineConfig::practical`] for `d ≥ 3` or
/// latency-sensitive workloads.
pub fn registry() -> Registry {
    Registry::with_config(EngineConfig::default())
}

impl Default for Registry {
    fn default() -> Self {
        registry()
    }
}

impl Registry {
    /// A registry whose randomized solvers run with `config`.
    pub fn with_config(config: EngineConfig) -> Self {
        Self { config, external: Vec::new() }
    }

    /// The configuration used to construct randomized solvers.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Capability records of every registered solver, external solvers first
    /// (matching lookup precedence), then built-ins.
    pub fn descriptors(&self) -> Vec<SolverDescriptor> {
        let mut out: Vec<SolverDescriptor> = self.external.iter().map(|e| e.descriptor).collect();
        out.extend_from_slice(&BUILTIN_DESCRIPTORS);
        out
    }

    /// Registers an external weighted solver for dimension `D`.  It takes
    /// precedence over any built-in with the same name.
    ///
    /// # Panics
    /// Panics if the solver's descriptor does not claim support for `D` —
    /// the listing would otherwise advertise a capability lookup cannot
    /// resolve.
    pub fn register_weighted<const D: usize>(&mut self, solver: SharedWeightedSolver<D>) {
        assert!(
            solver.descriptor().dims.supports(D),
            "solver `{}` registered for dimension {D} its descriptor does not support",
            solver.descriptor().name
        );
        self.external.push(ExternalEntry {
            descriptor: *solver.descriptor(),
            dim: D,
            object: ExternalObject::Weighted(Box::new(solver)),
        });
    }

    /// Registers an external colored solver for dimension `D`.  It takes
    /// precedence over any built-in with the same name.
    ///
    /// # Panics
    /// Panics if the solver's descriptor does not claim support for `D`.
    pub fn register_colored<const D: usize>(&mut self, solver: SharedColoredSolver<D>) {
        assert!(
            solver.descriptor().dims.supports(D),
            "solver `{}` registered for dimension {D} its descriptor does not support",
            solver.descriptor().name
        );
        self.external.push(ExternalEntry {
            descriptor: *solver.descriptor(),
            dim: D,
            object: ExternalObject::Colored(Box::new(solver)),
        });
    }

    /// The weighted solver registered under `name` that supports dimension
    /// `D`, if any.
    pub fn weighted<const D: usize>(&self, name: &str) -> Option<SharedWeightedSolver<D>> {
        for entry in &self.external {
            if entry.descriptor.name == name && entry.dim == D {
                if let ExternalObject::Weighted(object) = &entry.object {
                    if let Some(solver) = object.downcast_ref::<SharedWeightedSolver<D>>() {
                        return Some(Arc::clone(solver));
                    }
                }
            }
        }
        builtin_weighted::<D>(&self.config)
            .into_iter()
            .find(|s| s.descriptor().name == name && s.descriptor().dims.supports(D))
    }

    /// The colored solver registered under `name` that supports dimension
    /// `D`, if any.
    pub fn colored<const D: usize>(&self, name: &str) -> Option<SharedColoredSolver<D>> {
        for entry in &self.external {
            if entry.descriptor.name == name && entry.dim == D {
                if let ExternalObject::Colored(object) = &entry.object {
                    if let Some(solver) = object.downcast_ref::<SharedColoredSolver<D>>() {
                        return Some(Arc::clone(solver));
                    }
                }
            }
        }
        builtin_colored::<D>(&self.config)
            .into_iter()
            .find(|s| s.descriptor().name == name && s.descriptor().dims.supports(D))
    }

    /// Every weighted solver (external and built-in) supporting dimension
    /// `D`.
    pub fn weighted_solvers<const D: usize>(&self) -> Vec<SharedWeightedSolver<D>> {
        let mut out: Vec<SharedWeightedSolver<D>> = Vec::new();
        for entry in &self.external {
            if entry.dim == D {
                if let ExternalObject::Weighted(object) = &entry.object {
                    if let Some(solver) = object.downcast_ref::<SharedWeightedSolver<D>>() {
                        out.push(Arc::clone(solver));
                    }
                }
            }
        }
        out.extend(
            builtin_weighted::<D>(&self.config)
                .into_iter()
                .filter(|s| s.descriptor().dims.supports(D)),
        );
        out
    }

    /// Every colored solver (external and built-in) supporting dimension `D`.
    pub fn colored_solvers<const D: usize>(&self) -> Vec<SharedColoredSolver<D>> {
        let mut out: Vec<SharedColoredSolver<D>> = Vec::new();
        for entry in &self.external {
            if entry.dim == D {
                if let ExternalObject::Colored(object) = &entry.object {
                    if let Some(solver) = object.downcast_ref::<SharedColoredSolver<D>>() {
                        out.push(Arc::clone(solver));
                    }
                }
            }
        }
        out.extend(
            builtin_colored::<D>(&self.config)
                .into_iter()
                .filter(|s| s.descriptor().dims.supports(D)),
        );
        out
    }
}

/// Descriptors of the built-in solvers, in registry order.
pub(super) const BUILTIN_DESCRIPTORS: [SolverDescriptor; 13] = [
    ExactIntervalSolver::DESCRIPTOR,
    ExactRectSolver::DESCRIPTOR,
    ExactDiskSolver::DESCRIPTOR,
    StaticBallSolver::DESCRIPTOR,
    DynamicBallSolver::DESCRIPTOR,
    ExactColoredDiskEnumSolver::DESCRIPTOR,
    ExactColoredDiskUnionSolver::DESCRIPTOR,
    OutputSensitiveColoredDiskSolver::DESCRIPTOR,
    ColoredBallSolver::DESCRIPTOR,
    ColoredDiskSamplingSolver::DESCRIPTOR,
    ExactColoredRectSolver::DESCRIPTOR,
    AutoWeightedSolver::DESCRIPTOR,
    AutoColoredSolver::DESCRIPTOR,
];

/// The concrete (non-routing) built-in weighted solvers, in registry order.
/// The `auto` router picks among exactly these, so it is excluded to keep
/// the candidate set recursion-free.
pub(super) fn concrete_weighted<const D: usize>(
    config: &EngineConfig,
) -> Vec<SharedWeightedSolver<D>> {
    vec![
        Arc::new(ExactIntervalSolver),
        Arc::new(ExactRectSolver),
        Arc::new(ExactDiskSolver),
        Arc::new(StaticBallSolver::new(config.sampling)),
        Arc::new(DynamicBallSolver::new(config.sampling)),
    ]
}

/// The concrete built-in colored solvers, in registry order (see
/// [`concrete_weighted`]).
pub(super) fn concrete_colored<const D: usize>(
    config: &EngineConfig,
) -> Vec<SharedColoredSolver<D>> {
    vec![
        Arc::new(ExactColoredDiskEnumSolver),
        Arc::new(ExactColoredDiskUnionSolver),
        Arc::new(OutputSensitiveColoredDiskSolver),
        Arc::new(ColoredBallSolver::new(config.sampling)),
        Arc::new(ColoredDiskSamplingSolver::new(config.color_sampling)),
        Arc::new(ExactColoredRectSolver),
    ]
}

fn builtin_weighted<const D: usize>(config: &EngineConfig) -> Vec<SharedWeightedSolver<D>> {
    let mut solvers = concrete_weighted::<D>(config);
    solvers.push(Arc::new(AutoWeightedSolver::new(*config)));
    solvers
}

fn builtin_colored<const D: usize>(config: &EngineConfig) -> Vec<SharedColoredSolver<D>> {
    let mut solvers = concrete_colored::<D>(config);
    solvers.push(Arc::new(AutoColoredSolver::new(*config)));
    solvers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        each_shape, ColoredInstance, EngineResult, ProblemKind, RangeShape, ShapeClass,
        SharedIndex, SolverReport, WeightedInstance,
    };
    use crate::input::{ColoredPlacement, Placement};
    use mrs_geom::{Point2, WeightedPoint};

    #[test]
    fn registry_lists_all_builtins() {
        let reg = registry();
        let descriptors = reg.descriptors();
        assert!(descriptors.len() >= 8, "expected at least 8 solvers, got {}", descriptors.len());
        let names: Vec<&str> = descriptors.iter().map(|d| d.name).collect();
        for expected in [
            "exact-interval-1d",
            "exact-rect-2d",
            "exact-disk-2d",
            "approx-static-ball",
            "dynamic-ball",
            "exact-colored-disk-enum",
            "exact-colored-disk-union",
            "output-sensitive-colored-disk",
            "approx-colored-ball",
            "approx-colored-disk-sampling",
            "exact-colored-rect-2d",
            "auto",
        ] {
            assert!(names.contains(&expected), "missing solver {expected}");
        }
        // `auto` registers once per problem kind.
        assert_eq!(names.iter().filter(|n| **n == "auto").count(), 2);
    }

    #[test]
    fn lookup_respects_dimension_support() {
        let reg = registry();
        assert!(reg.weighted::<2>("exact-disk-2d").is_some());
        assert!(reg.weighted::<3>("exact-disk-2d").is_none());
        assert!(reg.weighted::<1>("exact-interval-1d").is_some());
        assert!(reg.weighted::<2>("exact-interval-1d").is_none());
        assert!(reg.weighted::<7>("approx-static-ball").is_some());
        assert!(reg.weighted::<2>("no-such-solver").is_none());
        assert!(reg.colored::<2>("approx-colored-disk-sampling").is_some());
        assert!(reg.colored::<3>("approx-colored-disk-sampling").is_none());
        assert!(reg.colored::<3>("approx-colored-ball").is_some());
    }

    #[test]
    fn solver_lists_filter_by_dimension() {
        let reg = registry();
        let planar = reg.weighted_solvers::<2>();
        assert!(planar.iter().any(|s| s.name() == "exact-rect-2d"));
        assert!(planar.iter().all(|s| s.name() != "exact-interval-1d"));
        let spatial = reg.weighted_solvers::<5>();
        assert!(spatial.iter().all(|s| s.descriptor().dims.supports(5)));
        assert_eq!(spatial.len(), 3, "only the samplers (and their router) work in d = 5");
    }

    #[test]
    fn config_flows_into_constructed_solvers() {
        let reg = Registry::with_config(EngineConfig::practical(0.3).with_seed(99));
        let instance = WeightedInstance::ball(
            vec![
                WeightedPoint::unit(Point2::xy(0.0, 0.0)),
                WeightedPoint::unit(Point2::xy(0.2, 0.0)),
            ],
            1.0,
        );
        let report = reg.weighted::<2>("approx-static-ball").unwrap().solve(&instance).unwrap();
        match report.guarantee {
            crate::engine::Guarantee::HalfMinusEps { eps } => assert!((eps - 0.3).abs() < 1e-12),
            other => panic!("unexpected guarantee {other:?}"),
        }
    }

    #[test]
    fn external_registration_takes_precedence() {
        struct Stub;
        impl<const D: usize> WeightedSolver<D> for Stub {
            fn descriptor(&self) -> &SolverDescriptor {
                const STUB: SolverDescriptor = SolverDescriptor {
                    name: "exact-disk-2d",
                    problem: ProblemKind::Weighted,
                    shape: ShapeClass::Ball,
                    dims: crate::engine::DimSupport::Fixed(2),
                    guarantee: crate::engine::GuaranteeClass::Exact,
                    dynamic: false,
                    batch: crate::engine::BatchCapability::Independent,
                    negative_weights: false,
                    reference: "test stub",
                };
                &STUB
            }
            fn solve_all(
                &self,
                _base: &WeightedInstance<D>,
                shapes: &[RangeShape<D>],
                _index: &SharedIndex<D>,
                _threads: usize,
            ) -> Vec<EngineResult<SolverReport<Placement<D>>>> {
                each_shape(shapes, |_| {
                    Ok(SolverReport {
                        solver: "exact-disk-2d",
                        placement: Placement { center: mrs_geom::Point::origin(), value: -1.0 },
                        guarantee: crate::engine::Guarantee::Exact,
                        stats: crate::engine::SolveStats::default(),
                    })
                })
            }
        }

        let mut reg = registry();
        reg.register_weighted::<2>(Arc::new(Stub));
        let solver = reg.weighted::<2>("exact-disk-2d").unwrap();
        let report = solver.solve(&WeightedInstance::<2>::ball(vec![], 1.0)).unwrap();
        assert_eq!(report.placement.value, -1.0, "external stub must shadow the builtin");
        // But the other dimension still resolves nothing.
        assert!(reg.weighted::<3>("exact-disk-2d").is_none());
        // And descriptors list the external one first.
        assert_eq!(reg.descriptors()[0].reference, "test stub");
    }

    #[test]
    fn colored_registration_roundtrip() {
        struct Stub;
        impl<const D: usize> ColoredSolver<D> for Stub {
            fn descriptor(&self) -> &SolverDescriptor {
                const STUB: SolverDescriptor = SolverDescriptor {
                    name: "stub-colored",
                    problem: ProblemKind::Colored,
                    shape: ShapeClass::Ball,
                    dims: crate::engine::DimSupport::Any,
                    guarantee: crate::engine::GuaranteeClass::Exact,
                    dynamic: false,
                    batch: crate::engine::BatchCapability::Independent,
                    negative_weights: false,
                    reference: "test stub",
                };
                &STUB
            }
            fn solve_all(
                &self,
                _base: &ColoredInstance<D>,
                shapes: &[RangeShape<D>],
                _index: &SharedIndex<D>,
                _threads: usize,
            ) -> Vec<EngineResult<SolverReport<ColoredPlacement<D>>>> {
                each_shape(shapes, |_| {
                    Ok(SolverReport {
                        solver: "stub-colored",
                        placement: ColoredPlacement::empty(),
                        guarantee: crate::engine::Guarantee::Exact,
                        stats: crate::engine::SolveStats::default(),
                    })
                })
            }
        }
        let mut reg = registry();
        let before = reg.colored_solvers::<2>().len();
        reg.register_colored::<2>(Arc::new(Stub));
        assert!(reg.colored::<2>("stub-colored").is_some());
        assert!(reg.colored::<3>("stub-colored").is_none(), "registered for d = 2 only");
        assert_eq!(reg.colored_solvers::<2>().len(), before + 1);
    }
}
