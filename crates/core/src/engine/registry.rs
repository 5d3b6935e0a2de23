//! The solver registry: enumerate solvers by name and capability, construct
//! them under any ambient dimension, and let downstream crates plug in their
//! own implementations.
//!
//! Built-in and external solvers live in one table shape: each entry is a
//! [`SolverDescriptor`] plus a handle, a [`SharedWeightedSolver<D>`] or
//! [`SharedColoredSolver<D>`] behind `dyn Any`.  The handle's type names both
//! the problem kind and the dimension, so every lookup ([`Registry::weighted`],
//! [`Registry::colored`] and the two `*_solvers` listings) is one walk of the
//! table that keeps the entries downcasting to the caller's handle type.
//!
//! The built-in set and its order are written once and constructed per
//! lookup from the registry's [`EngineConfig`], so one registry serves every
//! `const D` the caller asks for.  External solvers (e.g. the batched 1-D
//! solver from `mrs-batched`) are registered per dimension and take
//! precedence over built-ins with the same name, so a downstream crate can
//! also *replace* a built-in.  The listing [`Registry::descriptors`] returns
//! is fixed when a solver registers: each `(problem, name)` once, in lookup
//! precedence.

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

/// One solver of the registry's table: its capability record and its handle
/// behind `Any`, a `SharedWeightedSolver<D>` or `SharedColoredSolver<D>`.
pub(super) struct Entry {
    pub(super) descriptor: SolverDescriptor,
    solver: Box<dyn Any + Send + Sync>,
}

impl Entry {
    fn weighted<const D: usize>(solver: SharedWeightedSolver<D>) -> Self {
        Entry { descriptor: *solver.descriptor(), solver: Box::new(solver) }
    }

    fn colored<const D: usize>(solver: SharedColoredSolver<D>) -> Self {
        Entry { descriptor: *solver.descriptor(), solver: Box::new(solver) }
    }

    /// The handle, if it has type `T`: the type picks the kind and the
    /// dimension.
    pub(super) fn handle<T: Clone + 'static>(&self) -> Option<T> {
        self.solver.downcast_ref::<T>().cloned()
    }
}

/// The built-in solvers of both kinds for dimension `D`, in registry order
/// (some support only one dimension; lookups filter by the descriptor).
/// The two `auto` routers come last and pick among the others.
pub(super) fn builtins<const D: usize>(config: &EngineConfig) -> [Entry; 13] {
    [
        Entry::weighted::<D>(Arc::new(ExactIntervalSolver)),
        Entry::weighted::<D>(Arc::new(ExactRectSolver)),
        Entry::weighted::<D>(Arc::new(ExactDiskSolver)),
        Entry::weighted::<D>(Arc::new(StaticBallSolver::new(config.sampling))),
        Entry::weighted::<D>(Arc::new(DynamicBallSolver::new(config.sampling))),
        Entry::colored::<D>(Arc::new(ExactColoredDiskEnumSolver)),
        Entry::colored::<D>(Arc::new(ExactColoredDiskUnionSolver)),
        Entry::colored::<D>(Arc::new(OutputSensitiveColoredDiskSolver)),
        Entry::colored::<D>(Arc::new(ColoredBallSolver::new(config.sampling))),
        Entry::colored::<D>(Arc::new(ColoredDiskSamplingSolver::new(config.color_sampling))),
        Entry::colored::<D>(Arc::new(ExactColoredRectSolver)),
        Entry::weighted::<D>(Arc::new(AutoWeightedSolver::new(*config))),
        Entry::colored::<D>(Arc::new(AutoColoredSolver::new(*config))),
    ]
}

/// The solver registry.  See the [engine docs](crate::engine) for semantics.
pub struct Registry {
    config: EngineConfig,
    /// Externally registered solvers, in registration order.
    external: Vec<Entry>,
    /// What [`Registry::descriptors`] returns, rebuilt at each registration.
    listing: Vec<SolverDescriptor>,
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
        let mut registry = Self { config, external: Vec::new(), listing: Vec::new() };
        registry.relist();
        registry
    }

    /// The configuration used to construct randomized solvers.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Capability records of every registered solver, each `(problem, name)`
    /// once, in lookup precedence: external solvers first, in registration
    /// order, then the built-ins they do not shadow.
    pub fn descriptors(&self) -> Vec<SolverDescriptor> {
        self.listing.clone()
    }

    /// Registers an external weighted solver for dimension `D`.  It takes
    /// precedence over any built-in with the same name.
    ///
    /// # Panics
    /// Panics if the solver's descriptor does not claim support for `D` —
    /// the listing would otherwise advertise a capability lookup cannot
    /// resolve.
    pub fn register_weighted<const D: usize>(&mut self, solver: SharedWeightedSolver<D>) {
        self.register::<D>(Entry::weighted(solver));
    }

    /// Registers an external colored solver for dimension `D`.  It takes
    /// precedence over any built-in with the same name.
    ///
    /// # Panics
    /// Panics if the solver's descriptor does not claim support for `D`.
    pub fn register_colored<const D: usize>(&mut self, solver: SharedColoredSolver<D>) {
        self.register::<D>(Entry::colored(solver));
    }

    fn register<const D: usize>(&mut self, entry: Entry) {
        assert!(
            entry.descriptor.dims.supports(D),
            "solver `{}` registered for dimension {D} its descriptor does not support",
            entry.descriptor.name
        );
        self.external.push(entry);
        self.relist();
    }

    /// Lists each `(problem, name)` at its first entry in lookup precedence,
    /// so a solver registered for several dimensions is one row and an
    /// external solver's row replaces the built-in row it shadows.  Built-in
    /// descriptors do not depend on the dimension; `D = 1` stands in.
    fn relist(&mut self) {
        let builtins = builtins::<1>(&self.config);
        self.listing.clear();
        for d in self.external.iter().chain(&builtins).map(|e| e.descriptor) {
            if !self.listing.iter().any(|l| (l.problem, l.name) == (d.problem, d.name)) {
                self.listing.push(d);
            }
        }
    }

    /// The weighted solver registered under `name` that supports dimension
    /// `D`, if any.
    pub fn weighted<const D: usize>(&self, name: &str) -> Option<SharedWeightedSolver<D>> {
        self.lookup::<D, _>(Some(name)).next()
    }

    /// The colored solver registered under `name` that supports dimension
    /// `D`, if any.
    pub fn colored<const D: usize>(&self, name: &str) -> Option<SharedColoredSolver<D>> {
        self.lookup::<D, _>(Some(name)).next()
    }

    /// Every weighted solver (external and built-in) supporting dimension
    /// `D`.
    pub fn weighted_solvers<const D: usize>(&self) -> Vec<SharedWeightedSolver<D>> {
        self.lookup::<D, _>(None).collect()
    }

    /// Every colored solver (external and built-in) supporting dimension `D`.
    pub fn colored_solvers<const D: usize>(&self) -> Vec<SharedColoredSolver<D>> {
        self.lookup::<D, _>(None).collect()
    }

    /// The solvers with handle type `T` that support dimension `D` and are
    /// named `name` (any name for `None`), in lookup precedence.  The
    /// built-ins are constructed only if the external solvers run out.
    fn lookup<'a, const D: usize, T: Clone + 'static>(
        &'a self,
        name: Option<&'a str>,
    ) -> impl Iterator<Item = T> + 'a {
        let wanted = move |e: &Entry| {
            if e.descriptor.dims.supports(D) && name.is_none_or(|n| e.descriptor.name == n) {
                e.handle()
            } else {
                None
            }
        };
        let builtins = std::iter::once_with(|| builtins::<D>(&self.config)).flatten();
        self.external.iter().filter_map(wanted).chain(builtins.filter_map(move |e| wanted(&e)))
    }
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
        // And descriptors list the external one first, in place of the
        // built-in row it shadows.
        assert_eq!(reg.descriptors()[0].reference, "test stub");
        let rows = reg.descriptors().iter().filter(|d| d.name == "exact-disk-2d").count();
        assert_eq!(rows, 1);
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
        assert!(reg.weighted::<2>("stub-colored").is_none(), "a colored solver only");
        assert!(reg.colored::<3>("stub-colored").is_none(), "registered for d = 2 only");
        assert_eq!(reg.colored_solvers::<2>().len(), before + 1);
        // A second dimension resolves there too but adds no listing row.
        reg.register_colored::<3>(Arc::new(Stub));
        assert!(reg.colored::<3>("stub-colored").is_some());
        assert_eq!(reg.descriptors().iter().filter(|d| d.name == "stub-colored").count(), 1);
    }
}
