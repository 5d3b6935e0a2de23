//! Metamorphic equivalence of the whole solver registry.
//!
//! Every registered solver — built-ins, the external batched 1-D solver,
//! and the `auto` router — is driven through identity-preserving transforms
//! of dyadic-lattice instances, and its answers must transform accordingly:
//! certified in every frame, pull-backable through the inverse map, exact
//! solvers bit-equal across frames, and guarantee ratios honored against an
//! exact reference wherever one exists (see
//! `mrs_core::engine::metamorphic` for the verifier contract).
//!
//! Six transform classes run per solver: `translate`, `scale`, `reflect`,
//! `permute`, `dup-zero-weight`/`color-remap` from the catalog, plus
//! *split-into-script* here — replaying the instance as insert mutations
//! through a [`VersionedDataset`] and answering through the delta-overlay
//! executor path (including the dynamic tracker for `dynamic-ball`), so the
//! overlay answer is verified against the cold one-shot build.
//!
//! The sweep crosses all three kernel modes and two thread counts.  By
//! default it runs in smoke mode (two case sizes, full mode×thread sweep on
//! the smallest); set `METAMORPHIC_FULL=1` for the full grid.  Cases run
//! smallest-first, so the first reported violation is near-minimal — the
//! vendored `proptest` subset does not shrink.

use std::sync::{Mutex, MutexGuard};

use maxrs::batched::engine::full_registry;
use maxrs::core::input::{ColoredPlacement, Placement};
use maxrs::engine::metamorphic::{
    colored_variants, dyadic_points, dyadic_sites, verify_colored, verify_weighted,
    weighted_variants, Variant,
};
use maxrs::engine::{
    BatchExecutor, BatchQuery, ColoredInstance, EngineConfig, ExecutorConfig, GuaranteeClass,
    Mutation, ProblemKind, RangeShape, Registry, ScriptOutcome, ScriptStep, ShapeClass,
    SolverReport, TraceRecorder, VersionedDataset, WeightedInstance,
};
use maxrs::geom::kernels::{kernel_mode, set_kernel_mode, KernelMode};
use maxrs::geom::SimilarityMap;
use proptest::prelude::*;

const MODES: [KernelMode; 3] = [KernelMode::ScalarF64, KernelMode::LanedF64, KernelMode::SieveF32];
const THREADS: [usize; 2] = [1, 3];

/// The kernel mode is process-global; every test in this binary serializes
/// through one lock and restores the previous mode on drop.
static MODE_LOCK: Mutex<()> = Mutex::new(());

struct ModeGuard {
    before: KernelMode,
    _lock: MutexGuard<'static, ()>,
}

impl ModeGuard {
    fn acquire() -> Self {
        let lock = MODE_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        Self { before: kernel_mode(), _lock: lock }
    }
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        set_kernel_mode(self.before);
    }
}

fn config() -> EngineConfig {
    // Practical caps keep the d ≥ 3 samplers affordable; the fixed seed
    // makes every randomized report reproducible.
    EngineConfig::practical(0.3).with_seed(0x4D45_5441)
}

fn full_sweep() -> bool {
    std::env::var_os("METAMORPHIC_FULL").is_some()
}

/// Case sizes, smallest first (the harness's substitute for shrinking).
fn sizes() -> Vec<usize> {
    if full_sweep() {
        vec![5, 14, 32, 64]
    } else {
        vec![5, 14]
    }
}

/// Mode × thread combinations for case `index`: the smallest case sweeps the
/// full grid; later (larger) cases rotate through the combinations so every
/// mode and thread count still sees a large instance without a quadratic
/// blow-up of the smoke run.
fn combos(index: usize) -> Vec<(KernelMode, usize)> {
    if index == 0 || full_sweep() {
        MODES.iter().flat_map(|&m| THREADS.iter().map(move |&t| (m, t))).collect()
    } else {
        vec![(MODES[index % 3], THREADS[index % 2])]
    }
}

fn shape_class<const D: usize>(shape: &RangeShape<D>) -> ShapeClass {
    if shape.ball_radius().is_some() {
        ShapeClass::Ball
    } else {
        ShapeClass::AxisBox
    }
}

/// Solves one weighted instance by `solver` through the batch executor (the
/// same path the CLI and server take, covering the index-shared kernels),
/// with certification on.
fn weighted_report<const D: usize>(
    registry: &Registry,
    solver: &str,
    instance: &WeightedInstance<D>,
    threads: usize,
) -> SolverReport<Placement<D>> {
    let dataset = VersionedDataset::new(instance.points().to_vec(), Vec::new());
    let query = BatchQuery::weighted(solver, *instance.shape());
    let executor = BatchExecutor::with_config(
        registry,
        ExecutorConfig { threads: Some(threads), certify: true, ..ExecutorConfig::default() },
    );
    let mut report =
        executor.execute_versioned_traced(&dataset, &[query], &mut TraceRecorder::disabled());
    assert_eq!(report.stats.certify_failures, 0, "{solver}: batch certification failed");
    let answer = report.answers.remove(0);
    answer
        .weighted()
        .unwrap_or_else(|| panic!("{solver}: weighted query failed: {answer:?}"))
        .clone()
}

/// Colored counterpart of [`weighted_report`].
fn colored_report<const D: usize>(
    registry: &Registry,
    solver: &str,
    instance: &ColoredInstance<D>,
    threads: usize,
) -> SolverReport<ColoredPlacement<D>> {
    let dataset = VersionedDataset::new(Vec::new(), instance.sites().to_vec());
    let query = BatchQuery::colored(solver, *instance.shape());
    let executor = BatchExecutor::with_config(
        registry,
        ExecutorConfig { threads: Some(threads), certify: true, ..ExecutorConfig::default() },
    );
    let mut report =
        executor.execute_versioned_traced(&dataset, &[query], &mut TraceRecorder::disabled());
    assert_eq!(report.stats.certify_failures, 0, "{solver}: batch certification failed");
    let answer = report.answers.remove(0);
    answer.colored().unwrap_or_else(|| panic!("{solver}: colored query failed: {answer:?}")).clone()
}

/// The exact optimum of `base`, from the first registered exact solver
/// capable of its (shape, dimension) — `None` when no exact reference
/// exists (e.g. balls in d ≥ 3).
fn exact_weighted_opt<const D: usize>(
    registry: &Registry,
    base: &WeightedInstance<D>,
) -> Option<f64> {
    let class = shape_class(base.shape());
    let descriptor = registry.descriptors().into_iter().find(|d| {
        d.guarantee == GuaranteeClass::Exact && d.supports(ProblemKind::Weighted, class, D)
    })?;
    let solver = registry.weighted::<D>(descriptor.name)?;
    Some(solver.solve(base).expect("exact reference solves").placement.value)
}

fn exact_colored_opt<const D: usize>(
    registry: &Registry,
    base: &ColoredInstance<D>,
) -> Option<usize> {
    let class = shape_class(base.shape());
    let descriptor = registry.descriptors().into_iter().find(|d| {
        d.guarantee == GuaranteeClass::Exact && d.supports(ProblemKind::Colored, class, D)
    })?;
    let solver = registry.colored::<D>(descriptor.name)?;
    Some(solver.solve(base).expect("exact reference solves").placement.distinct)
}

/// Runs every registered weighted solver capable of `shape` in dimension `D`
/// through the five-transform catalog.
fn run_weighted_catalog<const D: usize>(registry: &Registry, shape: RangeShape<D>, seed: u64) {
    let class = shape_class(&shape);
    let solvers: Vec<&'static str> = registry
        .descriptors()
        .into_iter()
        .filter(|d| d.supports(ProblemKind::Weighted, class, D))
        .map(|d| d.name)
        .collect();
    assert!(!solvers.is_empty(), "no weighted solver for {class} in d = {D}");
    for solver in solvers {
        for (case, &n) in sizes().iter().enumerate() {
            let case_seed = seed ^ (n as u64).wrapping_mul(0x9E37_79B9);
            let base = WeightedInstance::new(dyadic_points::<D>(case_seed, n), shape);
            let variants = weighted_variants(&base, case_seed);
            let exact_opt = exact_weighted_opt(registry, &base);
            for (mode, threads) in combos(case) {
                set_kernel_mode(mode);
                let base_report = weighted_report(registry, solver, &base, threads);
                for variant in &variants {
                    let variant_report =
                        weighted_report(registry, solver, &variant.instance, threads);
                    if let Err(msg) =
                        verify_weighted(&base, &base_report, variant, &variant_report, exact_opt)
                    {
                        panic!("d={D} n={n} {mode:?} x{threads}: {msg}");
                    }
                }
            }
        }
    }
}

/// Colored counterpart of [`run_weighted_catalog`].
fn run_colored_catalog<const D: usize>(registry: &Registry, shape: RangeShape<D>, seed: u64) {
    let class = shape_class(&shape);
    let solvers: Vec<&'static str> = registry
        .descriptors()
        .into_iter()
        .filter(|d| d.supports(ProblemKind::Colored, class, D))
        .map(|d| d.name)
        .collect();
    assert!(!solvers.is_empty(), "no colored solver for {class} in d = {D}");
    for solver in solvers {
        for (case, &n) in sizes().iter().enumerate() {
            let case_seed = seed ^ (n as u64).wrapping_mul(0x9E37_79B9);
            let base = ColoredInstance::new(dyadic_sites::<D>(case_seed, n, 5), shape);
            let variants = colored_variants(&base, case_seed);
            let exact_opt = exact_colored_opt(registry, &base);
            for (mode, threads) in combos(case) {
                set_kernel_mode(mode);
                let base_report = colored_report(registry, solver, &base, threads);
                for variant in &variants {
                    let variant_report =
                        colored_report(registry, solver, &variant.instance, threads);
                    if let Err(msg) =
                        verify_colored(&base, &base_report, variant, &variant_report, exact_opt)
                    {
                        panic!("d={D} n={n} {mode:?} x{threads}: {msg}");
                    }
                }
            }
        }
    }
}

/// The catalog sweep: every registered solver × every transform class × all
/// kernel modes × both thread counts, across every (shape, dimension)
/// combination the registry can answer.
#[test]
fn catalog_transforms_hold_for_every_registered_solver() {
    let _guard = ModeGuard::acquire();
    let registry = full_registry(config());
    run_weighted_catalog::<1>(&registry, RangeShape::interval(2.5), 0x01);
    run_weighted_catalog::<2>(&registry, RangeShape::ball(1.25), 0x02);
    run_weighted_catalog::<2>(&registry, RangeShape::rect(2.0, 1.5), 0x03);
    run_weighted_catalog::<3>(&registry, RangeShape::ball(2.5), 0x04);
    run_colored_catalog::<2>(&registry, RangeShape::ball(1.25), 0x05);
    run_colored_catalog::<2>(&registry, RangeShape::rect(2.0, 1.5), 0x06);
    run_colored_catalog::<3>(&registry, RangeShape::ball(2.5), 0x07);
}

/// The sixth transform class: *split-into-script*.  The weighted instance is
/// split into a seeded base plus per-point insert mutations (the delta stays
/// under the compaction threshold, so the final query genuinely runs on a
/// delta-overlay index, and `dynamic-ball` runs on its incrementally
/// maintained tracker), and the overlay answer must verify against the cold
/// one-shot build under the full metamorphic contract.
#[test]
fn split_into_script_matches_cold_build_for_weighted_solvers() {
    let _guard = ModeGuard::acquire();
    let registry = full_registry(config());
    let shape = RangeShape::<2>::ball(1.25);
    let points = dyadic_points::<2>(0xBEEF, 18);
    let base = WeightedInstance::new(points.clone(), shape);
    let exact_opt = exact_weighted_opt(&registry, &base);
    let split_at = points.len() - 3;

    for descriptor in registry.descriptors() {
        if !descriptor.supports(ProblemKind::Weighted, ShapeClass::Ball, 2) {
            continue;
        }
        let cold_report = weighted_report(&registry, descriptor.name, &base, 1);

        let dataset = VersionedDataset::new(points[..split_at].to_vec(), Vec::new());
        let mut steps: Vec<ScriptStep<2>> = points[split_at..]
            .iter()
            .map(|wp| ScriptStep::Mutate(Mutation::Insert { point: *wp, color: None }))
            .collect();
        steps.push(ScriptStep::Query(BatchQuery::weighted(descriptor.name, shape)));
        let executor = BatchExecutor::with_config(
            &registry,
            ExecutorConfig { threads: Some(1), certify: true, ..ExecutorConfig::default() },
        );
        let script = executor.execute_script(&dataset, &steps, &mut TraceRecorder::disabled());
        assert!(script.all_ok(), "{}: {:?}", descriptor.name, script.outcomes);
        assert!(dataset.view().delta_size() > 0, "the query must run on a live overlay");
        let ScriptOutcome::Answer { answer, certified, .. } =
            script.outcomes.last().expect("script ends with the query")
        else {
            panic!("{}: last outcome answers the query", descriptor.name)
        };
        assert_eq!(*certified, Some(true), "{}: overlay answer certifies", descriptor.name);
        let overlay_report =
            answer.weighted().unwrap_or_else(|| panic!("{}: {answer:?}", descriptor.name)).clone();

        let variant = Variant {
            label: "split-into-script",
            instance: base.clone(),
            map: SimilarityMap::identity(),
        };
        if let Err(msg) = verify_weighted(&base, &cold_report, &variant, &overlay_report, exact_opt)
        {
            panic!("{msg}");
        }
    }
}

/// Colored split-into-script, growing the dataset from *empty* so the script
/// crosses several compaction boundaries before the final query.
#[test]
fn split_into_script_matches_cold_build_for_colored_solvers() {
    let _guard = ModeGuard::acquire();
    let registry = full_registry(config());
    let shape = RangeShape::<2>::ball(1.25);
    let sites = dyadic_sites::<2>(0xFACE, 16, 4);
    let base = ColoredInstance::new(sites.clone(), shape);
    let exact_opt = exact_colored_opt(&registry, &base);

    for descriptor in registry.descriptors() {
        if !descriptor.supports(ProblemKind::Colored, ShapeClass::Ball, 2) {
            continue;
        }
        let cold_report = colored_report(&registry, descriptor.name, &base, 1);

        let dataset = VersionedDataset::<2>::new(Vec::new(), Vec::new());
        let mut steps: Vec<ScriptStep<2>> = sites
            .iter()
            .map(|s| {
                ScriptStep::Mutate(Mutation::Insert {
                    point: maxrs::geom::WeightedPoint::unit(s.point),
                    color: Some(s.color),
                })
            })
            .collect();
        steps.push(ScriptStep::Query(BatchQuery::colored(descriptor.name, shape)));
        let executor = BatchExecutor::with_config(
            &registry,
            ExecutorConfig { threads: Some(1), certify: true, ..ExecutorConfig::default() },
        );
        let script = executor.execute_script(&dataset, &steps, &mut TraceRecorder::disabled());
        assert!(script.all_ok(), "{}: {:?}", descriptor.name, script.outcomes);
        let ScriptOutcome::Answer { answer, certified, .. } =
            script.outcomes.last().expect("script ends with the query")
        else {
            panic!("{}: last outcome answers the query", descriptor.name)
        };
        assert_eq!(*certified, Some(true), "{}: overlay answer certifies", descriptor.name);
        let overlay_report =
            answer.colored().unwrap_or_else(|| panic!("{}: {answer:?}", descriptor.name)).clone();

        let variant = Variant {
            label: "split-into-script",
            instance: base.clone(),
            map: SimilarityMap::identity(),
        };
        if let Err(msg) = verify_colored(&base, &cold_report, &variant, &overlay_report, exact_opt)
        {
            panic!("{msg}");
        }
    }
}

proptest! {
    /// Randomized instances (sizes and seeds drawn by the vendored proptest
    /// subset) through the catalog for one exact and one randomized solver
    /// per problem kind, under a seed-rotated kernel mode and thread count.
    #[test]
    fn random_dyadic_instances_survive_the_catalog(
        seed in 0u64..(1 << 32),
        n in 1usize..40,
    ) {
        let _guard = ModeGuard::acquire();
        set_kernel_mode(MODES[(seed % 3) as usize]);
        let threads = THREADS[(seed % 2) as usize];
        let registry = full_registry(config());

        let base = WeightedInstance::new(dyadic_points::<2>(seed, n), RangeShape::ball(1.25));
        let exact = weighted_report(&registry, "exact-disk-2d", &base, threads);
        for solver in ["exact-disk-2d", "approx-static-ball"] {
            let base_report = weighted_report(&registry, solver, &base, threads);
            for variant in &weighted_variants(&base, seed) {
                let variant_report = weighted_report(&registry, solver, &variant.instance, threads);
                let verdict = verify_weighted(
                    &base, &base_report, variant, &variant_report, Some(exact.placement.value),
                );
                prop_assert!(verdict.is_ok(), "{:?}", verdict);
            }
        }

        let herd = ColoredInstance::new(dyadic_sites::<2>(seed, n, 5), RangeShape::ball(1.25));
        let exact = colored_report(&registry, "exact-colored-disk-enum", &herd, threads);
        for solver in ["exact-colored-disk-union", "approx-colored-disk-sampling"] {
            let base_report = colored_report(&registry, solver, &herd, threads);
            for variant in &colored_variants(&herd, seed) {
                let variant_report = colored_report(&registry, solver, &variant.instance, threads);
                let verdict = verify_colored(
                    &herd, &base_report, variant, &variant_report, Some(exact.placement.distinct),
                );
                prop_assert!(verdict.is_ok(), "{:?}", verdict);
            }
        }
    }
}
