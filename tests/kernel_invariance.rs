//! Lane-width invariance of the CSR filter kernels.
//!
//! The three kernel modes (`ScalarF64`, `LanedF64`, `SieveF32`, see
//! `mrs_geom::kernels`) are *exact*: for any point set, radius and query —
//! including coordinates snapped exactly onto the query boundary — they must
//! produce bit-identical hit sequences, bit-identical solver placements, and
//! identical work counters, with `sieve_rejected` as the only mode-dependent
//! number.  These tests A/B the modes over the grid queries and over the
//! planar solvers, at one and at several threads; any rounding shortcut
//! smuggled into a laned kernel, or any chunk merge that changes a
//! tie-break, fails here deterministically.

use std::sync::{Mutex, MutexGuard};

use maxrs::core::exact::disk2d::{max_disk_placement_chunked, DiskSweepStats};
use maxrs::core::exact::exact_colored_rect_chunked;
use maxrs::core::input::parse_point_set_csv;
use maxrs::core::technique2::output_sensitive_colored_disk_chunked;
use maxrs::geom::kernels::{kernel_mode, set_kernel_mode, KernelMode};
use maxrs::geom::{ColoredSite, GridQueryStats, HashGrid, Point2, WeightedPoint};
use proptest::prelude::*;
use rand::prelude::*;

const MODES: [KernelMode; 3] = [KernelMode::ScalarF64, KernelMode::LanedF64, KernelMode::SieveF32];

/// The kernel mode is process-global, so the tests in this binary serialize
/// their A/B runs through one lock and restore the previous mode on drop.
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

/// `stats` with the one legitimately mode-dependent counter cleared.
fn modulo_sieve(mut stats: GridQueryStats) -> GridQueryStats {
    stats.sieve_rejected = 0;
    stats
}

fn disk_modulo_sieve(mut stats: DiskSweepStats) -> DiskSweepStats {
    stats.sieve_rejected = 0;
    stats
}

proptest! {
    /// Raw grid queries: same hits, in the same order, with the same
    /// `cells`/`candidates` counters under every mode.  A fraction of the
    /// points is snapped to lie *exactly* at distance `radius` from another
    /// point — the adversarial case for the widened f32 sieve, which must
    /// keep every true boundary hit.
    #[test]
    fn grid_queries_are_lane_width_invariant(
        coords in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..120),
        snaps in proptest::collection::vec((0usize..120, 0usize..16), 0..24),
        radius in 0.05f64..12.0,
        cell_scale in 0.4f64..2.5,
    ) {
        let _guard = ModeGuard::acquire();
        let mut points: Vec<Point2> =
            coords.iter().map(|&(x, y)| Point2::xy(x, y)).collect();
        for &(anchor, angle_idx) in &snaps {
            let a = points[anchor % points.len()];
            let theta = angle_idx as f64 * std::f64::consts::TAU / 16.0;
            points.push(Point2::xy(
                a.x() + radius * theta.cos(),
                a.y() + radius * theta.sin(),
            ));
        }
        let index = HashGrid::build(radius * cell_scale, &points);
        let queries: Vec<Point2> =
            points.iter().copied().take(8).chain([Point2::xy(0.0, 0.0)]).collect();

        let mut reference: Option<(Vec<usize>, GridQueryStats)> = None;
        for mode in MODES {
            set_kernel_mode(mode);
            let mut hits = Vec::new();
            let mut stats = GridQueryStats::default();
            for q in &queries {
                stats.merge(index.for_each_within(q, radius, |id| hits.push(id)));
            }
            if mode != KernelMode::SieveF32 {
                prop_assert_eq!(stats.sieve_rejected, 0, "{:?} must not sieve", mode);
            }
            prop_assert!(stats.sieve_rejected <= stats.candidates);
            match &reference {
                None => reference = Some((hits, modulo_sieve(stats))),
                Some((want_hits, want_stats)) => {
                    prop_assert_eq!(&hits, want_hits, "hits differ under {:?}", mode);
                    prop_assert_eq!(
                        &modulo_sieve(stats), want_stats,
                        "counters differ under {:?}", mode
                    );
                }
            }
        }
    }
}

/// Solver-level invariance: the exact disk sweep and the output-sensitive
/// colored solver return bit-identical placements and identical work
/// counters modulo `sieve_rejected` under every mode and at thread budgets
/// 1 and 3, and the colored rectangle sweep returns the same placement.
#[test]
fn planar_solvers_are_lane_width_invariant() {
    let _guard = ModeGuard::acquire();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for round in 0..6 {
        let n = rng.gen_range(30..160);
        let mut points: Vec<WeightedPoint<2>> = (0..n)
            .map(|_| {
                WeightedPoint::new(
                    Point2::xy(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)),
                    rng.gen_range(0.1..2.0),
                )
            })
            .collect();
        let radius = rng.gen_range(0.3..3.0);
        // Boundary-snapped pairs: exactly `radius` and exactly `2·radius`
        // apart (the sweep's phase-1 queries run at radius 2r).
        for k in 0..6 {
            let a = points[k * 3 % points.len()].point;
            let theta = k as f64 * std::f64::consts::TAU / 6.0;
            for dist in [radius, 2.0 * radius] {
                points.push(WeightedPoint::unit(Point2::xy(
                    a.x() + dist * theta.cos(),
                    a.y() + dist * theta.sin(),
                )));
            }
        }
        let sites: Vec<ColoredSite<2>> = points
            .iter()
            .map(|p| ColoredSite::new(p.point, (p.weight * 10.0) as usize % 12))
            .collect();
        let centers: Vec<Point2> = points.iter().map(|p| p.point).collect();
        let index = HashGrid::build(radius.max(1e-9), &centers);

        let mut disk_ref = None;
        let mut os_ref = None;
        let mut rect_ref = None;
        for mode in MODES {
            set_kernel_mode(mode);
            for threads in [1usize, 3] {
                let (placement, stats) =
                    max_disk_placement_chunked(&points, radius, &index, threads);
                if mode != KernelMode::SieveF32 {
                    assert_eq!(stats.sieve_rejected, 0, "{mode:?} must not sieve");
                }
                let key = (placement, disk_modulo_sieve(stats));
                match &disk_ref {
                    None => disk_ref = Some(key),
                    Some(want) => assert_eq!(
                        &key, want,
                        "disk sweep differs under {mode:?} x{threads} (round {round})"
                    ),
                }
                let (placement, stats) =
                    output_sensitive_colored_disk_chunked(&sites, radius, threads);
                let mut counters = stats;
                counters.grid_queries = modulo_sieve(counters.grid_queries);
                let key = (placement, counters);
                match &os_ref {
                    None => os_ref = Some(key),
                    Some(want) => assert_eq!(
                        &key, want,
                        "output-sensitive solver differs under {mode:?} x{threads} (round {round})"
                    ),
                }
                let key = exact_colored_rect_chunked(&sites, radius, 2.0 * radius, threads);
                match &rect_ref {
                    None => rect_ref = Some(key),
                    Some(want) => assert_eq!(
                        &key, want,
                        "colored rectangle sweep differs under {mode:?} x{threads} (round {round})"
                    ),
                }
            }
        }
    }

    // The rounds above are too small for the colored sweeps to split their
    // work; on the benchmark's 2,000-point planar set at its shapes, both
    // split three ways at a budget of 3.
    let csv = mrs_bench::serve::planar_csv(2_000, 2025);
    let sites = parse_point_set_csv(&csv).expect("generated CSV parses").sites;
    let mut reference = None;
    for mode in MODES {
        set_kernel_mode(mode);
        for threads in [1usize, 3] {
            let (placement, mut stats) =
                output_sensitive_colored_disk_chunked(&sites, 0.2, threads);
            stats.grid_queries = modulo_sieve(stats.grid_queries);
            let key = (placement, stats, exact_colored_rect_chunked(&sites, 0.3, 0.6, threads));
            match &reference {
                None => reference = Some(key),
                Some(want) => assert_eq!(
                    &key, want,
                    "colored sweeps differ under {mode:?} x{threads} on the planar set"
                ),
            }
        }
    }
}
