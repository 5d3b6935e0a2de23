//! What a cached static sample set costs.
//!
//! Theorems 1.2 and 1.5 report the deepest sample and nothing else, so the
//! shared index keeps that answer, not the set: a cached key costs about a
//! hundred bytes, and a build holds at most the smaller of its incidence
//! list and the flat set it replaces.  This binary's global allocator
//! counts the bytes live in the whole process and their peak, and its
//! tests run one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};

use mrs_core::config::SamplingConfig;
use mrs_core::engine::SharedIndex;
use mrs_core::technique1::weighted_sample_set;
use mrs_geom::{Ball, ColoredSite, Point, ShiftedGrids, WeightedPoint};
use rand::prelude::*;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE` has been since the last [`measure`] began.
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// One measurement at a time: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

fn grew(bytes: isize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; the counters only observe the
// sizes and publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result, the bytes it left allocated and the
/// most it held at once.
fn measure<T>(f: impl FnOnce() -> T) -> (T, isize, isize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let value = f();
    let left = LIVE.load(Ordering::Relaxed) - before;
    (value, left, PEAK.load(Ordering::Relaxed) - before)
}

const KIB: isize = 1024;
const MIB: isize = 1024 * KIB;

/// 2,000 points shaped like the served planar set: 12 clusters, each ±3
/// around a center in a 100×100 square, weights 0.5–3, 50 colors.
fn planar_set() -> (Vec<WeightedPoint<2>>, Vec<ColoredSite<2>>) {
    let mut rng = StdRng::seed_from_u64(2025);
    let centers: Vec<(f64, f64)> =
        (0..12).map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0))).collect();
    let mut points = Vec::new();
    let mut sites = Vec::new();
    for i in 0..2_000 {
        let (cx, cy) = centers[rng.gen_range(0..centers.len())];
        let p = Point::new([cx + rng.gen_range(-3.0..3.0), cy + rng.gen_range(-3.0..3.0)]);
        points.push(WeightedPoint::new(p, rng.gen_range(0.5..3.0)));
        sites.push(ColoredSite::new(p, i % 50));
    }
    (points, sites)
}

/// At `r = 1` the planar set's sample sets have about 48,000 cells of 64
/// samples, 92 MiB each; the index keeps each one's answer.
#[test]
fn a_cached_planar_sample_set_costs_its_answer() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (points, sites) = planar_set();
    let index = SharedIndex::new(Arc::from(points), Arc::from(sites));
    let config = SamplingConfig::practical(0.25).with_seed(1);

    let (weighted, left, peak) = measure(|| index.weighted_sample_set(1.0, &config));
    assert!(weighted.cells > 40_000, "{} cells", weighted.cells);
    assert!(left <= 64 * KIB, "the weighted set left {left} bytes allocated");
    assert!(peak <= 24 * MIB, "the weighted build peaked at {peak} bytes");

    let (colored, left, peak) = measure(|| index.colored_sample_set(1.0, &config));
    assert_eq!(colored.cells, weighted.cells, "one set of dual balls");
    assert!(left <= 64 * KIB, "the colored set left {left} bytes allocated");
    assert!(peak <= 24 * MIB, "the colored build peaked at {peak} bytes");
}

/// 20,000 line points in 20 clusters at `r = 12.5`: about 840 balls a
/// cell, so the incidence list would outweigh the flat set about three
/// times over, and the build goes ball by ball instead.
#[test]
fn a_dense_static_build_holds_less_than_its_incidence_list() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(2025);
    let centers: Vec<f64> = (0..20).map(|_| rng.gen_range(0.0..1_000.0)).collect();
    let points: Vec<WeightedPoint<1>> = (0..20_000)
        .map(|_| {
            let c = centers[rng.gen_range(0..centers.len())];
            WeightedPoint::new(
                Point::new([c + rng.gen_range(-15.0..15.0)]),
                rng.gen_range(0.5..3.0),
            )
        })
        .collect();
    let (radius, config) = (12.5, SamplingConfig::practical(0.25).with_seed(1));

    // The (ball, cell) incidences the cell-by-cell order would lay out.
    let grids = ShiftedGrids::<1>::with_limit(config.grid_side(1), config.grid_delta(), 8);
    let mut incidences = 0isize;
    for wp in &points {
        let ball = Ball::unit(wp.point.scale(1.0 / radius));
        for grid in grids.grids() {
            grid.for_each_cell_intersecting_ball(&ball, |_| incidences += 1);
        }
    }
    let list_bytes = 4 * incidences;
    assert!(list_bytes > 3 * MIB, "the incidence list would take {list_bytes} bytes");

    let (built, _, peak) = measure(|| weighted_sample_set(&points, radius, config));
    assert!(built.best.is_some());
    assert!(peak < list_bytes, "the dense build peaked at {peak} bytes, list {list_bytes}");
}
