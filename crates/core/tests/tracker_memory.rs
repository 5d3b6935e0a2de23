//! A resident Theorem 1.1 tracker stays flat under balanced churn.
//!
//! Inserting records and then deleting them leaves the live count inside
//! the tracker's epoch window, so no rebuild ever resets the structure.
//! Whatever an update allocates must therefore be freed or reused by later
//! updates.  This binary holds one test, and its global allocator counts
//! the bytes live in the whole process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use mrs_core::config::SamplingConfig;
use mrs_core::technique1::{DynamicBallMaxRS, PointId};
use mrs_geom::Point;
use rand::prelude::*;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; the counter only observes the
// sizes and publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
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
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Points are drawn from `[0, EXTENT)`; at radius 2.5 the 2,000 initial
/// points already touch every cell an insert can reach.
const EXTENT: f64 = 500.0;

/// One round: 16 inserts, then their 16 removes, then one read.
fn churn(tracker: &mut DynamicBallMaxRS<1>, rng: &mut StdRng) {
    let mut ids: [PointId; 16] = [0; 16];
    for id in &mut ids {
        *id = tracker.insert(Point::new([rng.gen_range(0.0..EXTENT)]), rng.gen_range(0.5..3.0));
    }
    for id in ids {
        assert!(tracker.remove(id));
    }
    assert!(tracker.best().is_some());
}

#[test]
fn a_resident_tracker_stays_flat_under_balanced_churn() {
    let mut rng = StdRng::seed_from_u64(2025);
    // Sixteen samples a cell keep the 38,400 churned updates fast in debug.
    let mut config = SamplingConfig::practical(0.25).with_seed(3);
    config.max_samples_per_cell = 16;
    let mut tracker = DynamicBallMaxRS::<1>::new(2.5, config);
    for _ in 0..2_000 {
        tracker.insert(Point::new([rng.gen_range(0.0..EXTENT)]), rng.gen_range(0.5..3.0));
    }
    for _ in 0..200 {
        churn(&mut tracker, &mut rng);
    }
    let epochs = tracker.epochs();
    let warm = LIVE.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        churn(&mut tracker, &mut rng);
    }
    let grew = LIVE.load(Ordering::Relaxed) - warm;
    assert_eq!(tracker.epochs(), epochs, "balanced churn must not start an epoch");
    assert!(grew <= 64 * 1024, "grew by {grew} bytes over 1,000 rounds of balanced churn");
}
