//! Long-lived shared spatial indexes over one point/site set.
//!
//! A [`SharedIndex`] has an owner-agnostic lifetime: each generation of a
//! [`VersionedDataset`](super::VersionedDataset) holds one, builds each
//! structure exactly once over the generation's whole lifetime, and hands
//! it to every batch the executor runs against that generation (see
//! [`VersionedView::index`](super::VersionedView::index)).
//!
//! All structures are built lazily and exactly once (interior mutability via
//! [`OnceLock`] cells, one per structure, and per-key cell maps), so the
//! type is safely shared across worker threads: `SharedIndex<D>` is
//! `Send + Sync` and every public method takes `&self`.  A map's lock is
//! held only to find a key's cell, never across a build, so a slow build
//! at one radius never stalls a lookup at another.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use mrs_geom::{ColoredSite, Fenwick, HashGrid, Point, WeightedPoint};

use super::instance::Finite;
use super::ProblemKind;
use crate::config::SamplingConfig;
use crate::exact::interval1d::{LinePoint, SortedLine};
use crate::technique1::{self, SampledBest};

/// The 1-D view of the shared point set: the sorted event list the Section 5
/// batched solver builds from, plus a Fenwick tree over the sorted weights
/// for `O(log n)` closed-interval weight queries.
///
/// The Fenwick tree deliberately duplicates what `SortedLine`'s prefix array
/// can answer: it is the *update-capable* form of the same index, so a
/// future dynamic batch (insertions/deletions between queries) reuses this
/// structure instead of rebuilding the prefix array per update.
struct LineIndex {
    line: SortedLine,
    /// Per-point weights in sorted-x order (`fenwick.range_sum(i, i)` without
    /// the log factor), used to classify boundary points during
    /// certification.
    weights: Vec<f64>,
    fenwick: Fenwick,
}

/// Spatial indexes over one shared point and site set, each built lazily and
/// exactly once, then reused by every query that runs against the set.
///
/// * [`Self::sorted_line`] — the sorted event list of the first coordinate
///   (the structure behind the Theorem 1.3 batched solver), with a Fenwick
///   tree over its weights for [`Self::interval_weight_bounds`];
/// * [`Self::point_grid`] / [`Self::site_grid`] — hash grids for ball
///   queries, one per distinct radius;
/// * [`Self::sorted_projection`] — per-axis point orders for the planar
///   sweeps;
/// * [`Self::weighted_sample_set`] / [`Self::colored_sample_set`] — what the
///   Technique-1 samplers report, one [`SampledBest`] per radius and
///   config: the deepest sample and the set's size, not the set.
///
/// A [`VersionedDataset`](super::VersionedDataset) keeps one per
/// generation (amortization across every batch the dataset ever serves,
/// from a one-shot `maxrs batch` to the `mrs_server` catalog), plus one
/// per changed version whose sorted orders are merged, not rebuilt.
pub struct SharedIndex<const D: usize> {
    points: Finite<WeightedPoint<D>>,
    sites: Finite<ColoredSite<D>>,
    line: OnceLock<LineIndex>,
    point_grids: Cells<u64, Arc<HashGrid<D>>>,
    site_grids: Cells<u64, Arc<HashGrid<D>>>,
    /// What each Technique-1 sample set reports, built once per
    /// `(radius, config, kind)` key.  The samplers report only the deepest
    /// sample, so no set is kept: about a hundred bytes a key, against the
    /// 92 MiB one planar set of 2,000 points allocates at `r = 1`.
    sample_sets: Cells<(SamplingKey, ProblemKind), Arc<SampledBest<D>>>,
    /// Point ids sorted by one coordinate (`(coordinate, id)` order), one
    /// array per axis — the shared substrate of the planar sweep solvers.
    projections: Cells<usize, Arc<[u32]>>,
    coord_scale: OnceLock<f64>,
    builds: AtomicUsize,
    build_time: Mutex<Duration>,
}

/// One build-once cell per key.  The map lock is held only to find or
/// insert a key's cell; the build runs in the cell after the lock is
/// released, so a second caller for the same key waits on that cell and
/// callers for other keys do not wait at all.
type Cells<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// Cache key of one per-radius sampling structure: the query radius and
/// every field of the [`SamplingConfig`] it was built with (bit-exact, so
/// two configs that would sample differently never share a structure).
/// A Technique-1 sample set's answer keys on it plus its [`ProblemKind`];
/// a resident dynamic tracker keys on it alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(super) struct SamplingKey {
    radius_bits: u64,
    eps_bits: u64,
    seed: u64,
    sample_constant_bits: u64,
    min_samples: usize,
    max_samples: usize,
    max_grids: Option<usize>,
}

impl SamplingKey {
    pub(super) fn new(radius: f64, config: &SamplingConfig) -> Self {
        // Destructured, so a new `SamplingConfig` field cannot be left out.
        let SamplingConfig {
            eps,
            seed,
            sample_constant,
            min_samples_per_cell,
            max_samples_per_cell,
            max_grids,
        } = *config;
        Self {
            radius_bits: radius.to_bits(),
            eps_bits: eps.to_bits(),
            seed,
            sample_constant_bits: sample_constant.to_bits(),
            min_samples: min_samples_per_cell,
            max_samples: max_samples_per_cell,
            max_grids,
        }
    }
}

impl<const D: usize> SharedIndex<D> {
    /// An index over the given shared point and site sets, checked once for
    /// finiteness here.  Nothing is built until a query asks for a
    /// structure.
    ///
    /// # Panics
    /// Panics, naming the record, if any coordinate or weight is not finite.
    pub fn new(points: Arc<[WeightedPoint<D>]>, sites: Arc<[ColoredSite<D>]>) -> Self {
        Self::over(Finite::checked(points), Finite::checked(sites))
    }

    /// An index over already-checked sets, in `O(1)`.
    pub(super) fn over(points: Finite<WeightedPoint<D>>, sites: Finite<ColoredSite<D>>) -> Self {
        Self {
            points,
            sites,
            line: OnceLock::new(),
            point_grids: Cells::default(),
            site_grids: Cells::default(),
            sample_sets: Cells::default(),
            projections: Cells::default(),
            coord_scale: OnceLock::new(),
            builds: AtomicUsize::new(0),
            build_time: Mutex::new(Duration::ZERO),
        }
    }

    /// Largest absolute coordinate across the indexed points and sites.
    /// Certification slack scales with this: the rounding carried by a
    /// reported center is relative to the coordinate magnitude, not to the
    /// query radius.
    pub fn coord_scale(&self) -> f64 {
        *self.coord_scale.get_or_init(|| {
            let mut scale = 0.0f64;
            for wp in self.points.iter() {
                for i in 0..D {
                    scale = scale.max(wp.point[i].abs());
                }
            }
            for s in self.sites.iter() {
                for i in 0..D {
                    scale = scale.max(s.point[i].abs());
                }
            }
            scale
        })
    }

    /// The weighted points the index was built over.
    pub fn points(&self) -> &[WeightedPoint<D>] {
        &self.points
    }

    /// The colored sites the index was built over.
    pub fn sites(&self) -> &[ColoredSite<D>] {
        &self.sites
    }

    /// The shared handle to the indexed point set (`O(1)` to clone): what
    /// [`WeightedInstance::from_shared`](super::WeightedInstance::from_shared)
    /// takes, so an instance queries exactly the set the index was built
    /// over.
    pub fn shared_points(&self) -> Finite<WeightedPoint<D>> {
        self.points.clone()
    }

    /// The shared handle to the indexed site set (`O(1)` to clone).
    pub fn shared_sites(&self) -> Finite<ColoredSite<D>> {
        self.sites.clone()
    }

    /// Structures built so far (sorted line and Fenwick tree count once
    /// each; every distinct-radius hash grid counts once).  Monotone over the
    /// index's lifetime — a resident index that has warmed up stops counting.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Total wall-clock time spent building structures.
    pub fn build_time(&self) -> Duration {
        *self.build_time.lock().expect("build-time lock poisoned")
    }

    fn record_build(&self, structures: usize, elapsed: Duration) {
        self.builds.fetch_add(structures, Ordering::Relaxed);
        *self.build_time.lock().expect("build-time lock poisoned") += elapsed;
    }

    /// The one get-or-build path: fills `cell` with `build` unless it is
    /// already filled (waiting if another caller is filling it), counting
    /// `structures` builds and the time spent.
    fn build_once<'a, V>(
        &self,
        cell: &'a OnceLock<V>,
        structures: usize,
        build: impl FnOnce() -> V,
    ) -> &'a V {
        cell.get_or_init(|| {
            let start = Instant::now();
            let value = build();
            self.record_build(structures, start.elapsed());
            value
        })
    }

    /// `key`'s cell in `cells`, inserted empty on first use.  The map lock
    /// is released on return, before anything is built in the cell.
    fn cell<K: Eq + Hash, V>(cells: &Cells<K, V>, key: K) -> Arc<OnceLock<V>> {
        Arc::clone(cells.lock().expect("index cell map lock poisoned").entry(key).or_default())
    }

    /// The structure under `key` in `cells`, built once by [`Self::build_once`].
    fn keyed<K: Eq + Hash, V: Clone>(
        &self,
        cells: &Cells<K, V>,
        key: K,
        build: impl FnOnce() -> V,
    ) -> V {
        self.build_once(&Self::cell(cells, key), 1, build).clone()
    }

    fn line_index(&self) -> &LineIndex {
        self.build_once(&self.line, 2, || {
            let line_points: Vec<LinePoint> =
                self.points.iter().map(|wp| LinePoint::new(wp.point[0], wp.weight)).collect();
            let line = SortedLine::new(&line_points);
            let weights: Vec<f64> = line.prefix().windows(2).map(|w| w[1] - w[0]).collect();
            let fenwick = Fenwick::from_values(&weights);
            LineIndex { line, weights, fenwick }
        })
    }

    /// The shared sorted event list over the points' first coordinate — the
    /// build the Section 5 batched interval solver amortizes.  Built on
    /// first use, meaningful for `D = 1` workloads.
    pub fn sorted_line(&self) -> &SortedLine {
        &self.line_index().line
    }

    /// Seeds the line index with an externally built [`SortedLine`] — the
    /// incremental path of a versioned dataset, which *merges* the previous
    /// generation's order with a small sorted delta in `O(n)` instead of
    /// re-sorting.  The per-point weights and the Fenwick tree are derived
    /// from the seeded line exactly as [`Self::sorted_line`] would derive
    /// them, so every downstream query is identical.  No-op (returns
    /// `false`) if the line was already built.
    pub(super) fn seed_sorted_line(&self, line: SortedLine) -> bool {
        let start = Instant::now();
        let weights: Vec<f64> = line.prefix().windows(2).map(|w| w[1] - w[0]).collect();
        let fenwick = Fenwick::from_values(&weights);
        let seeded = self.line.set(LineIndex { line, weights, fenwick }).is_ok();
        if seeded {
            self.record_build(2, start.elapsed());
        }
        seeded
    }

    /// Seeds the sorted projection for `axis` with an externally merged
    /// order (see [`Self::seed_sorted_line`] for the contract).  No-op if
    /// the projection was already built.
    pub(super) fn seed_projection(&self, axis: usize, order: Arc<[u32]>) -> bool {
        assert!(axis < D, "axis {axis} out of range for dimension {D}");
        assert_eq!(order.len(), self.points.len(), "one order entry per point");
        let seeded = Self::cell(&self.projections, axis).set(order).is_ok();
        if seeded {
            self.builds.fetch_add(1, Ordering::Relaxed);
        }
        seeded
    }

    /// The hash grid over the weighted points at cell side `radius`, built
    /// once per distinct radius.
    pub fn point_grid(&self, radius: f64) -> Arc<HashGrid<D>> {
        self.keyed(&self.point_grids, radius.to_bits(), || {
            let coords: Vec<Point<D>> = self.points.iter().map(|wp| wp.point).collect();
            Arc::new(HashGrid::build(radius, &coords))
        })
    }

    /// The hash grid over the colored sites at cell side `radius`, built
    /// once per distinct radius.
    pub fn site_grid(&self, radius: f64) -> Arc<HashGrid<D>> {
        self.keyed(&self.site_grids, radius.to_bits(), || {
            let coords: Vec<Point<D>> = self.sites.iter().map(|s| s.point).collect();
            Arc::new(HashGrid::build(radius, &coords))
        })
    }

    /// The point ids sorted by coordinate `axis` (ties by id), built once per
    /// axis — the shared sorted-projection substrate of the planar rectangle
    /// sweep (and any future sweep that needs one coordinate order).  The
    /// order comes from [`crate::exact::rect2d::sorted_order_by_axis`], the
    /// same function the per-query sweep sorts with, so the presorted path
    /// stays byte-identical by construction.
    pub fn sorted_projection(&self, axis: usize) -> Arc<[u32]> {
        assert!(axis < D, "axis {axis} out of range for dimension {D}");
        self.keyed(&self.projections, axis, || {
            crate::exact::rect2d::sorted_order_by_axis(&self.points, axis).into()
        })
    }

    /// What the Technique-1 *weighted* sample set for query radius `radius`
    /// under `config` reports ([`technique1::weighted_sample_set`] over the
    /// indexed points), built exactly once per `(radius, config)` and shared
    /// by every query that asks for it: `approx-static-ball`'s, and
    /// `dynamic-ball`'s when it does not read a resident tracker.
    pub fn weighted_sample_set(&self, radius: f64, config: &SamplingConfig) -> Arc<SampledBest<D>> {
        self.sample_set(radius, ProblemKind::Weighted, config, || {
            technique1::weighted_sample_set(&self.points, radius, *config)
        })
    }

    /// What the Technique-1 *colored* sample set for query radius `radius`
    /// under `config` reports ([`technique1::colored_sample_set`] over the
    /// indexed sites), built exactly once per `(radius, config)`.
    pub fn colored_sample_set(&self, radius: f64, config: &SamplingConfig) -> Arc<SampledBest<D>> {
        self.sample_set(radius, ProblemKind::Colored, config, || {
            technique1::colored_sample_set(&self.sites, radius, *config)
        })
    }

    fn sample_set(
        &self,
        radius: f64,
        kind: ProblemKind,
        config: &SamplingConfig,
        build: impl FnOnce() -> SampledBest<D>,
    ) -> Arc<SampledBest<D>> {
        self.keyed(
            &self.sample_sets,
            (SamplingKey::new(radius, config), kind),
            || Arc::new(build()),
        )
    }

    /// Lower/upper bounds on the weight in the closed interval `[lo, hi]`
    /// when endpoint comparisons may be off by `slack`: points deeper than
    /// `slack` inside count definitely, points within `slack` of an endpoint
    /// contribute their negative weight to the lower bound and their
    /// positive weight to the upper bound (correct under mixed-sign
    /// weights).  This is the certification primitive: a reported center
    /// carries rounding proportional to the coordinate magnitude, so exact
    /// boundary membership is not re-decidable.
    pub fn interval_weight_bounds(&self, lo: f64, hi: f64, slack: f64) -> (f64, f64) {
        let index = self.line_index();
        let xs = index.line.xs();
        let outer_a = xs.partition_point(|&v| v < lo - slack);
        let outer_b = xs.partition_point(|&v| v <= hi + slack);
        let inner_a = xs.partition_point(|&v| v < lo + slack).max(outer_a);
        let inner_b = xs.partition_point(|&v| v <= hi - slack).min(outer_b);
        let definite =
            if inner_a < inner_b { index.fenwick.range_sum(inner_a, inner_b - 1) } else { 0.0 };
        let mut lo_sum = definite;
        let mut hi_sum = definite;
        for i in (outer_a..inner_a).chain(inner_b.max(inner_a)..outer_b) {
            let w = index.weights[i];
            if w < 0.0 {
                lo_sum += w;
            } else {
                hi_sum += w;
            }
        }
        (lo_sum, hi_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_index_structures_are_built_once_per_radius() {
        let points: Arc<[WeightedPoint<1>]> = (0..64)
            .map(|i| WeightedPoint::new(Point::new([i as f64 * 0.25]), 1.0 + (i % 3) as f64))
            .collect::<Vec<_>>()
            .into();
        let index = SharedIndex::new(Arc::clone(&points), Vec::new().into());
        assert_eq!(index.builds(), 0);
        // The line index (sorted event list + Fenwick) builds once.
        let total: f64 = points.iter().map(|p| p.weight).sum();
        assert!((index.sorted_line().weight_in(-1.0, 1000.0) - total).abs() < 1e-9);
        let slab = index.sorted_line().weight_in(0.0, 0.5);
        let (lo, hi) = index.interval_weight_bounds(0.0, 0.5, 0.0);
        assert!((lo - slab).abs() < 1e-12 && (hi - slab).abs() < 1e-12, "{lo} {hi} vs {slab}");
        assert_eq!(index.builds(), 2);
        // Ball queries build one grid per distinct radius, then reuse it.
        let ball_weight = |center: f64, radius: f64| {
            let mut total = 0.0;
            index
                .point_grid(radius)
                .for_each_within(&Point::new([center]), radius, |id| total += points[id].weight);
            total
        };
        let _ = ball_weight(1.0, 0.5);
        let _ = ball_weight(2.0, 0.5);
        assert_eq!(index.builds(), 3);
        let _ = ball_weight(2.0, 0.75);
        assert_eq!(index.builds(), 4);
        // Sorted line slab and grid ball agree in 1-D.
        let a = index.sorted_line().weight_in(1.0, 3.0);
        let b = ball_weight(2.0, 1.0);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn a_build_at_one_radius_does_not_stall_reads_at_another() {
        use std::sync::mpsc;
        let points: Arc<[WeightedPoint<1>]> =
            (0..32).map(|i| WeightedPoint::unit(Point::new([i as f64]))).collect::<Vec<_>>().into();
        let index = SharedIndex::new(points, Vec::new().into());
        let config = SamplingConfig::new(0.25);
        let built = index.weighted_sample_set(2.0, &config);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (read_tx, read_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let index = &index;
            scope.spawn(move || {
                index.sample_set(1.0, ProblemKind::Weighted, &config, || {
                    started_tx.send(()).expect("the test waits for the build to start");
                    release_rx.recv().expect("the test releases the build");
                    technique1::weighted_sample_set(index.points(), 1.0, config)
                })
            });
            started_rx.recv().expect("the blocked build starts");
            scope.spawn(move || {
                let _ = read_tx.send(index.weighted_sample_set(2.0, &config));
            });
            let read = read_rx.recv_timeout(Duration::from_secs(5));
            release_tx.send(()).expect("the blocked build is still waiting");
            let ok = read.is_ok_and(|set| Arc::ptr_eq(&set, &built));
            assert!(ok, "a read at a built radius waited on another radius's build");
        });
        assert_eq!(index.builds(), 2);
    }

    #[test]
    fn every_sampling_key_field_selects_its_own_sample_set() {
        let points: Arc<[WeightedPoint<1>]> = (0..16)
            .map(|i| WeightedPoint::unit(Point::new([i as f64 * 0.5])))
            .collect::<Vec<_>>()
            .into();
        let sites: Arc<[ColoredSite<1>]> = (0..16)
            .map(|i| ColoredSite::new(Point::new([i as f64 * 0.5]), i % 3))
            .collect::<Vec<_>>()
            .into();
        let index = SharedIndex::new(points, sites);
        let base = SamplingConfig::new(0.25);
        // Each config differs from `base` in exactly one field.
        let configs = [
            base,
            SamplingConfig { eps: 0.2, ..base },
            SamplingConfig { seed: base.seed + 1, ..base },
            SamplingConfig { sample_constant: 2.0, ..base },
            SamplingConfig { min_samples_per_cell: base.min_samples_per_cell + 1, ..base },
            SamplingConfig { max_samples_per_cell: base.max_samples_per_cell + 1, ..base },
            SamplingConfig { max_grids: Some(2), ..base },
        ];
        let set = |radius: f64, kind: ProblemKind, config: &SamplingConfig| match kind {
            ProblemKind::Weighted => index.weighted_sample_set(radius, config),
            ProblemKind::Colored => index.colored_sample_set(radius, config),
        };
        let mut keys = Vec::new();
        for config in &configs {
            for kind in [ProblemKind::Weighted, ProblemKind::Colored] {
                keys.push((1.0, kind, *config));
            }
        }
        keys.push((2.0, ProblemKind::Weighted, base));
        let mut sets: Vec<Arc<SampledBest<1>>> = Vec::new();
        for (radius, kind, config) in &keys {
            let builds = index.builds();
            let built = set(*radius, *kind, config);
            assert_eq!(index.builds(), builds + 1, "{kind} r = {radius} {config:?}");
            assert!(sets.iter().all(|other| !Arc::ptr_eq(other, &built)), "{kind} {config:?}");
            sets.push(built);
        }
        let builds = index.builds();
        for ((radius, kind, config), built) in keys.iter().zip(&sets) {
            assert!(Arc::ptr_eq(&set(*radius, *kind, config), built), "{kind} {config:?}");
        }
        assert_eq!(index.builds(), builds, "repeating a key builds nothing");
    }

    #[test]
    fn weight_bounds_handle_boundary_and_signs() {
        let points: Arc<[WeightedPoint<1>]> = vec![
            WeightedPoint::new(Point::new([0.0]), 2.0),
            WeightedPoint::new(Point::new([1.0]), -1.0), // exactly on the hi endpoint
            WeightedPoint::new(Point::new([2.0]), 4.0),
        ]
        .into();
        let index = SharedIndex::new(Arc::clone(&points), Vec::new().into());
        let slack = 1e-9;
        // [0, 1]: the weight-2 point is definite; the -1 point sits on the
        // boundary, so it widens the bounds downward only.
        let (lo, hi) = index.interval_weight_bounds(0.0 - 0.5, 1.0, slack);
        assert!((lo - 1.0).abs() < 1e-9, "{lo}");
        assert!((hi - 2.0).abs() < 1e-9, "{hi}");
    }

    #[test]
    fn shared_handles_point_at_the_indexed_sets() {
        let points: Arc<[WeightedPoint<2>]> =
            vec![WeightedPoint::unit(mrs_geom::Point2::xy(0.0, 0.0))].into();
        let sites: Arc<[ColoredSite<2>]> = Vec::new().into();
        let index = SharedIndex::new(Arc::clone(&points), Arc::clone(&sites));
        assert!(std::ptr::eq(index.shared_points().as_ptr(), points.as_ptr()));
        assert!(std::ptr::eq(index.shared_sites().as_ptr(), sites.as_ptr()));
    }

    #[test]
    #[should_panic(expected = "record 1 has a non-finite coordinate or weight")]
    fn the_constructor_is_a_checked_door() {
        let points: Arc<[WeightedPoint<1>]> = vec![
            WeightedPoint::new(Point::new([0.0]), 1.0),
            WeightedPoint::new(Point::new([f64::NAN]), 1.0),
        ]
        .into();
        SharedIndex::new(points, Vec::new().into());
    }
}
