//! Versioned, updatable datasets with an incremental query path.
//!
//! Everything above the algorithms used to treat a dataset as an immutable
//! `Arc<[..]>` snapshot: any change meant replacing the dataset wholesale
//! and rebuilding every index from scratch (the server's *epoch bump*).
//! This module makes datasets mutable end-to-end while keeping queries
//! incremental:
//!
//! * a [`VersionedDataset`] is the engine's one dataset model: every batch
//!   runs against one of its views, and a static batch is simply version 1
//!   with an empty delta;
//! * it holds a **base generation** (an immutable
//!   snapshot with its own [`SharedIndex`]) plus an append-only **delta**
//!   (tombstone masks over the base and a small list of inserts) and a
//!   monotone `version` that bumps on every [`VersionedDataset::apply`];
//! * each version is queried through an immutable [`VersionedView`] —
//!   concurrent readers keep whatever view they fetched while writers
//!   install the next one (MVCC by `Arc` swap);
//! * view structures are **derived, not rebuilt**: the sorted event list
//!   and the planar sorted projections are produced by *merging* the base
//!   generation's cached orders with the sorted delta in `O(n)` (instead of
//!   an `O(n log n)` re-sort), and the exact solvers consume them through a
//!   per-version [`SharedIndex`] whose caches are seeded with the merged
//!   structures — answers are **byte-identical** to a from-scratch rebuild
//!   at every version;
//! * certification goes through a **delta overlay** on the base
//!   generation's CSR grids ([`mrs_geom::GridOverlay`]): base structure +
//!   linear scan of the small delta, so certifying an answer after an
//!   update never rebuilds a grid;
//! * the Theorem 1.1 [`DynamicBallMaxRS`] tracker is wired in as the
//!   *incrementally maintained* sample-set backend: every mutation updates
//!   the resident trackers in `O(ε^{-2d-2} log n)`, and approx-ball answers
//!   are read back with [`DynamicBallMaxRS::best`], a scan of the per-cell
//!   maxima that takes `&self` — they never rebuild at all;
//! * once the delta outgrows the base (`|delta| > α·n`), the dataset
//!   **compacts**: the live set is materialized into a fresh generation
//!   (canonical order, so live ids and cached orders stay consistent) and
//!   the delta resets.  Compaction cost is charged to the `≥ α·n` updates
//!   that caused it.
//!
//! The *canonical live order* at any version is: surviving base points in
//! base order, then surviving delta inserts in insertion order.  Every
//! derived structure (merged orders, materialized snapshots, compacted
//! generations) preserves it, which is what makes the byte-identity
//! guarantee provable: a merge of two streams that are each sorted
//! consistently with the full-rebuild comparator, tie-broken toward the
//! earlier canonical position, *is* the full-rebuild sort.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use mrs_geom::{ColoredSite, GridOverlay, OverlayHit, Point, WeightedPoint};

use super::batch::{BatchAnswer, BatchQuery, BatchStats};
use super::index::{SamplingKey, SharedIndex};
use super::instance::{Finite, FiniteRecord};
use crate::config::SamplingConfig;
use crate::exact::interval1d::{LinePoint, SortedLine};
use crate::input::Placement;
use crate::technique1::{DynamicBallMaxRS, PointId};

/// One mutation of a versioned dataset.
///
/// The shape mirrors one batch-CSV record: an insert carries a weighted
/// point and, optionally, a color — a colored insert adds both a weighted
/// point *and* a colored site at the same coordinates, exactly like a
/// 4-field CSV row.  A delete addresses the first live point (in canonical
/// order) whose coordinates match exactly; if a live site shares those
/// coordinates, the first such site is deleted too.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mutation<const D: usize> {
    /// Insert a weighted point (and, with a color, a colored site).
    Insert {
        /// The point and weight to add.
        point: WeightedPoint<D>,
        /// A color adds a site at the same coordinates (batch-CSV row
        /// semantics).
        color: Option<usize>,
    },
    /// Delete the first live point (and first live site, if any) at exactly
    /// these coordinates.
    Delete {
        /// Coordinates to match exactly.
        point: Point<D>,
    },
}

/// Tally of what a batch of mutations did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Points (and possibly sites) inserted.
    pub inserted: usize,
    /// Deletes that found and removed a live point.
    pub deleted: usize,
    /// Deletes whose coordinates matched no live point.
    pub missed: usize,
}

impl MutationOutcome {
    /// Accumulates another outcome.
    pub fn merge(&mut self, other: MutationOutcome) {
        self.inserted += other.inserted;
        self.deleted += other.deleted;
        self.missed += other.missed;
    }
}

/// What one [`VersionedDataset::apply`] call produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationReport {
    /// Per-mutation tally.
    pub outcome: MutationOutcome,
    /// The version the mutations created (monotone; every apply bumps it by
    /// one).
    pub version: u64,
    /// `true` if the delta outgrew the base and the dataset compacted into
    /// a fresh generation.
    pub compacted: bool,
}

/// One step of an interleaved update/query script (see
/// [`BatchExecutor::execute_script`](super::BatchExecutor::execute_script)).
#[derive(Clone, Debug, PartialEq)]
pub enum ScriptStep<const D: usize> {
    /// Answer one query at the dataset's current version.
    Query(BatchQuery<D>),
    /// Apply one mutation, bumping the version.
    Mutate(Mutation<D>),
}

/// The outcome of one script step, in step order.
#[derive(Clone, Debug)]
pub enum ScriptOutcome<const D: usize> {
    /// A query's answer, stamped with the version it was computed at and —
    /// when the executor certifies — whether the answer survived
    /// re-evaluation against exactly that version's contents.
    Answer {
        /// The dataset version the answer was computed at.
        version: u64,
        /// `Some(true)` = certified, `Some(false)` = contract violation,
        /// `None` = certification disabled (or the query failed).
        certified: Option<bool>,
        /// The answer itself.
        answer: BatchAnswer<D>,
    },
    /// A mutation's effect.
    Mutated {
        /// The version the mutation created.
        version: u64,
        /// What it did.
        outcome: MutationOutcome,
        /// Whether it triggered a compaction.
        compacted: bool,
    },
}

impl<const D: usize> ScriptOutcome<D> {
    /// The answer, if this step was a query.
    pub fn answer(&self) -> Option<&BatchAnswer<D>> {
        match self {
            ScriptOutcome::Answer { answer, .. } => Some(answer),
            ScriptOutcome::Mutated { .. } => None,
        }
    }

    /// The version this step observed or created.
    pub fn version(&self) -> u64 {
        match self {
            ScriptOutcome::Answer { version, .. } | ScriptOutcome::Mutated { version, .. } => {
                *version
            }
        }
    }

    /// The certification flag, if this step was a certified query.
    pub fn certified(&self) -> Option<bool> {
        match self {
            ScriptOutcome::Answer { certified, .. } => *certified,
            ScriptOutcome::Mutated { .. } => None,
        }
    }
}

/// The executor's response to a script: one outcome per step, in step
/// order, plus the aggregated batch statistics of the query segments.
#[derive(Clone, Debug)]
pub struct ScriptReport<const D: usize> {
    /// Per-step outcomes, indexed like the submitted steps.
    pub outcomes: Vec<ScriptOutcome<D>>,
    /// Statistics aggregated over every query segment.
    pub stats: BatchStats,
    /// Mutation steps applied.
    pub updates: usize,
    /// The dataset version after the last step.
    pub final_version: u64,
}

impl<const D: usize> ScriptReport<D> {
    /// `true` if every query answered successfully (mutations don't count).
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().filter_map(ScriptOutcome::answer).all(BatchAnswer::is_ok)
    }

    /// The answers in step order (queries only).
    pub fn answers(&self) -> impl Iterator<Item = &BatchAnswer<D>> {
        self.outcomes.iter().filter_map(ScriptOutcome::answer)
    }

    /// Per-query solver wall-time summary over the successful answers,
    /// matching [`super::BatchReport::per_query_latency`].
    pub fn per_query_latency(&self) -> super::LatencySummary {
        let samples: Vec<Duration> =
            self.answers().filter(|a| a.is_ok()).map(BatchAnswer::elapsed).collect();
        super::LatencySummary::from_durations(&samples)
    }
}

/// One immutable base generation: the snapshot the delta overlays, with its
/// own [`SharedIndex`] whose structures are built at most once per
/// generation and reused by every version until the next compaction.
struct Generation<const D: usize> {
    points: Finite<WeightedPoint<D>>,
    sites: Finite<ColoredSite<D>>,
    /// Stable per-point identity, preserved across compactions — the handle
    /// the dynamic trackers key their [`PointId`]s by.
    point_uids: Arc<[u64]>,
    index: Arc<SharedIndex<D>>,
    /// Stable-sort permutation of the base points by first coordinate (the
    /// merged-line substrate), built once per generation with exactly the
    /// comparison [`SortedLine::new`] sorts with.
    line_order: OnceLock<Arc<[u32]>>,
}

impl<const D: usize> Generation<D> {
    fn new(
        points: Finite<WeightedPoint<D>>,
        sites: Finite<ColoredSite<D>>,
        point_uids: Arc<[u64]>,
    ) -> Self {
        let index = Arc::new(SharedIndex::over(points.clone(), sites.clone()));
        Self { points, sites, point_uids, index, line_order: OnceLock::new() }
    }

    fn line_order(&self) -> &Arc<[u32]> {
        self.line_order.get_or_init(|| {
            let mut ids: Vec<u32> = (0..self.points.len() as u32).collect();
            // Stable sort by x, exactly like `SortedLine::new`; ids start
            // ascending, so ties keep canonical (input) order.
            ids.sort_by(|&a, &b| {
                self.points[a as usize].point[0]
                    .partial_cmp(&self.points[b as usize].point[0])
                    .expect("point coordinates are finite")
            });
            ids.into()
        })
    }
}

/// The append-only delta over one generation: tombstone masks for the base
/// arrays plus insert lists (which carry their own tombstones, so a delta
/// insert can be deleted again before the next compaction).
#[derive(Clone, Default)]
struct Overlay<const D: usize> {
    point_dead: Vec<bool>,
    point_delta: Vec<WeightedPoint<D>>,
    point_delta_uids: Vec<u64>,
    point_delta_dead: Vec<bool>,
    site_dead: Vec<bool>,
    site_delta: Vec<ColoredSite<D>>,
    site_delta_dead: Vec<bool>,
}

impl<const D: usize> Overlay<D> {
    fn empty(points: usize, sites: usize) -> Self {
        Self { point_dead: vec![false; points], site_dead: vec![false; sites], ..Self::default() }
    }

    fn is_clean(&self) -> bool {
        self.delta_size() == 0
    }

    /// Base tombstones set plus *every* delta log entry (alive or
    /// tombstoned), across points and sites — the quantity the compaction
    /// threshold compares against the live size.  Tombstoned delta entries
    /// count too: an insert-then-delete churn still grows the log every
    /// query path has to skip over, so it must eventually compact away.
    fn delta_size(&self) -> usize {
        let dead = |v: &[bool]| v.iter().filter(|&&d| d).count();
        dead(&self.point_dead)
            + dead(&self.site_dead)
            + self.point_delta.len()
            + self.site_delta.len()
    }

    /// Visits every live point in **canonical order** (surviving base
    /// points first, then surviving delta inserts) with its stable uid.
    /// This is the one definition of the live order; materialization,
    /// compaction and tracker creation all drive it, so they can never
    /// drift apart — which is what the byte-identity guarantee rests on.
    fn for_each_live_point(
        &self,
        generation: &Generation<D>,
        mut f: impl FnMut(&WeightedPoint<D>, u64),
    ) {
        for (i, wp) in generation.points.iter().enumerate() {
            if !self.point_dead[i] {
                f(wp, generation.point_uids[i]);
            }
        }
        for (j, wp) in self.point_delta.iter().enumerate() {
            if !self.point_delta_dead[j] {
                f(wp, self.point_delta_uids[j]);
            }
        }
    }

    /// Visits every live site in canonical order (see
    /// [`Overlay::for_each_live_point`]).
    fn for_each_live_site(&self, generation: &Generation<D>, mut f: impl FnMut(&ColoredSite<D>)) {
        for (i, site) in generation.sites.iter().enumerate() {
            if !self.site_dead[i] {
                f(site);
            }
        }
        for (j, site) in self.site_delta.iter().enumerate() {
            if !self.site_delta_dead[j] {
                f(site);
            }
        }
    }

    fn live_points(&self, base: usize) -> usize {
        base - self.point_dead.iter().filter(|&&d| d).count()
            + self.point_delta_dead.iter().filter(|&&d| !d).count()
    }

    fn live_sites(&self, base: usize) -> usize {
        base - self.site_dead.iter().filter(|&&d| d).count()
            + self.site_delta_dead.iter().filter(|&&d| !d).count()
    }
}

/// The materialized live snapshot of one version: shared points and sites
/// in canonical order.
type LiveSets<const D: usize> = (Finite<WeightedPoint<D>>, Finite<ColoredSite<D>>);

/// Per-version lazily derived structures.
#[derive(Default)]
struct Derived<const D: usize> {
    live: OnceLock<LiveSets<D>>,
    index: OnceLock<Arc<SharedIndex<D>>>,
    /// Alive delta entries flattened for overlay scans.
    delta_points: OnceLock<(Vec<Point<D>>, Vec<f64>)>,
    delta_sites: OnceLock<(Vec<Point<D>>, Vec<usize>)>,
    coord_scale: OnceLock<f64>,
}

/// An immutable view of a versioned dataset at one version.  Cloning is
/// `O(1)` (shared `Arc`s); every query structure is derived lazily, at most
/// once per version, and answers are identical to a from-scratch rebuild of
/// the live snapshot.
#[derive(Clone)]
pub struct VersionedView<const D: usize> {
    version: u64,
    generation: Arc<Generation<D>>,
    overlay: Arc<Overlay<D>>,
    derived: Arc<Derived<D>>,
}

impl<const D: usize> VersionedView<D> {
    /// The version this view observes (monotone across the dataset's
    /// lifetime; compaction does not change it — contents are identical).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Tombstones plus live delta entries at this version (0 right after a
    /// load or a compaction).
    pub fn delta_size(&self) -> usize {
        self.overlay.delta_size()
    }

    /// Live weighted points at this version.
    pub fn point_count(&self) -> usize {
        self.overlay.live_points(self.generation.points.len())
    }

    /// Live colored sites at this version.
    pub fn site_count(&self) -> usize {
        self.overlay.live_sites(self.generation.sites.len())
    }

    fn live(&self) -> &LiveSets<D> {
        self.derived.live.get_or_init(|| {
            if self.overlay.is_clean() {
                return (self.generation.points.clone(), self.generation.sites.clone());
            }
            let mut points =
                Vec::with_capacity(self.overlay.live_points(self.generation.points.len()));
            self.overlay.for_each_live_point(&self.generation, |wp, _| points.push(*wp));
            let mut sites =
                Vec::with_capacity(self.overlay.live_sites(self.generation.sites.len()));
            self.overlay.for_each_live_site(&self.generation, |site| sites.push(*site));
            (Finite::assembled(points), Finite::assembled(sites))
        })
    }

    /// The live point set at this version, materialized in canonical order
    /// at most once per version (`O(1)` when nothing changed since the last
    /// compaction — the generation's own set is reused).
    pub fn live_points(&self) -> Finite<WeightedPoint<D>> {
        self.live().0.clone()
    }

    /// The live site set at this version.
    pub fn live_sites(&self) -> Finite<ColoredSite<D>> {
        self.live().1.clone()
    }

    fn alive_delta_points(&self) -> &(Vec<Point<D>>, Vec<f64>) {
        self.derived.delta_points.get_or_init(|| {
            let o = &self.overlay;
            let mut coords = Vec::new();
            let mut weights = Vec::new();
            for (j, wp) in o.point_delta.iter().enumerate() {
                if !o.point_delta_dead[j] {
                    coords.push(wp.point);
                    weights.push(wp.weight);
                }
            }
            (coords, weights)
        })
    }

    fn alive_delta_sites(&self) -> &(Vec<Point<D>>, Vec<usize>) {
        self.derived.delta_sites.get_or_init(|| {
            let o = &self.overlay;
            let mut coords = Vec::new();
            let mut colors = Vec::new();
            for (j, s) in o.site_delta.iter().enumerate() {
                if !o.site_delta_dead[j] {
                    coords.push(s.point);
                    colors.push(s.color);
                }
            }
            (coords, colors)
        })
    }

    /// The [`SharedIndex`] queries at this version run against.  With a
    /// clean overlay this *is* the generation's resident index (no build at
    /// all); otherwise it is a per-version index over the live snapshot
    /// whose sorted event list (`D = 1`) and sorted projections (`D = 2`)
    /// are seeded by merging the generation's cached orders with the small
    /// sorted delta in `O(n)` — not rebuilt — so exact answers match a cold
    /// rebuild bit for bit.
    pub fn index(&self) -> Arc<SharedIndex<D>> {
        self.derive_index().0
    }

    /// [`Self::index`], plus what this call spent deriving it: the
    /// structures seeded and the time taken (none unless this call derived
    /// the per-version index).
    pub(super) fn derive_index(&self) -> (Arc<SharedIndex<D>>, usize, Duration) {
        let mut spent = (0, Duration::ZERO);
        let index = self.derived.index.get_or_init(|| {
            if self.overlay.is_clean() {
                return Arc::clone(&self.generation.index);
            }
            let start = Instant::now();
            let (points, sites) = self.live();
            let index = SharedIndex::over(points.clone(), sites.clone());
            if D == 1 {
                index.seed_sorted_line(self.merged_line());
            }
            if D == 2 {
                for axis in 0..D {
                    index.seed_projection(axis, self.merged_projection(axis));
                }
            }
            spent = (index.builds(), start.elapsed());
            Arc::new(index)
        });
        (Arc::clone(index), spent.0, spent.1)
    }

    /// Merges the generation's stable x-order with the sorted alive delta
    /// into the [`SortedLine`] a from-scratch
    /// [`SortedLine::new`] over the canonical live order would build —
    /// byte-identical, in `O(n + |delta| log |delta|)`.
    fn merged_line(&self) -> SortedLine {
        let o = &self.overlay;
        let base = &self.generation.points;
        let order = self.generation.line_order();
        let mut delta: Vec<LinePoint> = Vec::new();
        for (j, wp) in o.point_delta.iter().enumerate() {
            if !o.point_delta_dead[j] {
                delta.push(LinePoint::new(wp.point[0], wp.weight));
            }
        }
        // Stable sort by x, like `SortedLine::new`, so equal coordinates
        // keep insertion (canonical) order.
        delta.sort_by(|a, b| a.x.partial_cmp(&b.x).expect("finite coordinates"));
        let mut merged: Vec<LinePoint> =
            Vec::with_capacity(o.live_points(base.len()) /* = survivors + delta */);
        let mut di = 0usize;
        for &id in order.iter() {
            let id = id as usize;
            if o.point_dead[id] {
                continue;
            }
            let x = base[id].point[0];
            // Left preference on ties: the base survivor precedes any delta
            // insert in canonical order, and `<=` also resolves the
            // `-0.0`/`0.0` pair the way a stable sort (which compares them
            // equal) would.
            while di < delta.len() && delta[di].x < x {
                merged.push(delta[di]);
                di += 1;
            }
            merged.push(LinePoint::new(x, base[id].weight));
        }
        merged.extend_from_slice(&delta[di..]);
        SortedLine::from_sorted(&merged)
    }

    /// Merges the generation's `(coordinate, id)` projection with the
    /// sorted alive delta into exactly the order
    /// [`crate::exact::rect2d::sorted_order_by_axis`] would produce over
    /// the canonical live snapshot — byte-identical, in
    /// `O(n + |delta| log |delta|)`.
    fn merged_projection(&self, axis: usize) -> Arc<[u32]> {
        let o = &self.overlay;
        let base = &self.generation.points;
        let order = self.generation.index.sorted_projection(axis);
        // Live id of base id `i` is `i - dead_before[i]`.
        let mut dead_before = vec![0u32; base.len() + 1];
        for i in 0..base.len() {
            dead_before[i + 1] = dead_before[i] + u32::from(o.point_dead[i]);
        }
        let survivors = base.len() as u32 - dead_before[base.len()];
        // Alive delta entries, sorted by (coordinate, insertion order) —
        // their live ids are `survivors + position`, ascending with
        // insertion order, so this is the `(coordinate, id)` order.
        let mut delta: Vec<(f64, u32)> = Vec::new();
        let mut live = survivors;
        for (j, wp) in o.point_delta.iter().enumerate() {
            if !o.point_delta_dead[j] {
                delta.push((wp.point[axis], live));
                live += 1;
            }
        }
        delta.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut merged: Vec<u32> = Vec::with_capacity(live as usize);
        let mut di = 0usize;
        for &id in order.iter() {
            let id = id as usize;
            if o.point_dead[id] {
                continue;
            }
            let key = (base[id].point[axis], id as u32 - dead_before[id]);
            while di < delta.len()
                && delta[di].0.total_cmp(&key.0).then(delta[di].1.cmp(&key.1)).is_lt()
            {
                merged.push(delta[di].1);
                di += 1;
            }
            merged.push(key.1);
        }
        merged.extend(delta[di..].iter().map(|&(_, id)| id));
        merged.into()
    }

    /// Exact total weight inside the closed ball at `center`, answered
    /// through the delta overlay on the generation's per-radius grid (base
    /// CSR walk + linear delta scan; no rebuild).
    pub fn ball_weight(&self, center: &Point<D>, radius: f64) -> f64 {
        let grid = self.generation.index.point_grid(radius);
        let (coords, weights) = self.alive_delta_points();
        let overlay = GridOverlay::new(&grid, &self.overlay.point_dead, coords);
        let mut total = 0.0;
        overlay.for_each_within(center, radius, |hit| {
            total += match hit {
                OverlayHit::Base(i) => self.generation.points[i].weight,
                OverlayHit::Extra(j) => weights[j],
            };
        });
        total
    }
}

/// The certification surface: exact-recount *bounds* under endpoint slack
/// through the delta overlay on the base generation's structures, so
/// certifying an answer after an update never rebuilds an index.
impl<const D: usize> VersionedView<D> {
    /// The boundary slack of this view, `1e-9·(1 + s)` for the largest
    /// absolute coordinate `s` across the live points and sites.  Boundary
    /// membership is only re-decidable up to the rounding a reported center
    /// carries, which is relative to the coordinate magnitude, not to the
    /// query radius; so certification widens every boundary by this much,
    /// and the executor refuses a range no larger than it.
    pub(super) fn boundary_slack(&self) -> f64 {
        // The base scale may over-count tombstoned points; a larger scale
        // only widens the slack, which stays sound.
        let scale = *self.derived.coord_scale.get_or_init(|| {
            let mut scale = self.generation.index.coord_scale();
            for p in &self.alive_delta_points().0 {
                for i in 0..D {
                    scale = scale.max(p[i].abs());
                }
            }
            for p in &self.alive_delta_sites().0 {
                for i in 0..D {
                    scale = scale.max(p[i].abs());
                }
            }
            scale
        });
        1e-9 * (1.0 + scale)
    }

    /// The live points, for shapes with no shared structure (boxes).
    pub(super) fn points(&self) -> &[WeightedPoint<D>] {
        &self.live().0
    }

    /// The live sites, for shapes with no shared structure (boxes).
    pub(super) fn sites(&self) -> &[ColoredSite<D>] {
        &self.live().1
    }

    /// Bounds on the weight in the closed interval `[lo, hi]` (see
    /// [`SharedIndex::interval_weight_bounds`] for the contract).
    pub(super) fn interval_weight_bounds(&self, lo: f64, hi: f64, slack: f64) -> (f64, f64) {
        // The per-version index carries the merged (live) sorted line; with
        // a clean overlay this is the generation's own line.  Either way no
        // sort happens beyond the one-time merge.
        self.index().interval_weight_bounds(lo, hi, slack)
    }

    /// Bounds on the weight inside the closed ball at `center`.
    pub(super) fn ball_weight_bounds(
        &self,
        center: &Point<D>,
        radius: f64,
        slack: f64,
    ) -> (f64, f64) {
        let grid = self.generation.index.point_grid(radius);
        let (coords, weights) = self.alive_delta_points();
        let overlay = GridOverlay::new(&grid, &self.overlay.point_dead, coords);
        let r_in = (radius - slack).max(0.0);
        let mut definite = 0.0;
        let mut neg = 0.0;
        let mut pos = 0.0;
        overlay.for_each_within(center, radius + slack, |hit| {
            let (point, weight) = match hit {
                OverlayHit::Base(i) => {
                    (&self.generation.points[i].point, self.generation.points[i].weight)
                }
                OverlayHit::Extra(j) => (&coords[j], weights[j]),
            };
            if point.dist_sq(center) <= r_in * r_in {
                definite += weight;
            } else if weight < 0.0 {
                neg += weight;
            } else {
                pos += weight;
            }
        });
        (definite + neg, definite + pos)
    }

    /// Bounds on the distinct colors inside the closed ball at `center`.
    pub(super) fn ball_distinct_bounds(
        &self,
        center: &Point<D>,
        radius: f64,
        slack: f64,
    ) -> (usize, usize) {
        let grid = self.generation.index.site_grid(radius);
        let (coords, colors) = self.alive_delta_sites();
        let overlay = GridOverlay::new(&grid, &self.overlay.site_dead, coords);
        let r_in = (radius - slack).max(0.0);
        let mut definite: Vec<usize> = Vec::new();
        let mut boundary: Vec<usize> = Vec::new();
        overlay.for_each_within(center, radius + slack, |hit| {
            let (point, color) = match hit {
                OverlayHit::Base(i) => {
                    (&self.generation.sites[i].point, self.generation.sites[i].color)
                }
                OverlayHit::Extra(j) => (&coords[j], colors[j]),
            };
            if point.dist_sq(center) <= r_in * r_in {
                definite.push(color);
            } else {
                boundary.push(color);
            }
        });
        definite.sort_unstable();
        definite.dedup();
        let lo = definite.len();
        let mut all = definite;
        all.extend(boundary);
        all.sort_unstable();
        all.dedup();
        (lo, all.len())
    }
}

struct TrackerEntry<const D: usize> {
    tracker: DynamicBallMaxRS<D>,
    ids: HashMap<u64, PointId>,
}

/// A tracker-replayable form of one applied mutation.
enum TrackerOp<const D: usize> {
    Insert { uid: u64, point: Point<D>, weight: f64 },
    Remove { uid: u64 },
}

/// A mutable, versioned dataset: the owner of the current
/// [`VersionedView`], the resident dynamic trackers, and the compaction
/// policy.  All methods take `&self`.  Readers' critical sections are
/// `O(1)` view clones; the writer's ([`Self::apply`]) copies the overlay
/// masks and resolves coordinate deletes by linear scan, so one mutation
/// batch holds the write lock for `O(n)` bitmask-copy work (the benchmark's
/// `line-update` workload reports it as `versioned.apply_us`).
pub struct VersionedDataset<const D: usize> {
    current: RwLock<VersionedView<D>>,
    trackers: Mutex<HashMap<SamplingKey, TrackerEntry<D>>>,
    next_uid: AtomicU64,
    compactions: AtomicUsize,
    /// Total wall-clock time spent materializing compacted generations
    /// (nanoseconds; atomic so `/metrics` reads it without locking).
    compaction_time_ns: AtomicU64,
    /// Builds and build time of retired generations and per-version
    /// indexes, folded in as views are replaced so
    /// [`Self::builds`] stays monotone.
    retired_builds: AtomicUsize,
    retired_build_time: Mutex<Duration>,
    /// Monotone flag: set once any negative weight has ever been present,
    /// which disables the (non-negative-only) dynamic trackers.
    saw_negative: std::sync::atomic::AtomicBool,
    /// Compaction threshold: compact once `delta_size > alpha · live size`.
    alpha: f64,
}

impl<const D: usize> VersionedDataset<D> {
    /// Default compaction threshold: compact once the delta exceeds a
    /// quarter of the live size.
    pub const DEFAULT_COMPACTION_ALPHA: f64 = 0.25;

    /// A versioned dataset over the given initial snapshot, at version 1,
    /// checked once for finiteness here.
    ///
    /// # Panics
    /// Panics, naming the record, if any coordinate or weight is not finite.
    pub fn new(points: Vec<WeightedPoint<D>>, sites: Vec<ColoredSite<D>>) -> Self {
        Self::from_shared(Finite::checked(points), Finite::checked(sites))
    }

    /// A versioned dataset over already-checked shared sets, without
    /// copying them.
    pub fn from_shared(points: Finite<WeightedPoint<D>>, sites: Finite<ColoredSite<D>>) -> Self {
        let n = points.len();
        let saw_negative = points.iter().any(|wp| wp.weight < 0.0);
        let uids: Arc<[u64]> = (0..n as u64).collect::<Vec<_>>().into();
        let sites_len = sites.len();
        let generation = Arc::new(Generation::new(points, sites, uids));
        let view = VersionedView {
            version: 1,
            overlay: Arc::new(Overlay::empty(n, sites_len)),
            derived: Arc::new(Derived::default()),
            generation,
        };
        Self {
            current: RwLock::new(view),
            trackers: Mutex::new(HashMap::new()),
            next_uid: AtomicU64::new(n as u64),
            compactions: AtomicUsize::new(0),
            compaction_time_ns: AtomicU64::new(0),
            retired_builds: AtomicUsize::new(0),
            retired_build_time: Mutex::new(Duration::ZERO),
            saw_negative: std::sync::atomic::AtomicBool::new(saw_negative),
            alpha: Self::DEFAULT_COMPACTION_ALPHA,
        }
    }

    /// Overrides the compaction threshold `α` (compact once
    /// `|delta| > α·n`).
    ///
    /// # Panics
    /// Panics unless `α` is positive and finite.
    pub fn with_compaction_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "compaction alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// The current version's immutable view (`O(1)`; the view stays valid —
    /// and answers stay reproducible — however many mutations land after).
    pub fn view(&self) -> VersionedView<D> {
        self.current.read().expect("versioned dataset lock poisoned").clone()
    }

    /// The current version (monotone, starts at 1).
    pub fn version(&self) -> u64 {
        self.current.read().expect("versioned dataset lock poisoned").version
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> usize {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Total wall-clock time spent materializing compacted generations
    /// (monotone, like [`Self::compactions`]).
    pub fn compaction_time(&self) -> Duration {
        Duration::from_nanos(self.compaction_time_ns.load(Ordering::Relaxed))
    }

    /// Index structures built so far across every generation and version,
    /// including merged-structure seeds (monotone, like
    /// [`SharedIndex::builds`]).
    pub fn builds(&self) -> usize {
        let view = self.view();
        let mut builds =
            self.retired_builds.load(Ordering::Relaxed) + view.generation.index.builds();
        if let Some(index) = view.derived.index.get() {
            if !Arc::ptr_eq(index, &view.generation.index) {
                builds += index.builds();
            }
        }
        builds
    }

    /// Total wall-clock time spent building index structures, across every
    /// generation and version.
    pub fn build_time(&self) -> Duration {
        let view = self.view();
        let mut total = *self.retired_build_time.lock().expect("build-time lock poisoned")
            + view.generation.index.build_time();
        if let Some(index) = view.derived.index.get() {
            if !Arc::ptr_eq(index, &view.generation.index) {
                total += index.build_time();
            }
        }
        total
    }

    /// Folds a retiring view's distinct per-version index (if it ever
    /// materialized) into the monotone counters.
    fn retire_view(&self, view: &VersionedView<D>) {
        if let Some(index) = view.derived.index.get() {
            if !Arc::ptr_eq(index, &view.generation.index) {
                self.retired_builds.fetch_add(index.builds(), Ordering::Relaxed);
                *self.retired_build_time.lock().expect("build-time lock poisoned") +=
                    index.build_time();
            }
        }
    }

    /// Applies a batch of mutations as **one** new version (the mutation
    /// body of a `POST /datasets/{name}/insert` is one version bump, not
    /// one per record), updates every resident dynamic tracker
    /// incrementally, and compacts if the delta outgrew the base.
    ///
    /// # Panics
    /// Panics if an inserted coordinate or weight is not finite (the
    /// mutation parsers of `mrs_core::input` refuse those with typed,
    /// line-numbered errors first).
    pub fn apply(&self, mutations: &[Mutation<D>]) -> MutationReport {
        let mut current = self.current.write().expect("versioned dataset lock poisoned");
        let generation = Arc::clone(&current.generation);
        let mut overlay = (*current.overlay).clone();
        let mut outcome = MutationOutcome::default();
        let mut ops: Vec<TrackerOp<D>> = Vec::with_capacity(mutations.len());
        for mutation in mutations {
            match mutation {
                Mutation::Insert { point: wp, color } => {
                    assert!(FiniteRecord::is_finite(wp), "inserted records must be finite");
                    if wp.weight < 0.0 {
                        self.saw_negative.store(true, Ordering::Relaxed);
                    }
                    let uid = self.next_uid.fetch_add(1, Ordering::Relaxed);
                    overlay.point_delta.push(*wp);
                    overlay.point_delta_uids.push(uid);
                    overlay.point_delta_dead.push(false);
                    ops.push(TrackerOp::Insert { uid, point: wp.point, weight: wp.weight });
                    if let Some(color) = color {
                        overlay.site_delta.push(ColoredSite::new(wp.point, *color));
                        overlay.site_delta_dead.push(false);
                    }
                    outcome.inserted += 1;
                }
                Mutation::Delete { point } => match kill_point(&generation, &mut overlay, point) {
                    Some(uid) => {
                        ops.push(TrackerOp::Remove { uid });
                        kill_site(&generation, &mut overlay, point);
                        outcome.deleted += 1;
                    }
                    None => outcome.missed += 1,
                },
            }
        }
        let version = current.version + 1;
        self.retire_view(&current);

        let live_points = overlay.live_points(generation.points.len());
        let live_sites = overlay.live_sites(generation.sites.len());
        let live = (live_points + live_sites).max(1);
        let compacted = overlay.delta_size() as f64 > self.alpha * live as f64;
        let next = if compacted {
            // Materialize the canonical live order into a fresh generation;
            // live ids, uids and every derived order stay consistent.
            let compact_start = Instant::now();
            self.retired_builds.fetch_add(generation.index.builds(), Ordering::Relaxed);
            *self.retired_build_time.lock().expect("build-time lock poisoned") +=
                generation.index.build_time();
            self.compactions.fetch_add(1, Ordering::Relaxed);
            let mut points = Vec::with_capacity(live_points);
            let mut uids = Vec::with_capacity(live_points);
            overlay.for_each_live_point(&generation, |wp, uid| {
                points.push(*wp);
                uids.push(uid);
            });
            let mut sites = Vec::with_capacity(live_sites);
            overlay.for_each_live_site(&generation, |site| sites.push(*site));
            let generation = Arc::new(Generation::new(
                Finite::assembled(points),
                Finite::assembled(sites),
                uids.into(),
            ));
            let view = VersionedView {
                version,
                overlay: Arc::new(Overlay::empty(live_points, live_sites)),
                derived: Arc::new(Derived::default()),
                generation,
            };
            self.compaction_time_ns
                .fetch_add(compact_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            view
        } else {
            VersionedView {
                version,
                overlay: Arc::new(overlay),
                derived: Arc::new(Derived::default()),
                generation,
            }
        };
        *current = next;

        // Update the resident trackers under the write lock, so a tracker
        // answer is always consistent with the version the reader fetched.
        let mut trackers = self.trackers.lock().expect("tracker lock poisoned");
        if self.saw_negative.load(Ordering::Relaxed) {
            // Trackers require non-negative weights; drop them (they would
            // be stale) and let lazy creation refuse while the flag holds.
            trackers.clear();
        } else {
            for entry in trackers.values_mut() {
                for op in &ops {
                    match op {
                        TrackerOp::Insert { uid, point, weight } => {
                            let id = entry.tracker.insert(*point, *weight);
                            entry.ids.insert(*uid, id);
                        }
                        TrackerOp::Remove { uid } => {
                            if let Some(id) = entry.ids.remove(uid) {
                                entry.tracker.remove(id);
                            }
                        }
                    }
                }
            }
        }
        drop(trackers);
        drop(current);
        MutationReport { outcome, version, compacted }
    }

    /// The incrementally maintained `(1/2 − ε)`-approximate ball answer at
    /// the **current** version: the resident [`DynamicBallMaxRS`] tracker
    /// for `(radius, config)` is created once, as one epoch over the live
    /// snapshot ([`DynamicBallMaxRS::from_points`]), updated by every later
    /// mutation, and read here with
    /// [`DynamicBallMaxRS::best`] — this path never rebuilds a sampling
    /// structure.  The reported value is the exact covered weight of the
    /// reported center, recounted through the delta overlay.
    ///
    /// Returns the view the answer is valid at alongside the placement.
    /// `None` when the dataset has (ever) carried negative weights — the
    /// tracker requires non-negative ones, matching the `dynamic-ball`
    /// solver's typed refusal.
    pub fn dynamic_ball_best(
        &self,
        radius: f64,
        config: &SamplingConfig,
    ) -> Option<(VersionedView<D>, Placement<D>)> {
        let current = self.current.read().expect("versioned dataset lock poisoned");
        let placement = self.tracker_best(&current, radius, config)?;
        Some((current.clone(), placement))
    }

    /// [`Self::dynamic_ball_best`] pinned to `view`: `None` as well when a
    /// mutation has moved the dataset past `view` (the trackers follow the
    /// current version only).
    pub(super) fn dynamic_ball_at(
        &self,
        view: &VersionedView<D>,
        radius: f64,
        config: &SamplingConfig,
    ) -> Option<Placement<D>> {
        let current = self.current.read().expect("versioned dataset lock poisoned");
        if current.version != view.version {
            return None;
        }
        self.tracker_best(&current, radius, config)
    }

    /// Reads the tracker for `(radius, config)` at `current`, which the
    /// caller holds the state read lock on.  Lock order: state read, then
    /// trackers — the same order `apply` takes (write, then trackers), so
    /// the tracker can never be newer than `current`.
    fn tracker_best(
        &self,
        current: &VersionedView<D>,
        radius: f64,
        config: &SamplingConfig,
    ) -> Option<Placement<D>> {
        // The flag must be read *under* the lock: a concurrent apply() that
        // inserts a negative weight sets it before installing the new view,
        // so whatever view the caller holds is consistently either all
        // non-negative or refused here.
        if self.saw_negative.load(Ordering::Relaxed) {
            return None;
        }
        let mut trackers = self.trackers.lock().expect("tracker lock poisoned");
        let entry = trackers.entry(SamplingKey::new(radius, config)).or_insert_with(|| {
            let mut points = Vec::new();
            let mut uids = Vec::new();
            current.overlay.for_each_live_point(&current.generation, |wp, uid| {
                points.push(*wp);
                uids.push(uid);
            });
            // One epoch over the live set: point `i` gets handle `i`.
            let tracker = DynamicBallMaxRS::from_points(radius, *config, &points);
            TrackerEntry { tracker, ids: uids.into_iter().zip(0..).collect() }
        });
        Some(match entry.tracker.best() {
            None => Placement::empty(),
            // Certify the report: the engine contract is that reported
            // values are the exact coverage of the returned center.
            Some(approx) => Placement {
                center: approx.center,
                value: current.ball_weight(&approx.center, radius),
            },
        })
    }
}

/// Tombstones the first live point (canonical order) at exactly `point`,
/// returning its uid.
fn kill_point<const D: usize>(
    generation: &Generation<D>,
    overlay: &mut Overlay<D>,
    point: &Point<D>,
) -> Option<u64> {
    for (i, wp) in generation.points.iter().enumerate() {
        if !overlay.point_dead[i] && wp.point == *point {
            overlay.point_dead[i] = true;
            return Some(generation.point_uids[i]);
        }
    }
    for (j, wp) in overlay.point_delta.iter().enumerate() {
        if !overlay.point_delta_dead[j] && wp.point == *point {
            overlay.point_delta_dead[j] = true;
            return Some(overlay.point_delta_uids[j]);
        }
    }
    None
}

/// Tombstones the first live site (canonical order) at exactly `point`, if
/// any.
fn kill_site<const D: usize>(
    generation: &Generation<D>,
    overlay: &mut Overlay<D>,
    point: &Point<D>,
) {
    for (i, s) in generation.sites.iter().enumerate() {
        if !overlay.site_dead[i] && s.point == *point {
            overlay.site_dead[i] = true;
            return;
        }
    }
    for (j, s) in overlay.site_delta.iter().enumerate() {
        if !overlay.site_delta_dead[j] && s.point == *point {
            overlay.site_delta_dead[j] = true;
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::rect2d::sorted_order_by_axis;
    use mrs_geom::Point2;
    use rand::prelude::*;

    fn wp(x: f64, y: f64, w: f64) -> WeightedPoint<2> {
        WeightedPoint::new(Point2::xy(x, y), w)
    }

    #[test]
    fn starts_at_version_one_with_a_clean_overlay() {
        let dataset = VersionedDataset::new(vec![wp(0.0, 0.0, 1.0)], Vec::new());
        assert_eq!(dataset.version(), 1);
        assert_eq!(dataset.compactions(), 0);
        let view = dataset.view();
        assert_eq!(view.delta_size(), 0);
        assert_eq!(view.point_count(), 1);
        // A clean overlay reuses the generation's resident index verbatim.
        assert!(Arc::ptr_eq(&view.index(), &view.index()));
        assert!(std::ptr::eq(&*view.live_points(), &*dataset.view().live_points()));
    }

    #[test]
    fn inserts_deletes_and_versions() {
        let dataset = VersionedDataset::new(vec![wp(0.0, 0.0, 1.0), wp(1.0, 0.0, 2.0)], Vec::new());
        let report = dataset.apply(&[
            Mutation::Insert { point: wp(2.0, 0.0, 3.0), color: Some(7) },
            Mutation::Delete { point: Point2::xy(0.0, 0.0) },
            Mutation::Delete { point: Point2::xy(42.0, 0.0) },
        ]);
        assert_eq!(report.version, 2);
        assert_eq!(report.outcome, MutationOutcome { inserted: 1, deleted: 1, missed: 1 });
        let view = dataset.view();
        assert_eq!(view.point_count(), 2);
        assert_eq!(view.site_count(), 1, "a colored insert adds a site too");
        let live = view.live_points();
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].point, Point2::xy(1.0, 0.0), "canonical order: survivors first");
        assert_eq!(live[1].point, Point2::xy(2.0, 0.0));
        // Old views stay valid (MVCC): a view fetched before the mutation
        // still sees version 1's contents.
        let old = VersionedDataset::new(vec![wp(0.0, 0.0, 1.0)], Vec::new());
        let before = old.view();
        old.apply(&[Mutation::Delete { point: Point2::xy(0.0, 0.0) }]);
        assert_eq!(before.point_count(), 1);
        assert_eq!(old.view().point_count(), 0);
    }

    #[test]
    fn delete_then_reinsert_at_the_same_coordinates() {
        let dataset = VersionedDataset::new(vec![wp(1.0, 1.0, 5.0)], Vec::new());
        dataset.apply(&[Mutation::Delete { point: Point2::xy(1.0, 1.0) }]);
        assert_eq!(dataset.view().point_count(), 0);
        dataset.apply(&[Mutation::Insert { point: wp(1.0, 1.0, 2.0), color: None }]);
        let view = dataset.view();
        assert_eq!(view.point_count(), 1);
        assert_eq!(view.live_points()[0].weight, 2.0, "the reinsert is a new point");
        // Deleting again removes the delta insert, not the tombstoned base.
        dataset.apply(&[Mutation::Delete { point: Point2::xy(1.0, 1.0) }]);
        assert_eq!(dataset.view().point_count(), 0);
    }

    #[test]
    fn merged_structures_match_a_from_scratch_rebuild() {
        let mut rng = StdRng::seed_from_u64(11);
        let base: Vec<WeightedPoint<2>> = (0..60)
            .map(|_| {
                wp(
                    (rng.gen_range(0..40) as f64) * 0.25, // many coordinate ties
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.5..2.0),
                )
            })
            .collect();
        let dataset = VersionedDataset::new(base.clone(), Vec::new());
        for step in 0..25 {
            if rng.gen_bool(0.5) {
                dataset.apply(&[Mutation::Insert {
                    point: wp((rng.gen_range(0..40) as f64) * 0.25, rng.gen_range(0.0..10.0), 1.0),
                    color: None,
                }]);
            } else {
                let view = dataset.view();
                let live = view.live_points();
                if !live.is_empty() {
                    let victim = live[rng.gen_range(0..live.len())].point;
                    dataset.apply(&[Mutation::Delete { point: victim }]);
                }
            }
            let view = dataset.view();
            let live = view.live_points();
            // Projections: merged order equals the full re-sort, bit for bit.
            let index = view.index();
            for axis in 0..2 {
                let merged = index.sorted_projection(axis);
                let rebuilt = sorted_order_by_axis(&live, axis);
                assert_eq!(&merged[..], &rebuilt[..], "axis {axis} at step {step}");
            }
        }
    }

    #[test]
    fn merged_line_matches_a_from_scratch_rebuild_in_1d() {
        let mut rng = StdRng::seed_from_u64(12);
        let base: Vec<WeightedPoint<1>> = (0..50)
            .map(|_| {
                WeightedPoint::new(
                    Point::new([(rng.gen_range(0..30) as f64) * 0.5]),
                    rng.gen_range(0.5..2.0),
                )
            })
            .collect();
        let dataset = VersionedDataset::new(base, Vec::new());
        for _ in 0..20 {
            if rng.gen_bool(0.5) {
                dataset.apply(&[Mutation::Insert {
                    point: WeightedPoint::new(
                        Point::new([(rng.gen_range(0..30) as f64) * 0.5]),
                        rng.gen_range(0.5..2.0),
                    ),
                    color: None,
                }]);
            } else {
                let live = dataset.view().live_points();
                if !live.is_empty() {
                    let victim = live[rng.gen_range(0..live.len())].point;
                    dataset.apply(&[Mutation::Delete { point: victim }]);
                }
            }
            let view = dataset.view();
            let live = view.live_points();
            let merged = view.index();
            let rebuilt = SortedLine::new(
                &live.iter().map(|p| LinePoint::new(p.point[0], p.weight)).collect::<Vec<_>>(),
            );
            assert_eq!(merged.sorted_line().xs(), rebuilt.xs());
            assert_eq!(merged.sorted_line().prefix(), rebuilt.prefix());
            // And the solved interval is byte-identical.
            let a = merged.sorted_line().max_interval(3.0);
            let b = rebuilt.max_interval(3.0);
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.interval.lo.to_bits(), b.interval.lo.to_bits());
        }
    }

    #[test]
    fn overlay_certification_bounds_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(13);
        let base: Vec<WeightedPoint<2>> = (0..80)
            .map(|_| wp(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0), rng.gen_range(0.5..2.0)))
            .collect();
        let dataset = VersionedDataset::new(base, Vec::new());
        for _ in 0..10 {
            dataset.apply(&[Mutation::Insert {
                point: wp(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0), 1.0),
                color: None,
            }]);
            let live = dataset.view().live_points();
            let victim = live[rng.gen_range(0..live.len())].point;
            dataset.apply(&[Mutation::Delete { point: victim }]);
        }
        let view = dataset.view();
        let live = view.live_points();
        for _ in 0..20 {
            let center = Point2::xy(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0));
            let radius = rng.gen_range(0.5..2.5);
            let brute: f64 = live
                .iter()
                .filter(|p| p.point.dist(&center) <= radius * (1.0 + 1e-12) + 1e-12)
                .map(|p| p.weight)
                .sum();
            let overlay = view.ball_weight(&center, radius);
            assert!((overlay - brute).abs() < 1e-9, "{overlay} vs {brute}");
            let (lo, hi) = view.ball_weight_bounds(&center, radius, 1e-9);
            assert!(lo <= brute + 1e-9 && brute <= hi + 1e-9, "{lo} ≤ {brute} ≤ {hi}");
        }
    }

    #[test]
    fn compaction_triggers_and_preserves_contents() {
        let base: Vec<WeightedPoint<2>> =
            (0..20).map(|i| wp(i as f64, 0.0, 1.0 + (i % 3) as f64)).collect();
        let dataset = VersionedDataset::new(base.clone(), Vec::new()).with_compaction_alpha(0.25);
        let before: Vec<WeightedPoint<2>> = dataset.view().live_points().to_vec();
        let mut compacted = false;
        for i in 0..10 {
            let report = dataset.apply(&[
                Mutation::Delete { point: Point2::xy(i as f64, 0.0) },
                Mutation::Insert { point: wp(100.0 + i as f64, 0.0, 2.0), color: None },
            ]);
            compacted |= report.compacted;
            if report.compacted {
                assert_eq!(dataset.view().delta_size(), 0, "compaction resets the delta");
            }
        }
        assert!(compacted, "a 100% churn must cross the α = 0.25 threshold");
        assert!(dataset.compactions() >= 1);
        assert!(dataset.compaction_time() > Duration::ZERO, "compactions are timed");
        assert_eq!(dataset.version(), 11, "compaction does not bump the version");
        // Contents are exactly the canonical live order of the script.
        let live = dataset.view().live_points();
        let mut expected: Vec<WeightedPoint<2>> = before.into_iter().skip(10).collect();
        expected.extend((0..10).map(|i| wp(100.0 + i as f64, 0.0, 2.0)));
        assert_eq!(live.len(), expected.len());
        for (a, b) in live.iter().zip(&expected) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.weight, b.weight);
        }
    }

    #[test]
    fn dynamic_tracker_is_maintained_incrementally() {
        let config = SamplingConfig::practical(0.25).with_seed(21);
        let dataset = VersionedDataset::new(
            (0..30).map(|i| wp(0.05 * i as f64, 0.0, 1.0)).collect(),
            Vec::new(),
        );
        let (view, best) = dataset.dynamic_ball_best(1.0, &config).expect("non-negative");
        assert_eq!(view.version(), 1);
        assert_eq!(best.value, 30.0, "all 30 points fit in one unit disk");
        // A far heavy cluster appears: the tracker must follow without a
        // rebuild (epochs only advance when the live count doubles).
        let heavy: Vec<Mutation<2>> = (0..5)
            .map(|i| Mutation::Insert { point: wp(50.0 + 0.01 * i as f64, 0.0, 20.0), color: None })
            .collect();
        dataset.apply(&heavy);
        let (view, best) = dataset.dynamic_ball_best(1.0, &config).expect("non-negative");
        assert_eq!(view.version(), 2);
        assert_eq!(best.value, 100.0);
        assert!(best.center.dist(&Point2::xy(50.02, 0.0)) < 1.5);
        // Delete the cluster again: the tracker tracks the removals.
        let removals: Vec<Mutation<2>> = (0..5)
            .map(|i| Mutation::Delete { point: Point2::xy(50.0 + 0.01 * i as f64, 0.0) })
            .collect();
        dataset.apply(&removals);
        let (_, best) = dataset.dynamic_ball_best(1.0, &config).expect("non-negative");
        assert_eq!(best.value, 30.0);
        // Negative weights disable the tracker path with a clean None.
        dataset.apply(&[Mutation::Insert { point: wp(0.0, 0.0, -1.0), color: None }]);
        assert!(dataset.dynamic_ball_best(1.0, &config).is_none());
    }
}
