//! The exact union-boundary algorithm for colored disk MaxRS (Lemma 4.2).
//!
//! The colored problem is first transformed into an uncolored one: for each
//! color `c` the disks of that color are replaced by their union `U_c`, and
//! the goal becomes finding a point contained in the maximum number of the
//! regions `U_1, …, U_m`.  The maximum-depth face of that region arrangement
//! always has, on its closure, a point of some exposed boundary arc, so it
//! suffices to sweep every exposed arc: compute the colored depth once at the
//! arc's start, then walk its crossings with *other colors'* exposed arcs in
//! angular order, incrementing or decrementing the depth as the arc enters or
//! leaves the other color's union.  The total cost is
//! `O(n log n + Σ_arc local + k log k)` where `k` is the number of
//! boundary–boundary crossings — the same output-sensitive shape as the
//! paper's trapezoidal-map formulation, which this arc sweep stands in for:
//! it walks the exposed arcs directly instead of building the map.
//!
//! ## Hot-path layout
//!
//! The output-sensitive wrapper (Theorem 4.6) calls this routine once per
//! non-empty grid cell — thousands of small invocations per query — so every
//! buffer the sweep needs lives in a caller-owned [`UnionScratch`] that is
//! reused across calls: the exposed-arc pools, the per-arc crossing-event
//! pools, and the color-stamp array of the depth counter.  Exposed arcs are
//! computed against one *global* CSR center index (filtering neighbours by
//! color) instead of building a per-color `HashGrid` per call.

use mrs_geom::arcs::{boundary_covered_by, complement_on_circle, normalize_angle, AngularInterval};
use mrs_geom::union_disks::ExposedArc;
use mrs_geom::{Ball, ColoredSite, GridQueryStats, HashGrid, Point2, TAU};

use crate::engine::cancel;
use crate::input::{dense_colors, ColoredPlacement};

/// An exposed arc of one color's union boundary, referencing the *global* disk
/// index that carries it (the disk's color is recovered from the global color
/// table when needed).
#[derive(Clone, Copy, Debug)]
struct ColoredArc {
    disk: usize,
    start: f64,
    end: f64,
}

impl ColoredArc {
    fn contains_angle(&self, theta: f64) -> bool {
        ExposedArc { disk: self.disk, start: self.start, end: self.end }.contains_angle(theta)
    }
}

/// A crossing between the swept arc and another color's union boundary.
#[derive(Clone, Copy, Debug)]
struct CrossingEvent {
    /// Angle on the swept disk, in `[0, 2π)`.
    theta: f64,
    /// `+1` if the swept arc enters the other color's union here, `-1` if it
    /// leaves it.
    delta: i32,
}

/// Reusable buffers of the union sweep.  Create one per thread, pass it to
/// every [`max_colored_depth_union_with`] call; capacities then stabilize at
/// the densest instance and the sweep stops allocating.
#[derive(Debug, Default)]
pub struct UnionScratch {
    /// Exposed arcs per global disk id (outer vec pooled, inner vecs keep
    /// their capacity across calls).
    arcs_by_disk: Vec<Vec<ColoredArc>>,
    /// Prefix offsets of the global arc numbering: disk `i`'s arcs occupy
    /// `arc_starts[i]..arc_starts[i + 1]` of `events_by_arc`.
    arc_starts: Vec<u32>,
    /// Crossing events per *global* arc id (pooled across calls).
    events_by_arc: Vec<Vec<CrossingEvent>>,
    /// Same-color covering intervals of the currently processed disk.
    covering: Vec<AngularInterval>,
    /// Disk centers, rebuilt per call (the CSR grid borrows them only during
    /// `build`).
    centers: Vec<Point2>,
    /// Color stamp array of the distinct-color counter.
    stamp: Vec<u64>,
    generation: u64,
}

impl UnionScratch {
    /// Counts distinct colors over the visitation closure using the stamp
    /// array (no per-call set allocation).
    fn count_distinct<F: FnMut(&mut dyn FnMut(usize))>(&mut self, mut for_each_color: F) -> usize {
        self.generation += 1;
        let generation = self.generation;
        let stamp = &mut self.stamp;
        let mut distinct = 0;
        // Branch-free stamp update: unconditional store, counted via the
        // comparison bit (the hot depth queries call this per candidate).
        for_each_color(&mut |color| {
            let is_new = usize::from(stamp[color] != generation);
            stamp[color] = generation;
            distinct += is_new;
        });
        distinct
    }

    /// Clears the first `n` arc pools (keeping capacity) and grows the pool
    /// list to `n` entries.
    fn reset_arc_pools(&mut self, n: usize) {
        for pool in self.arcs_by_disk.iter_mut().take(n) {
            pool.clear();
        }
        if self.arcs_by_disk.len() < n {
            self.arcs_by_disk.resize_with(n, Vec::new);
        }
    }
}

/// Result of the dual-space exact computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DepthResult {
    /// A point of maximum colored depth (dual coordinates).
    pub point: Point2,
    /// The maximum colored depth.
    pub depth: usize,
    /// Number of boundary–boundary crossings processed (the `k` of
    /// Lemma 4.2 / Lemma 4.5), reported for the experiments.
    pub boundary_intersections: usize,
    /// Grid-query work counters accumulated over the sweep.
    pub grid_stats: GridQueryStats,
}

/// Exact maximum colored depth for a set of colored disks (dual setting).
/// Disks may have arbitrary positive radii, although the paper's setting
/// (and the output-sensitive wrapper) uses unit disks.
///
/// Convenience wrapper over [`max_colored_depth_union_with`] with a fresh
/// scratch; batch callers keep one scratch per thread instead.
///
/// # Panics
/// Panics if `disks` and `colors` have different lengths.
pub fn max_colored_depth_union(disks: &[Ball<2>], colors: &[usize]) -> DepthResult {
    let mut scratch = UnionScratch::default();
    max_colored_depth_union_with(disks, colors, &mut scratch)
}

/// The allocation-free form of [`max_colored_depth_union`]: every buffer the
/// sweep needs lives in the caller-owned scratch.
///
/// # Panics
/// Panics if `disks` and `colors` have different lengths.
pub fn max_colored_depth_union_with(
    disks: &[Ball<2>],
    colors: &[usize],
    scratch: &mut UnionScratch,
) -> DepthResult {
    assert_eq!(disks.len(), colors.len(), "one color per disk is required");
    let mut grid_stats = GridQueryStats::default();
    if disks.is_empty() {
        return DepthResult {
            point: Point2::xy(0.0, 0.0),
            depth: 0,
            boundary_intersections: 0,
            grid_stats,
        };
    }
    // The stamp array is indexed by color, so ids from `disks.len()` up are
    // remapped first: it then never outgrows the input.
    let remapped;
    let colors = if colors.iter().any(|&c| c >= disks.len()) {
        remapped = dense_colors(colors.iter().copied()).0;
        remapped.as_slice()
    } else {
        colors
    };
    if scratch.stamp.len() < disks.len() {
        scratch.stamp.resize(disks.len(), 0);
    }
    let max_radius = disks.iter().map(|d| d.radius).fold(0.0f64, f64::max);

    // One global CSR index over every disk center; per-color neighbourhoods
    // come from filtering by color, so no per-color grid is ever built.
    scratch.centers.clear();
    scratch.centers.extend(disks.iter().map(|d| d.center));
    let index = HashGrid::build((2.0 * max_radius).max(1e-6), &scratch.centers);

    // Exposed arcs of each color's union, re-indexed by the global disk id:
    // subtract the angular intervals covered by same-color neighbours from
    // each disk's full circle; what remains is on that color's `∂U`.
    scratch.reset_arc_pools(disks.len());
    for (i, disk) in disks.iter().enumerate() {
        if cancel::poll(i) {
            break;
        }
        scratch.covering.clear();
        let covering = &mut scratch.covering;
        let mut swallowed = false;
        grid_stats.merge(index.for_each_within(&disk.center, disk.radius + max_radius, |j| {
            if j == i || colors[j] != colors[i] || swallowed {
                return;
            }
            match boundary_covered_by(disk, &disks[j]) {
                Some(iv) if iv.width >= TAU - 1e-12 => {
                    // Another same-color disk contains this one entirely; but
                    // two coincident disks would both vanish, so keep the one
                    // with the smaller index in that exact-tie case.
                    let other = &disks[j];
                    let coincident = (other.radius - disk.radius).abs() < 1e-12
                        && other.center.dist(&disk.center) < 1e-12;
                    if !coincident || j < i {
                        swallowed = true;
                    }
                }
                Some(iv) => covering.push(iv),
                None => {}
            }
        }));
        if swallowed {
            continue;
        }
        for (start, end) in complement_on_circle(&scratch.covering) {
            if end - start > 1e-12 {
                scratch.arcs_by_disk[i].push(ColoredArc { disk: i, start, end });
            }
        }
    }

    // Crossing events, one pass per *unordered* pair: the two intersection
    // points of ∂D_i and ∂D_j are shared by both sweeps, so the pair's
    // geometry (one center angle, the acos half-widths) is computed once and
    // the four crossing angles fall out analytically — where the old
    // per-swept-disk formulation paid `atan2 + acos` per direction plus a
    // `sin/cos + atan2` round trip per event endpoint to recover the angle
    // on the other circle.  Rather than classifying intersection points by a
    // derivative sign (fragile near tangencies), the covered angular
    // interval is used directly: ∂D_i enters disk j at the interval's start
    // angle and leaves it at its end angle.
    scratch.arc_starts.clear();
    scratch.arc_starts.push(0);
    let mut total_arcs = 0u32;
    for arcs in scratch.arcs_by_disk.iter().take(disks.len()) {
        total_arcs += arcs.len() as u32;
        scratch.arc_starts.push(total_arcs);
    }
    for pool in scratch.events_by_arc.iter_mut().take(total_arcs as usize) {
        pool.clear();
    }
    if scratch.events_by_arc.len() < total_arcs as usize {
        scratch.events_by_arc.resize_with(total_arcs as usize, Vec::new);
    }
    {
        let arcs_by_disk = &scratch.arcs_by_disk;
        let arc_starts = &scratch.arc_starts;
        let events_by_arc = &mut scratch.events_by_arc;
        for i in 0..disks.len() {
            if cancel::poll(i) {
                break;
            }
            if arcs_by_disk[i].is_empty() {
                continue;
            }
            let di = &disks[i];
            grid_stats.merge(index.for_each_within(&di.center, di.radius + max_radius, |j| {
                // Each unordered pair once, from its lower index (any pair
                // with overlapping boundaries is within either disk's query
                // radius, so enumerating from the lower side misses none).
                if j <= i || arcs_by_disk[j].is_empty() || colors[i] == colors[j] {
                    return;
                }
                pair_crossing_events(disks, i, j, arcs_by_disk, arc_starts, events_by_arc);
            }));
        }
    }

    let mut best_point = disks[0].center;
    let mut best_depth = 0usize;
    let mut boundary_intersections = 0usize;

    // Sweep every arc: closed depth at the arc start, then walk the sorted
    // crossings, tracking the running depth.
    for i in 0..disks.len() {
        if cancel::poll(i) {
            break;
        }
        if scratch.arcs_by_disk[i].is_empty() {
            continue;
        }
        let di = &disks[i];
        let first_arc = scratch.arc_starts[i] as usize;
        for arc_idx in 0..scratch.arcs_by_disk[i].len() {
            let arc = scratch.arcs_by_disk[i][arc_idx];
            boundary_intersections += scratch.events_by_arc[first_arc + arc_idx].len();
            let start_point = di.center.polar_offset(di.radius, arc.start);
            let closed_at_start =
                depth_at(disks, colors, &index, max_radius, &start_point, scratch, &mut grid_stats);
            if closed_at_start > best_depth {
                best_depth = closed_at_start;
                best_point = start_point;
            }
            let events = &mut scratch.events_by_arc[first_arc + arc_idx];
            if events.is_empty() {
                continue;
            }
            // Clamp event angles into the arc range and sort; at equal angles
            // apply "enter" before "leave" so the closed depth at the crossing
            // itself is observed.
            for e in events.iter_mut() {
                if e.theta < arc.start {
                    e.theta = arc.start;
                }
                if e.theta > arc.end {
                    e.theta = arc.end;
                }
            }
            events.sort_unstable_by(|a, b| {
                a.theta.partial_cmp(&b.theta).unwrap().then(b.delta.cmp(&a.delta))
            });
            // Unions entered exactly at the start angle are already included in
            // the closed depth of the start point; discount them so applying
            // their "+1" events does not double-count.
            let entered_at_start =
                events.iter().filter(|e| e.delta > 0 && e.theta <= arc.start + 1e-9).count();
            let num_events = events.len();
            let mut running = closed_at_start as i64 - entered_at_start as i64;
            for k in 0..num_events {
                let e = scratch.events_by_arc[first_arc + arc_idx][k];
                running += e.delta as i64;
                if running > 0 && running as usize > best_depth {
                    // The incremental counter can over-credit a crossing whose
                    // floating-point position drifted off one of the counted
                    // disks (boundary-exact inputs hit this), so a candidate
                    // only wins with its *recounted* closed depth — the
                    // reported point then always survives re-certification.
                    let p = di.center.polar_offset(di.radius, e.theta);
                    let depth =
                        depth_at(disks, colors, &index, max_radius, &p, scratch, &mut grid_stats);
                    if depth > best_depth {
                        best_depth = depth;
                        best_point = p;
                    }
                }
            }
        }
    }

    // Degenerate fallback (e.g. every disk swallowed in ties): disk centers are
    // always safe candidates.
    if best_depth == 0 {
        for d in disks {
            let depth =
                depth_at(disks, colors, &index, max_radius, &d.center, scratch, &mut grid_stats);
            if depth > best_depth {
                best_depth = depth;
                best_point = d.center;
            }
        }
    }

    DepthResult { point: best_point, depth: best_depth, boundary_intersections, grid_stats }
}

/// The angle of the vector `-v` given `atan2(v) = theta` in `(-π, π]` — one
/// add instead of a second `atan2`.
#[inline]
pub(crate) fn opposite_angle(theta: f64) -> f64 {
    if theta > 0.0 {
        theta - std::f64::consts::PI
    } else {
        theta + std::f64::consts::PI
    }
}

/// The half-width of the angular interval of `∂(center_a, ra)` covered by
/// the disk `(center_b, rb)` at center distance `d` (law of cosines).
#[inline]
fn half_cover_angle(d: f64, ra: f64, rb: f64) -> f64 {
    let cos_half = (d * d + ra * ra - rb * rb) / (2.0 * d * ra);
    cos_half.clamp(-1.0, 1.0).acos()
}

#[inline]
fn contains_any(arcs: &[ColoredArc], theta: f64) -> bool {
    arcs.iter().any(|a| a.contains_angle(theta))
}

/// Emits the crossing events of the unordered pair `(i, j)` — different
/// colors, both with exposed arcs — to both disks' per-arc event pools.
///
/// The two intersection points of the boundaries are shared: the point at
/// angle `c_i - h_i` on circle `i` is the point at `c_j + h_j` on circle `j`
/// and vice versa (`c` the center angles, `h` the covered half-widths), so
/// one `atan2` and the acos half-widths determine all four crossing angles.
/// A crossing only changes membership in the other color's union if it lies
/// on that union's *exposed* boundary, so each event is gated on the
/// crossing angle landing on one of the other disk's arcs.
fn pair_crossing_events(
    disks: &[Ball<2>],
    i: usize,
    j: usize,
    arcs_by_disk: &[Vec<ColoredArc>],
    arc_starts: &[u32],
    events_by_arc: &mut [Vec<CrossingEvent>],
) {
    let di = &disks[i];
    let dj = &disks[j];
    let d = di.center.dist(&dj.center);
    let mut push = |s: usize, theta: f64, delta: i32| {
        for (arc_idx, arc) in arcs_by_disk[s].iter().enumerate() {
            if arc.contains_angle(theta) {
                events_by_arc[arc_starts[s] as usize + arc_idx]
                    .push(CrossingEvent { theta, delta });
            }
        }
    };
    if (d - (di.radius + dj.radius)).abs() <= 1e-9 {
        // External tangency: a single touch point where the depth rises by
        // one for a moment; emit an enter/leave pair at that angle on each
        // side whose touch point lies on the other side's exposed boundary.
        let c_i = di.center.angle_to(&dj.center);
        let theta_i = normalize_angle(c_i);
        let theta_j = normalize_angle(opposite_angle(c_i));
        if contains_any(&arcs_by_disk[j], theta_j) {
            push(i, theta_i, 1);
            push(i, theta_i, -1);
        }
        if contains_any(&arcs_by_disk[i], theta_i) {
            push(j, theta_j, 1);
            push(j, theta_j, -1);
        }
        return;
    }
    if d >= di.radius + dj.radius || d + di.radius <= dj.radius || d + dj.radius <= di.radius {
        // Disjoint (the query radius over-approximates) or nested: either
        // way one boundary never properly crosses the other, no events.
        return;
    }
    let c_i = di.center.angle_to(&dj.center);
    let c_j = opposite_angle(c_i);
    let h_i = half_cover_angle(d, di.radius, dj.radius);
    let h_j = if di.radius == dj.radius { h_i } else { half_cover_angle(d, dj.radius, di.radius) };
    // Entering angle and leaving angle of the covered interval on each
    // circle; `enter` on one circle is the same point as `leave` on the
    // other.
    let i_enter = normalize_angle(c_i - h_i);
    let i_leave = normalize_angle(c_i + h_i);
    let j_enter = normalize_angle(c_j - h_j);
    let j_leave = normalize_angle(c_j + h_j);
    // Degenerate grazing (half ≈ 0) or full cover (half ≈ π) yields no
    // membership change — mirrors the old per-direction interval filter.
    if h_i > 1e-12 && 2.0 * h_i < TAU - 1e-12 {
        if contains_any(&arcs_by_disk[j], j_leave) {
            push(i, i_enter, 1);
        }
        if contains_any(&arcs_by_disk[j], j_enter) {
            push(i, i_leave, -1);
        }
    }
    if h_j > 1e-12 && 2.0 * h_j < TAU - 1e-12 {
        if contains_any(&arcs_by_disk[i], i_leave) {
            push(j, j_enter, 1);
        }
        if contains_any(&arcs_by_disk[i], i_enter) {
            push(j, j_leave, -1);
        }
    }
}

/// Colored depth at an arbitrary point (full neighbourhood query through the
/// global index, distinct colors counted with the scratch's stamp array).
fn depth_at(
    disks: &[Ball<2>],
    colors: &[usize],
    index: &HashGrid<2>,
    max_radius: f64,
    p: &Point2,
    scratch: &mut UnionScratch,
    grid_stats: &mut GridQueryStats,
) -> usize {
    let mut local = GridQueryStats::default();
    let depth = scratch.count_distinct(|visit| {
        local = index.for_each_within(p, max_radius * (1.0 + 1e-12), |j| {
            if disks[j].contains(p) {
                visit(colors[j]);
            }
        });
    });
    grid_stats.merge(local);
    depth
}

/// Exact colored disk MaxRS in the primal setting via the union-boundary
/// algorithm: returns where to center a disk of radius `radius` to cover the
/// maximum number of distinct colors.
pub fn exact_colored_disk_by_union(sites: &[ColoredSite<2>], radius: f64) -> ColoredPlacement<2> {
    assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
    if sites.is_empty() {
        return ColoredPlacement::empty();
    }
    let inv = 1.0 / radius;
    let disks: Vec<Ball<2>> = sites.iter().map(|s| Ball::unit(s.point.scale(inv))).collect();
    let colors: Vec<usize> = sites.iter().map(|s| s.color).collect();
    let result = max_colored_depth_union(&disks, &colors);
    ColoredPlacement { center: result.point.scale(radius), distinct: result.depth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::colored_disk2d::{colored_depth_at, exact_colored_disk};
    use rand::prelude::*;

    fn site(x: f64, y: f64, color: usize) -> ColoredSite<2> {
        ColoredSite::new(Point2::xy(x, y), color)
    }

    #[test]
    fn empty_input() {
        assert_eq!(max_colored_depth_union(&[], &[]).depth, 0);
        assert_eq!(exact_colored_disk_by_union(&[], 1.0).distinct, 0);
    }

    #[test]
    fn single_disk() {
        let res = max_colored_depth_union(&[Ball::unit(Point2::xy(0.0, 0.0))], &[0]);
        assert_eq!(res.depth, 1);
    }

    #[test]
    fn two_disks_of_different_colors() {
        let disks = vec![Ball::unit(Point2::xy(0.0, 0.0)), Ball::unit(Point2::xy(1.2, 0.0))];
        let res = max_colored_depth_union(&disks, &[0, 1]);
        assert_eq!(res.depth, 2);
        // The reported point must genuinely lie in both disks.
        assert!(disks[0].contains(&res.point) && disks[1].contains(&res.point));
        // The sweep went through the grid, so work was counted.
        assert!(res.grid_stats.candidates > 0);
    }

    #[test]
    fn three_colors_in_a_cluster() {
        let sites = vec![
            site(0.0, 0.0, 0),
            site(0.3, 0.2, 0),
            site(0.5, 0.0, 1),
            site(0.1, 0.6, 2),
            site(10.0, 10.0, 3),
        ];
        let res = exact_colored_disk_by_union(&sites, 1.0);
        assert_eq!(res.distinct, 3);
        assert_eq!(colored_depth_at(&sites, 1.0, &res.center), 3);
    }

    #[test]
    fn duplicate_colors_collapse_via_union() {
        // Many disks of the same color stacked on top of each other plus one
        // disk of a second color: depth is 2, not 1 + duplicates.
        let sites = vec![
            site(0.0, 0.0, 0),
            site(0.01, 0.0, 0),
            site(0.02, 0.0, 0),
            site(0.03, 0.0, 0),
            site(0.5, 0.0, 1),
        ];
        let res = exact_colored_disk_by_union(&sites, 1.0);
        assert_eq!(res.distinct, 2);
    }

    #[test]
    fn deep_overlap_of_many_colors_in_one_spot() {
        // Every color has several disks piled into one tiny cluster, so the
        // optimum equals the number of colors and the sweep must track the
        // incremental depth correctly through many same-angle-ish crossings.
        let mut rng = StdRng::seed_from_u64(55);
        let mut sites = Vec::new();
        for color in 0..30usize {
            for _ in 0..4 {
                sites.push(site(rng.gen_range(0.0..0.6), rng.gen_range(0.0..0.6), color));
            }
        }
        let res = exact_colored_disk_by_union(&sites, 1.0);
        assert_eq!(res.distinct, 30);
    }

    #[test]
    fn scratch_reuse_across_calls_is_stable() {
        // The same scratch must serve instances of different sizes and color
        // counts without contaminating later calls.
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = UnionScratch::default();
        for round in 0..25 {
            let n = rng.gen_range(1..40);
            let m = rng.gen_range(1..8usize);
            let disks: Vec<Ball<2>> = (0..n)
                .map(|_| Ball::unit(Point2::xy(rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0))))
                .collect();
            let colors: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let pooled = max_colored_depth_union_with(&disks, &colors, &mut scratch);
            let fresh = max_colored_depth_union(&disks, &colors);
            assert_eq!(pooled.depth, fresh.depth, "round {round}");
            assert_eq!(pooled.point, fresh.point, "round {round}");
        }
    }

    #[test]
    fn matches_candidate_enumeration_oracle_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..40 {
            let n = rng.gen_range(2..45);
            let m = rng.gen_range(1..7usize);
            let sites: Vec<ColoredSite<2>> = (0..n)
                .map(|_| {
                    site(rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0), rng.gen_range(0..m))
                })
                .collect();
            let union = exact_colored_disk_by_union(&sites, 1.0);
            let oracle = exact_colored_disk(&sites, 1.0);
            assert_eq!(
                union.distinct, oracle.distinct,
                "round {round}: union {} vs oracle {}",
                union.distinct, oracle.distinct
            );
            assert_eq!(colored_depth_at(&sites, 1.0 + 1e-9, &union.center), union.distinct);
        }
    }

    #[test]
    fn matches_oracle_on_dense_instances() {
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..10 {
            let m = rng.gen_range(2..10usize);
            let sites: Vec<ColoredSite<2>> = (0..60)
                .map(|_| {
                    site(rng.gen_range(0.0..1.5), rng.gen_range(0.0..1.5), rng.gen_range(0..m))
                })
                .collect();
            let union = exact_colored_disk_by_union(&sites, 1.0);
            let oracle = exact_colored_disk(&sites, 1.0);
            assert_eq!(union.distinct, oracle.distinct, "round {round}");
        }
    }

    #[test]
    fn non_unit_radius_is_scaled_correctly() {
        let sites = vec![site(0.0, 0.0, 0), site(3.0, 0.0, 1), site(6.0, 0.0, 2)];
        // Radius 1 covers a single site; radius 3 covers all three (centered on
        // the middle site).
        assert_eq!(exact_colored_disk_by_union(&sites, 1.0).distinct, 1);
        assert_eq!(exact_colored_disk_by_union(&sites, 3.0).distinct, 3);
    }

    #[test]
    fn reports_boundary_intersection_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let disks: Vec<Ball<2>> = (0..60)
            .map(|_| Ball::unit(Point2::xy(rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0))))
            .collect();
        let colors: Vec<usize> = (0..60).map(|i| i % 5).collect();
        let res = max_colored_depth_union(&disks, &colors);
        assert!(res.depth >= 1);
        // Lemma 4.5-style sanity: the crossing count stays well below the
        // trivial O(n²) bound for a spread-out instance.
        assert!(res.boundary_intersections < 60 * 60);
    }
}
