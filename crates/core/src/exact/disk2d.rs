//! Exact disk MaxRS in the plane in `O(n² log n)` time.
//!
//! This is the Chazelle–Lee style angular sweep \[CL86\] the paper uses as the
//! exact comparator for its `d`-ball approximation algorithms (and whose
//! conditional Ω(n²) lower bound \[AH08\] motivates those approximations).  In
//! the dual view every weighted input point becomes a disk of the query
//! radius; the deepest point of that disk arrangement lies on some disk's
//! boundary, so sweeping every boundary by angle and keeping a running
//! coverage weight finds the optimum.
//!
//! ## Hot-path layout
//!
//! The sweep is factored so the batch executor can amortize everything that
//! does not depend on the single query:
//!
//! * the neighbour index is a prebuilt CSR [`HashGrid`] (one per distinct
//!   radius, cached in the engine's `SharedIndex`);
//! * the per-center event list lives in a caller-owned [`DiskSweepScratch`]
//!   reused across all centers (and across all queries of a batch), so the
//!   inner loop allocates nothing;
//! * [`max_disk_placement_chunked`] splits the center range over
//!   `std::thread::scope` workers — each with its own scratch — and merges
//!   chunk results in order with a strictly-greater comparison, so the
//!   answer is byte-identical to the serial sweep at any thread count.

use mrs_geom::{Ball, GridQueryStats, HashGrid, Point, Point2, WeightedPoint};

use crate::engine::cancel;
use crate::input::Placement;

/// Reusable per-thread scratch of the sweep: the angular event list of one
/// center.  Create once, pass to every call; the capacity then stabilizes at
/// the densest neighbourhood and the inner loop stops allocating.
#[derive(Clone, Debug, Default)]
pub struct DiskSweepScratch {
    events: Vec<(f64, f64)>,
}

/// Work counters of one sweep, surfaced as `SolveStats` counters by the
/// engine wrapper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskSweepStats {
    /// Candidate neighbours examined across every grid query (phase 0
    /// coverage probes plus phase 1 event generation).
    pub candidates_examined: usize,
    /// Grid cells visited across every grid query.
    pub grid_cells_visited: usize,
    /// Candidates rejected by the widened f32 sieve before the exact f64
    /// verify (zero outside [`mrs_geom::KernelMode::SieveF32`]).
    pub sieve_rejected: usize,
}

impl DiskSweepStats {
    fn absorb(&mut self, q: GridQueryStats) {
        self.candidates_examined += q.candidates;
        self.grid_cells_visited += q.cells;
        self.sieve_rejected += q.sieve_rejected;
    }

    fn merge(&mut self, other: DiskSweepStats) {
        self.candidates_examined += other.candidates_examined;
        self.grid_cells_visited += other.grid_cells_visited;
        self.sieve_rejected += other.sieve_rejected;
    }
}

/// The polar angle of `b - a` using the first two coordinates.  The sweep is
/// planar; generic `D` lets it run directly over `Point<D>` storage when the
/// engine has already checked `D == 2`.
#[inline]
fn angle2<const D: usize>(a: &Point<D>, b: &Point<D>) -> f64 {
    (b[1] - a[1]).atan2(b[0] - a[0])
}

/// The point at distance `r` and angle `theta` from `c` in the first two
/// coordinates.
#[inline]
fn polar2<const D: usize>(c: &Point<D>, r: f64, theta: f64) -> Point<D> {
    let mut p = *c;
    p[0] += r * theta.cos();
    p[1] += r * theta.sin();
    p
}

/// Exact MaxRS for a disk of radius `radius` over weighted points with
/// non-negative weights.
///
/// Returns the center at which to place the query disk and the total weight it
/// covers.  Runs in `O(n² log n)` worst case; the hash-grid neighbour index
/// keeps it close to `O(n · k log k)` where `k` is the local overlap.
///
/// # Example
/// ```
/// use mrs_core::exact::disk2d::max_disk_placement;
/// use mrs_geom::{Point2, WeightedPoint};
///
/// let points = vec![
///     WeightedPoint::new(Point2::xy(0.0, 0.0), 2.0),
///     WeightedPoint::new(Point2::xy(0.5, 0.0), 3.0),
///     WeightedPoint::new(Point2::xy(9.0, 0.0), 4.0),
/// ];
/// let best = max_disk_placement(&points, 1.0);
/// assert_eq!(best.value, 5.0);
/// ```
///
/// # Panics
/// Panics if `radius` is not strictly positive or any weight is negative.
pub fn max_disk_placement(points: &[WeightedPoint<2>], radius: f64) -> Placement<2> {
    assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
    let centers: Vec<Point2> = points.iter().map(|p| p.point).collect();
    let index = HashGrid::build(radius.max(1e-9), &centers);
    let mut scratch = DiskSweepScratch::default();
    max_disk_placement_indexed(points, radius, &index, &mut scratch).0
}

/// The indexed, allocation-free form of [`max_disk_placement`]: the neighbour
/// grid is caller-owned (built once per distinct radius and shared across a
/// whole batch) and the event list lives in caller-owned scratch.
///
/// The grid must have been built over exactly `points`' locations, with a
/// cell side for which `reach = ⌈2·radius / side⌉` stays small (the engine
/// uses `side = radius`).
///
/// # Panics
/// Panics if `radius` is not strictly positive or any weight is negative.
pub fn max_disk_placement_indexed<const D: usize>(
    points: &[WeightedPoint<D>],
    radius: f64,
    index: &HashGrid<D>,
    scratch: &mut DiskSweepScratch,
) -> (Placement<D>, DiskSweepStats) {
    assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
    for p in points {
        assert!(p.weight >= 0.0, "disk MaxRS requires non-negative weights");
    }
    let mut stats = DiskSweepStats::default();
    if points.is_empty() {
        return (Placement::empty(), stats);
    }
    let mut best = Placement { center: points[0].point, value: points[0].weight };
    sweep_chunk(points, radius, index, scratch, 0..points.len(), Phase::Centers, &mut best)
        .merge_into(&mut stats);
    sweep_chunk(points, radius, index, scratch, 0..points.len(), Phase::Boundaries, &mut best)
        .merge_into(&mut stats);
    (best, stats)
}

/// The chunked-parallel form of [`max_disk_placement_indexed`]: the center
/// range is split into `threads` chunks per phase, each swept by its own
/// worker with its own scratch, and chunk results merge in chunk order with
/// a strictly-greater comparison — so the placement is byte-identical to the
/// serial sweep for every thread count.
///
/// # Panics
/// Panics if `radius` is not strictly positive or any weight is negative.
pub fn max_disk_placement_chunked<const D: usize>(
    points: &[WeightedPoint<D>],
    radius: f64,
    index: &HashGrid<D>,
    threads: usize,
) -> (Placement<D>, DiskSweepStats) {
    let threads = threads.max(1).min(points.len().max(1));
    if threads <= 1 || points.len() < 2 * threads {
        let mut scratch = DiskSweepScratch::default();
        return max_disk_placement_indexed(points, radius, index, &mut scratch);
    }
    assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
    for p in points {
        assert!(p.weight >= 0.0, "disk MaxRS requires non-negative weights");
    }
    let n = points.len();
    let chunk = n.div_ceil(threads);
    let mut stats = DiskSweepStats::default();
    let mut best = Placement { center: points[0].point, value: points[0].weight };
    for phase in [Phase::Centers, Phase::Boundaries] {
        // Every chunk starts from the best found so far (phase 0 completes
        // before phase 1, as in the serial sweep); candidates must strictly
        // beat it, so the in-order merge reproduces the serial tie-breaking.
        let baseline = best;
        let results = cancel::fan_out((0..n).step_by(chunk), |start| {
            let mut local_best = baseline;
            let mut scratch = DiskSweepScratch::default();
            let range = start..(start + chunk).min(n);
            let chunk_stats =
                sweep_chunk(points, radius, index, &mut scratch, range, phase, &mut local_best);
            (local_best, chunk_stats)
        });
        for (candidate, chunk_stats) in results {
            chunk_stats.merge_into(&mut stats);
            if candidate.value > best.value {
                best = candidate;
            }
        }
    }
    (best, stats)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Candidate 0: every input point as a center (also covers `n = 1` and
    /// keeps the result robust when all points coincide).
    Centers,
    /// Candidate 1: the angular sweep of every dual disk's boundary.
    Boundaries,
}

impl DiskSweepStats {
    fn merge_into(self, into: &mut DiskSweepStats) {
        into.merge(self);
    }
}

/// Sweeps one phase over the center range `range`, updating `best` with a
/// strictly-greater comparison.  The serial sweep is `sweep_chunk(.., 0..n,
/// Centers) ; sweep_chunk(.., 0..n, Boundaries)`.
fn sweep_chunk<const D: usize>(
    points: &[WeightedPoint<D>],
    radius: f64,
    index: &HashGrid<D>,
    scratch: &mut DiskSweepScratch,
    range: std::ops::Range<usize>,
    phase: Phase,
    best: &mut Placement<D>,
) -> DiskSweepStats {
    let mut stats = DiskSweepStats::default();
    match phase {
        Phase::Centers => {
            for (k, i) in range.enumerate() {
                if cancel::poll(k) {
                    break;
                }
                let p = &points[i];
                let mut value = 0.0;
                stats.absorb(index.for_each_within(&p.point, radius, |j| {
                    value += points[j].weight;
                }));
                if value > best.value {
                    *best = Placement { center: p.point, value };
                }
            }
        }
        Phase::Boundaries => {
            let two_r = 2.0 * radius;
            for (k, i) in range.enumerate() {
                if cancel::poll(k) {
                    break;
                }
                let pi = &points[i];
                // Events on the circle of radius `radius` around p_i:
                // neighbour j covers the angular interval centred on the
                // direction to p_j with half-width acos(d / 2r).
                let mut base = pi.weight;
                let events = &mut scratch.events;
                events.clear();
                let mut initial = 0.0; // coverage at angle 0
                stats.absorb(index.for_each_within(&pi.point, two_r, |j| {
                    if j == i {
                        return;
                    }
                    let pj = &points[j];
                    let d = pi.point.dist(&pj.point);
                    if d <= 1e-12 {
                        // Coincident centre: covers the whole boundary.
                        base += pj.weight;
                        return;
                    }
                    // Note: at d = 2r the interval degenerates to a single
                    // tangent point; keeping the (equal-angle) event pair
                    // still credits it, because gains are applied before
                    // losses at equal angles.
                    let half = (d / two_r).clamp(-1.0, 1.0).acos();
                    let center_angle = angle2(&pi.point, &pj.point);
                    let start = normalize(center_angle - half);
                    let end = normalize(center_angle + half);
                    events.push((start, pj.weight));
                    events.push((end, -pj.weight));
                    if start > end {
                        // Interval wraps through angle 0, so it covers angle 0.
                        initial += pj.weight;
                    }
                }));
                if events.is_empty() {
                    if base > best.value {
                        *best = Placement { center: polar2(&pi.point, radius, 0.0), value: base };
                    }
                    continue;
                }
                // Sort by angle; at equal angles apply gains before losses so
                // that the closed-interval endpoints (boundary-boundary
                // intersection points) are counted on both sides.  The event
                // order is produced by this center's own grid scan alone, so
                // it is identical at every chunking and the unstable sort
                // stays deterministic.
                events.sort_unstable_by(|a, b| {
                    a.0.partial_cmp(&b.0).unwrap().then_with(|| b.1.partial_cmp(&a.1).unwrap())
                });
                let mut running = initial;
                for &(angle, delta) in events.iter() {
                    running += delta;
                    let candidate = base + running;
                    if candidate > best.value {
                        *best = Placement {
                            center: polar2(&pi.point, radius, angle),
                            value: candidate,
                        };
                    }
                }
                // Also consider angle 0 itself (covered by `initial`).
                let at_zero = base + initial;
                if at_zero > best.value {
                    *best = Placement { center: polar2(&pi.point, radius, 0.0), value: at_zero };
                }
            }
        }
    }
    stats
}

/// Total weight of points within distance `radius` of `q` (the weighted depth
/// of `q` in the dual arrangement).  Brute force, used for verification.
pub fn weighted_depth_at(points: &[WeightedPoint<2>], radius: f64, q: &Point2) -> f64 {
    let query = Ball::new(*q, radius);
    points.iter().filter(|p| query.contains(&p.point)).map(|p| p.weight).sum()
}

fn normalize(theta: f64) -> f64 {
    mrs_geom::arcs::normalize_angle(theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    /// O(n^3) reference: evaluate the depth at every pairwise boundary
    /// intersection and at every centre.
    fn brute(points: &[WeightedPoint<2>], radius: f64) -> f64 {
        let mut best = 0.0f64;
        for p in points {
            best = best.max(weighted_depth_at(points, radius, &p.point));
        }
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let a = Ball::new(points[i].point, radius);
                let b = Ball::new(points[j].point, radius);
                if let Some((p, q)) = a.boundary_intersections(&b) {
                    best = best.max(weighted_depth_at(points, radius, &p));
                    best = best.max(weighted_depth_at(points, radius, &q));
                }
            }
        }
        best
    }

    #[test]
    fn figure_1a_style_instance() {
        // A cluster of six points coverable by one unit disk plus stragglers.
        let pts: Vec<WeightedPoint<2>> = [
            (0.0, 0.0),
            (0.5, 0.3),
            (0.8, 0.6),
            (0.2, 0.7),
            (0.7, 0.1),
            (0.4, 0.5),
            (5.0, 5.0),
            (-4.0, 2.0),
        ]
        .iter()
        .map(|&(x, y)| WeightedPoint::unit(Point2::xy(x, y)))
        .collect();
        let res = max_disk_placement(&pts, 1.0);
        assert_eq!(res.value, 6.0);
        assert_eq!(weighted_depth_at(&pts, 1.0, &res.center), 6.0);
    }

    #[test]
    fn single_and_empty_inputs() {
        assert_eq!(max_disk_placement(&[], 1.0).value, 0.0);
        let one = vec![WeightedPoint::new(Point2::xy(2.0, 3.0), 4.0)];
        let res = max_disk_placement(&one, 0.5);
        assert_eq!(res.value, 4.0);
        assert_eq!(weighted_depth_at(&one, 0.5, &res.center), 4.0);
    }

    #[test]
    fn two_far_points_cannot_be_covered_together() {
        let pts = vec![
            WeightedPoint::new(Point2::xy(0.0, 0.0), 1.0),
            WeightedPoint::new(Point2::xy(10.0, 0.0), 2.0),
        ];
        let res = max_disk_placement(&pts, 1.0);
        assert_eq!(res.value, 2.0);
    }

    #[test]
    fn two_points_at_exactly_diameter_distance() {
        // Distance exactly 2r: a single disk can still cover both (they sit on
        // its boundary).
        let pts = vec![
            WeightedPoint::unit(Point2::xy(0.0, 0.0)),
            WeightedPoint::unit(Point2::xy(2.0, 0.0)),
        ];
        let res = max_disk_placement(&pts, 1.0);
        assert_eq!(res.value, 2.0);
        assert!((res.center.dist(&Point2::xy(1.0, 0.0))) < 1e-6);
    }

    #[test]
    fn coincident_points_stack_weights() {
        let pts = vec![
            WeightedPoint::new(Point2::xy(1.0, 1.0), 2.0),
            WeightedPoint::new(Point2::xy(1.0, 1.0), 3.0),
            WeightedPoint::new(Point2::xy(1.0, 1.0), 4.0),
        ];
        let res = max_disk_placement(&pts, 0.25);
        assert_eq!(res.value, 9.0);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..30 {
            let n = rng.gen_range(1..30);
            let pts: Vec<WeightedPoint<2>> = (0..n)
                .map(|_| {
                    WeightedPoint::new(
                        Point2::xy(rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0)),
                        rng.gen_range(0.0..3.0),
                    )
                })
                .collect();
            let radius = rng.gen_range(0.4..2.0);
            let fast = max_disk_placement(&pts, radius);
            let want = brute(&pts, radius);
            assert!(
                (fast.value - want).abs() < 1e-6,
                "round {round}: sweep {} vs brute {want}",
                fast.value
            );
            // Reported centre must actually achieve the reported value.
            let check = weighted_depth_at(&pts, radius * (1.0 + 1e-9), &fast.center);
            assert!(check >= fast.value - 1e-6, "check {check} < {}", fast.value);
        }
    }

    #[test]
    fn chunked_sweep_is_byte_identical_to_serial_at_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(77);
        let pts: Vec<WeightedPoint<2>> = (0..160)
            .map(|_| {
                WeightedPoint::new(
                    Point2::xy(rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0)),
                    rng.gen_range(0.0..3.0),
                )
            })
            .collect();
        let centers: Vec<Point2> = pts.iter().map(|p| p.point).collect();
        for radius in [0.3, 0.8, 1.7] {
            let index = HashGrid::build(radius, &centers);
            let mut scratch = DiskSweepScratch::default();
            let (serial, serial_stats) =
                max_disk_placement_indexed(&pts, radius, &index, &mut scratch);
            for threads in [1, 2, 3, 7] {
                let (chunked, chunked_stats) =
                    max_disk_placement_chunked(&pts, radius, &index, threads);
                assert_eq!(serial.center, chunked.center, "threads = {threads}");
                assert_eq!(serial.value.to_bits(), chunked.value.to_bits());
                assert_eq!(serial_stats, chunked_stats, "work counters are thread-invariant");
            }
        }
    }

    #[test]
    fn sweep_reports_work_counters() {
        let pts: Vec<WeightedPoint<2>> =
            (0..50).map(|i| WeightedPoint::unit(Point2::xy(0.1 * i as f64, 0.0))).collect();
        let centers: Vec<Point2> = pts.iter().map(|p| p.point).collect();
        let index = HashGrid::build(1.0, &centers);
        let mut scratch = DiskSweepScratch::default();
        let (_, stats) = max_disk_placement_indexed(&pts, 1.0, &index, &mut scratch);
        assert!(stats.candidates_examined > 0);
        assert!(stats.grid_cells_visited > 0);
        // Every candidate examination touched a cell that was counted.
        assert!(stats.candidates_examined >= pts.len());
    }

    proptest! {
        #[test]
        fn value_is_sandwiched_by_trivial_bounds(
            coords in proptest::collection::vec((0.0f64..8.0, 0.0f64..8.0), 1..25),
            radius in 0.3f64..2.0,
        ) {
            let pts: Vec<WeightedPoint<2>> =
                coords.iter().map(|&(x, y)| WeightedPoint::unit(Point2::xy(x, y))).collect();
            let res = max_disk_placement(&pts, radius);
            prop_assert!(res.value >= 1.0 - 1e-9);
            prop_assert!(res.value <= pts.len() as f64 + 1e-9);
        }
    }
}
