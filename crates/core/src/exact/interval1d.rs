//! Exact MaxRS on the real line: place an interval of a fixed length to
//! maximize the total weight of covered points.
//!
//! This is the 1-D exact baseline the batched problem of Section 5 calls `m`
//! times, and — via the guard-point construction of Section 5.4 — the oracle
//! the hardness reduction drives.  Unlike the higher-dimensional baselines it
//! must accept *negative* weights, because the reduction plants negative
//! "guard" points.

use mrs_geom::{kernels, Interval};

/// A weighted point on the real line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinePoint {
    /// Coordinate of the point.
    pub x: f64,
    /// Weight of the point (may be negative).
    pub weight: f64,
}

impl LinePoint {
    /// Creates a weighted point on the line.
    pub const fn new(x: f64, weight: f64) -> Self {
        Self { x, weight }
    }
}

/// Result of a 1-D MaxRS query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalPlacement {
    /// The chosen interval.
    pub interval: Interval,
    /// Total weight of the points covered by it.
    pub value: f64,
}

/// Points pre-sorted by coordinate, with prefix sums, so that many interval
/// lengths can be answered against the same point set (the batched setting).
#[derive(Clone, Debug)]
pub struct SortedLine {
    xs: Vec<f64>,
    prefix: Vec<f64>,
}

impl SortedLine {
    /// Builds the sorted representation in `O(n log n)`.
    pub fn new(points: &[LinePoint]) -> Self {
        let mut sorted: Vec<LinePoint> = points.to_vec();
        sorted.sort_by(|a, b| a.x.partial_cmp(&b.x).expect("point coordinates must be comparable"));
        let xs: Vec<f64> = sorted.iter().map(|p| p.x).collect();
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for p in &sorted {
            acc += p.weight;
            prefix.push(acc);
        }
        Self { xs, prefix }
    }

    /// Builds the representation from points **already sorted** by
    /// coordinate, in `O(n)` — the incremental path of a versioned dataset,
    /// which produces the sorted sequence by merging a base order with a
    /// small sorted delta instead of re-sorting.  The result is identical to
    /// [`Self::new`] on any input ordering that sorts (stably) to `sorted`.
    ///
    /// # Panics
    /// Debug-asserts the input is sorted by `x`.
    pub fn from_sorted(sorted: &[LinePoint]) -> Self {
        debug_assert!(
            sorted.windows(2).all(|w| w[0].x <= w[1].x),
            "from_sorted input must be sorted by coordinate"
        );
        let xs: Vec<f64> = sorted.iter().map(|p| p.x).collect();
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for p in sorted {
            acc += p.weight;
            prefix.push(acc);
        }
        Self { xs, prefix }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` if there are no points.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The sorted coordinates.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Prefix sums of the sorted weights: `prefix()[i]` is the total weight
    /// of the first `i` points, so `len() + 1` entries starting at `0.0`.
    /// Lets batched callers (Theorem 1.3) reuse one sorted build.
    pub fn prefix(&self) -> &[f64] {
        &self.prefix
    }

    /// Index of the first point with coordinate `>= x` (within tolerance).
    fn lower_bound(&self, x: f64) -> usize {
        self.xs.partition_point(|&v| v < x - 1e-12)
    }

    /// Index one past the last point with coordinate `<= x` (within tolerance).
    fn upper_bound(&self, x: f64) -> usize {
        self.xs.partition_point(|&v| v <= x + 1e-12)
    }

    /// Total weight of points with coordinates in the closed interval
    /// `[lo, hi]`.
    pub fn weight_in(&self, lo: f64, hi: f64) -> f64 {
        if lo > hi {
            return 0.0;
        }
        let a = self.lower_bound(lo);
        let b = self.upper_bound(hi);
        self.prefix[b] - self.prefix[a]
    }

    /// Exact MaxRS for a closed interval of length `len`, in `O(n)` on the
    /// sorted line.
    ///
    /// The covered point set only changes when an interval endpoint crosses a
    /// point, so it suffices to evaluate placements whose left endpoint is at
    /// a point or whose right endpoint is at a point.  With negative weights
    /// both candidate families are required.  Each family's endpoints ascend
    /// with the sorted coordinates, so four monotone pointers replace the
    /// per-candidate binary searches (same tolerances, same candidate order,
    /// identical results).  The pointers move by the counted blocks of
    /// [`kernels::advance_lt`] / [`kernels::advance_le`], which stop exactly
    /// where a one-step loop would.
    ///
    /// When no placement beats the empty one, the answer is an interval
    /// covering no point, with a finite midpoint wherever `f64` holds one.
    ///
    /// # Panics
    /// Panics if `len` is negative or not finite.
    pub fn max_interval(&self, len: f64) -> IntervalPlacement {
        assert!(len.is_finite() && len >= 0.0, "interval length must be non-negative");
        if self.is_empty() {
            return IntervalPlacement { interval: Interval::from_start(0.0, len), value: 0.0 };
        }
        // The best non-empty placement, as a start and a value; the empty
        // placement (value 0) wins unless beaten.
        let (mut best_start, mut best_value) = (f64::NAN, 0.0);
        // Family A: left endpoint on a point (`start = x`); family B: right
        // endpoint on a point (`start = x - len`).  Each keeps its own pair
        // `(lower_bound(start), upper_bound(start + len))`, advanced
        // monotonically.
        let (mut left, mut right) = ((0usize, 0usize), (0usize, 0usize));
        for &x in &self.xs {
            for (start, window) in [(x, &mut left), (x - len, &mut right)] {
                let value = self.slide(window, start, len);
                if value > best_value + 1e-15 {
                    (best_start, best_value) = (start, value);
                }
            }
        }
        if best_value > 0.0 {
            IntervalPlacement { interval: Interval::from_start(best_start, len), value: best_value }
        } else {
            IntervalPlacement { interval: self.empty_placement(len), value: 0.0 }
        }
    }

    /// Advances `(a, b)` to `(lower_bound(start), upper_bound(start + len))`
    /// from below and returns the weight between them.  A function, not a
    /// closure, so that it can be forced inline: as a closure called twice
    /// per point it compiles out of line, a call per candidate.
    #[inline(always)]
    fn slide(&self, (a, b): &mut (usize, usize), start: f64, len: f64) -> f64 {
        *a = kernels::advance_lt(&self.xs, *a, start - 1e-12);
        *b = kernels::advance_le(&self.xs, *b, start + len + 1e-12);
        self.prefix[*b] - self.prefix[*a]
    }

    /// An interval of length `len` that covers no point and has a finite
    /// midpoint: the placement of value 0, which is always available.
    ///
    /// It starts at `x₀ − 2·len − 2`, far left of the first point `x₀`.
    /// Where that leaves the `f64` range or still covers `x₀` (lengths near
    /// `f64::MAX / 4`, or coordinates whose ulp exceeds the gap), it ends
    /// just left of the first point, or else starts just right of the last.
    /// Only when neither fits in `f64` does it fall back to the interval
    /// centered at 0, which may cover points.
    fn empty_placement(&self, len: f64) -> Interval {
        let (first, last) = (self.xs[0], self.xs[self.xs.len() - 1]);
        // Clear of the nearest point by more than the certifier's slack and
        // the rounding of `start + len` at these magnitudes.
        let clear = 2.0 + 1e-6 * len + 1e-6 * first.abs().max(last.abs());
        [first - 2.0 * len - 2.0, first - len - clear, last + clear]
            .into_iter()
            .map(|start| Interval::from_start(start, len))
            .find(|iv| {
                // Covers no point under `Interval::contains`' tolerance.
                let empty = first > iv.hi + 1e-12 || last < iv.lo - 1e-12;
                empty && (iv.lo + iv.hi).is_finite()
            })
            .unwrap_or_else(|| Interval::from_start(-0.5 * len, len))
    }
}

/// Convenience wrapper: exact 1-D MaxRS over an unsorted point list.
pub fn max_interval_placement(points: &[LinePoint], len: f64) -> IntervalPlacement {
    SortedLine::new(points).max_interval(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_geom::interval::covered_weight;
    use proptest::prelude::*;
    use rand::prelude::*;

    /// The four-pointer sweep with one-step pointer loops: the reference the
    /// counted-block sweep must match bit for bit.
    fn scalar_reference(line: &SortedLine, len: f64) -> IntervalPlacement {
        if line.is_empty() {
            return IntervalPlacement { interval: Interval::from_start(0.0, len), value: 0.0 };
        }
        let (xs, n) = (&line.xs, line.xs.len());
        let mut best = IntervalPlacement { interval: line.empty_placement(len), value: 0.0 };
        let (mut a_left, mut b_left) = (0usize, 0usize);
        let (mut a_right, mut b_right) = (0usize, 0usize);
        let consider = |start: f64, a: &mut usize, b: &mut usize, best: &mut IntervalPlacement| {
            while *a < n && xs[*a] < start - 1e-12 {
                *a += 1;
            }
            while *b < n && xs[*b] <= start + len + 1e-12 {
                *b += 1;
            }
            let value = line.prefix[*b] - line.prefix[*a];
            if value > best.value + 1e-15 {
                *best = IntervalPlacement { interval: Interval::from_start(start, len), value };
            }
        };
        for &x in xs {
            consider(x, &mut a_left, &mut b_left, &mut best);
            consider(x - len, &mut a_right, &mut b_right, &mut best);
        }
        best
    }

    fn bits(p: &IntervalPlacement) -> [u64; 3] {
        [p.value.to_bits(), p.interval.lo.to_bits(), p.interval.hi.to_bits()]
    }

    fn brute(points: &[LinePoint], len: f64) -> f64 {
        // Evaluate every candidate placement with either endpoint at a point,
        // plus the empty placement.
        let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        let ws: Vec<f64> = points.iter().map(|p| p.weight).collect();
        let mut best = 0.0f64;
        for &x in &xs {
            for start in [x, x - len] {
                let v = covered_weight(&xs, &ws, &Interval::from_start(start, len));
                best = best.max(v);
            }
        }
        best
    }

    #[test]
    fn simple_cluster() {
        let pts = vec![
            LinePoint::new(0.0, 1.0),
            LinePoint::new(0.5, 2.0),
            LinePoint::new(0.9, 1.0),
            LinePoint::new(5.0, 3.0),
        ];
        let res = max_interval_placement(&pts, 1.0);
        assert_eq!(res.value, 4.0);
        assert!(res.interval.contains(0.0) && res.interval.contains(0.9));
    }

    #[test]
    fn prefers_isolated_heavy_point() {
        let pts =
            vec![LinePoint::new(0.0, 1.0), LinePoint::new(0.5, 1.0), LinePoint::new(100.0, 10.0)];
        let res = max_interval_placement(&pts, 1.0);
        assert_eq!(res.value, 10.0);
        assert!(res.interval.contains(100.0));
    }

    #[test]
    fn negative_weights_can_yield_empty_placement() {
        let pts = vec![LinePoint::new(0.0, -5.0), LinePoint::new(1.0, -2.0)];
        let res = max_interval_placement(&pts, 10.0);
        assert_eq!(res.value, 0.0);
    }

    #[test]
    fn guard_point_style_instance() {
        // A positive point glued to a negative guard just left of it, as in the
        // reduction of Section 5.4: the best interval picks up the positive
        // point but not its guard.
        let pts = vec![
            LinePoint::new(0.0, 4.0),
            LinePoint::new(-0.5, -4.0),
            LinePoint::new(3.0, 7.0),
            LinePoint::new(3.5, -7.0),
        ];
        let res = max_interval_placement(&pts, 3.0);
        assert_eq!(res.value, 11.0);
        assert!(res.interval.contains(0.0) && res.interval.contains(3.0));
        assert!(!res.interval.contains(-0.5) && !res.interval.contains(3.5));
    }

    #[test]
    fn zero_length_interval_picks_heaviest_stack() {
        let pts =
            vec![LinePoint::new(1.0, 2.0), LinePoint::new(1.0, 3.0), LinePoint::new(2.0, 4.0)];
        let res = max_interval_placement(&pts, 0.0);
        assert_eq!(res.value, 5.0);
    }

    #[test]
    fn empty_input() {
        let res = max_interval_placement(&[], 2.0);
        assert_eq!(res.value, 0.0);
    }

    #[test]
    fn empty_placement_keeps_a_finite_center_at_any_length() {
        let zero = |xs: &[f64]| xs.iter().map(|&x| LinePoint::new(x, 0.0)).collect::<Vec<_>>();
        for xs in [vec![0.0], vec![-1e308, 0.0], vec![0.0, 1e308], vec![3.0, 4.0, 1e300]] {
            let line = SortedLine::new(&zero(&xs));
            for len in [0.0, 1.0, 1e100, 4e307, 1e308, f64::MAX / 2.0] {
                let res = line.max_interval(len);
                assert_eq!(res.value, 0.0);
                let center = 0.5 * (res.interval.lo + res.interval.hi);
                assert!(center.is_finite(), "xs={xs:?} len={len}: {:?}", res.interval);
                assert!(xs.iter().all(|&x| !res.interval.contains(x)), "xs={xs:?} len={len}");
            }
        }
        // Where it fits, the empty placement is the far-left one.
        let res = max_interval_placement(&[LinePoint::new(1.0, -1.0)], 3.0);
        assert_eq!(res.interval, Interval::from_start(1.0 - 2.0 * 3.0 - 2.0, 3.0));
        // No interval of length f64::MAX avoids a point at 0 inside f64: the
        // fallback is centered at 0.
        let res = SortedLine::new(&zero(&[0.0])).max_interval(f64::MAX);
        assert_eq!(0.5 * (res.interval.lo + res.interval.hi), 0.0);
    }

    #[test]
    fn randomized_against_brute_force() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..50 {
            let n = rng.gen_range(1..40);
            let pts: Vec<LinePoint> = (0..n)
                .map(|_| LinePoint::new(rng.gen_range(-10.0..10.0), rng.gen_range(-3.0..5.0)))
                .collect();
            let len = rng.gen_range(0.0..8.0);
            let fast = max_interval_placement(&pts, len);
            let want = brute(&pts, len);
            assert!((fast.value - want).abs() < 1e-9, "len={len} fast={} want={want}", fast.value);
            // The reported interval must actually cover the reported value.
            let xs: Vec<f64> = pts.iter().map(|p| p.x).collect();
            let ws: Vec<f64> = pts.iter().map(|p| p.weight).collect();
            let check = covered_weight(&xs, &ws, &fast.interval);
            assert!((check - fast.value).abs() < 1e-9);
        }
    }

    proptest! {
        /// The counted-block sweep stops every pointer where the one-step
        /// loop does, so value and interval match the reference bit for bit.
        /// Coordinates sit on a coarse grid (duplicates, and runs of equal
        /// or near-equal points longer than a block), nudged by up to 1e-12
        /// (inside the tolerance) or moved freely; lengths include 0, grid
        /// multiples (endpoints landing on points) and one covering every
        /// point.  Prefixes of 1 to 5 points exercise the sub-block tail.
        #[test]
        fn block_sweep_is_bit_identical_to_the_scalar_reference(
            raw in proptest::collection::vec((0u32..12, 0u8..4, -3.0f64..5.0), 1..80),
            len_kind in 0u8..4,
            len_raw in 0.0f64..8.0,
        ) {
            let pts: Vec<LinePoint> = raw
                .iter()
                .map(|&(cell, nudge, w)| {
                    let x = 0.5 * f64::from(cell);
                    let x = match nudge {
                        0 => x,
                        1 => x + 4e-13,
                        2 => x - 1e-12,
                        _ => x + w.abs() * 0.1,
                    };
                    LinePoint::new(x, w)
                })
                .collect();
            let len = match len_kind {
                0 => 0.0,
                1 => 100.0,
                2 => 0.5 * len_raw.floor(),
                _ => len_raw,
            };
            for take in [1, 2, 3, 4, 5, pts.len()] {
                let line = SortedLine::new(&pts[..take.min(pts.len())]);
                let fast = line.max_interval(len);
                let want = scalar_reference(&line, len);
                prop_assert_eq!(bits(&fast), bits(&want), "len={} take={} {:?}", len, take, fast);
            }
        }

        #[test]
        fn value_is_never_below_single_best_point(
            coords in proptest::collection::vec(-50.0f64..50.0, 1..30),
            len in 0.1f64..10.0,
        ) {
            let pts: Vec<LinePoint> =
                coords.iter().map(|&x| LinePoint::new(x, 1.0)).collect();
            let res = max_interval_placement(&pts, len);
            prop_assert!(res.value >= 1.0 - 1e-12);
            prop_assert!(res.value <= pts.len() as f64 + 1e-12);
        }

        #[test]
        fn longer_intervals_never_cover_less_with_positive_weights(
            coords in proptest::collection::vec(-20.0f64..20.0, 1..25),
        ) {
            let pts: Vec<LinePoint> =
                coords.iter().map(|&x| LinePoint::new(x, 1.0)).collect();
            let short = max_interval_placement(&pts, 1.0).value;
            let long = max_interval_placement(&pts, 5.0).value;
            prop_assert!(long + 1e-12 >= short);
        }
    }
}
