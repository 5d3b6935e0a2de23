//! Batched MaxRS on the real line (Section 5 of the paper).
//!
//! Given `n` weighted points and `m` interval lengths, solve the MaxRS problem
//! for every length.  The solver here sorts the points once and answers each
//! length with the linear sorted-line sweep, for a total of `O(n log n + m·n)` —
//! the upper bound that Theorem 1.3's conditional Ω(mn) lower bound (proved
//! via the (min,+)-convolution reduction in `mrs-hardness`) shows is
//! essentially the best possible.

use mrs_core::exact::interval1d::{IntervalPlacement, LinePoint, SortedLine};

/// A batched MaxRS solver over a fixed 1-D point set.
///
/// # Example
/// ```
/// use mrs_batched::{BatchedMaxRS1D, LinePoint};
///
/// let points = vec![
///     LinePoint::new(0.0, 1.0),
///     LinePoint::new(0.8, 1.0),
///     LinePoint::new(5.0, 1.0),
/// ];
/// let solver = BatchedMaxRS1D::new(&points);
/// let answers = solver.solve(&[1.0, 10.0]);
/// assert_eq!(answers[0].value, 2.0);
/// assert_eq!(answers[1].value, 3.0);
/// ```
///
#[derive(Clone, Debug)]
pub struct BatchedMaxRS1D {
    line: SortedLine,
}

impl BatchedMaxRS1D {
    /// Builds the solver in `O(n log n)`.
    pub fn new(points: &[LinePoint]) -> Self {
        Self::from_sorted(SortedLine::new(points))
    }

    /// Adopts an already-sorted line in `O(1)`, skipping the sort.
    pub fn from_sorted(line: SortedLine) -> Self {
        Self { line }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.line.len()
    }

    /// Returns `true` if there are no points.
    pub fn is_empty(&self) -> bool {
        self.line.is_empty()
    }

    /// Solves MaxRS for a single interval length in `O(n)`: the sorted-line
    /// sweep of [`SortedLine::max_interval`].
    ///
    /// # Panics
    /// Panics if `len` is negative or not finite.
    pub fn solve_one(&self, len: f64) -> IntervalPlacement {
        self.line.max_interval(len)
    }

    /// Solves MaxRS for every length in `lengths`, in `O(m·n)` after the
    /// `O(n log n)` build.
    pub fn solve(&self, lengths: &[f64]) -> Vec<IntervalPlacement> {
        lengths.iter().map(|&len| self.solve_one(len)).collect()
    }
}

/// Convenience function: batched MaxRS over an unsorted point list.
pub fn batched_maxrs_1d(points: &[LinePoint], lengths: &[f64]) -> Vec<IntervalPlacement> {
    BatchedMaxRS1D::new(points).solve(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_geom::interval::covered_weight;
    use mrs_geom::Interval;
    use proptest::prelude::*;
    use rand::prelude::*;

    #[test]
    fn empty_input() {
        let solver = BatchedMaxRS1D::new(&[]);
        assert!(solver.is_empty());
        let res = solver.solve(&[1.0, 2.0]);
        assert_eq!(res.len(), 2);
        assert!(res.iter().all(|r| r.value == 0.0));
    }

    #[test]
    fn matches_brute_force_covered_weight() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let n = rng.gen_range(1..60);
            let points: Vec<LinePoint> = (0..n)
                .map(|_| LinePoint::new(rng.gen_range(-20.0..20.0), rng.gen_range(-2.0..5.0)))
                .collect();
            let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
            let ws: Vec<f64> = points.iter().map(|p| p.weight).collect();
            let lengths: Vec<f64> = (0..10).map(|_| rng.gen_range(0.0..15.0)).collect();
            let solver = BatchedMaxRS1D::new(&points);
            for (&len, got) in lengths.iter().zip(solver.solve(&lengths)) {
                // Every placement with an endpoint on a point, and the empty one.
                let want = xs
                    .iter()
                    .flat_map(|&x| [x, x - len])
                    .map(|start| covered_weight(&xs, &ws, &Interval::from_start(start, len)))
                    .fold(0.0, f64::max);
                assert!((got.value - want).abs() < 1e-9, "len {len}: {} vs {want}", got.value);
                let covered = covered_weight(&xs, &ws, &got.interval);
                assert!((covered - got.value).abs() < 1e-9, "len {len}: interval covers {covered}");
            }
        }
    }

    #[test]
    fn increasing_lengths_cover_no_less_weight_for_positive_points() {
        let points: Vec<LinePoint> = (0..50).map(|i| LinePoint::new(i as f64 * 0.7, 1.0)).collect();
        let solver = BatchedMaxRS1D::new(&points);
        let lengths: Vec<f64> = (1..20).map(|i| i as f64).collect();
        let res = solver.solve(&lengths);
        for w in res.windows(2) {
            assert!(w[1].value + 1e-12 >= w[0].value);
        }
    }

    #[test]
    fn guarded_points_behave_like_the_reduction_expects() {
        // The Section 5.4 gadget: positive points with negative guards half a
        // unit to the side.  The best interval of length 3 grabs the two
        // positive points without either guard.
        let points = vec![
            LinePoint::new(0.0, 4.0),
            LinePoint::new(-0.5, -4.0),
            LinePoint::new(3.0, 7.0),
            LinePoint::new(3.5, -7.0),
        ];
        let solver = BatchedMaxRS1D::new(&points);
        let res = solver.solve(&[3.0, 0.5, 10.0]);
        assert_eq!(res[0].value, 11.0);
        assert_eq!(res[1].value, 7.0);
        // Length 10 cannot avoid a guard on one side; the best it can do is end
        // exactly at the second positive point and drop its guard.
        assert_eq!(res[2].value, 7.0);
    }

    proptest! {
        #[test]
        fn value_is_between_zero_and_total_positive_weight(
            coords in proptest::collection::vec((-30.0f64..30.0, -3.0f64..6.0), 1..50),
            lengths in proptest::collection::vec(0.0f64..20.0, 1..10),
        ) {
            let points: Vec<LinePoint> =
                coords.iter().map(|&(x, w)| LinePoint::new(x, w)).collect();
            let positive_total: f64 = points.iter().map(|p| p.weight.max(0.0)).sum();
            let solver = BatchedMaxRS1D::new(&points);
            for r in solver.solve(&lengths) {
                prop_assert!(r.value >= -1e-9);
                prop_assert!(r.value <= positive_total + 1e-9);
            }
        }
    }
}
