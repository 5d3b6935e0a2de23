//! Uniform grids and the shifted-grid collection of Lemma 2.1.
//!
//! The paper's first technique (Section 3) places a collection of shifted
//! uniform grids over `R^d` such that for *any* point `p` there is at least one
//! grid in which `p` lies within distance `Δ` of the center of its cell
//! (Lemma 2.1).  The grids here are purely combinatorial objects — cells are
//! addressed by integer coordinate vectors and never materialized unless a
//! ball actually intersects them.

use crate::aabb::Aabb;
use crate::ball::Ball;
use crate::point::Point;

/// Integer address of a grid cell.
pub type CellCoord<const D: usize> = [i64; D];

/// A uniform axis-aligned grid with cell side `side` and origin offset
/// `offset` (the paper's `G_s(c)`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Grid<const D: usize> {
    /// Cell side length `s`.
    pub side: f64,
    /// Offset `c` of the grid: hyperplanes lie at `c_i + k * s`.
    pub offset: Point<D>,
}

impl<const D: usize> Grid<D> {
    /// Creates a grid with the given cell side and offset.
    ///
    /// # Panics
    /// Panics if `side` is not strictly positive and finite.
    pub fn new(side: f64, offset: Point<D>) -> Self {
        assert!(side.is_finite() && side > 0.0, "grid side must be positive and finite");
        Self { side, offset }
    }

    /// A grid with zero offset.
    pub fn at_origin(side: f64) -> Self {
        Self::new(side, Point::origin())
    }

    /// The integer address of the cell containing `p`.
    ///
    /// Cells are half-open boxes `[c_i + k*s, c_i + (k+1)*s)` so every point
    /// belongs to exactly one cell.
    #[inline]
    pub fn cell_of(&self, p: &Point<D>) -> CellCoord<D> {
        let mut coord = [0i64; D];
        for i in 0..D {
            coord[i] = ((p[i] - self.offset[i]) / self.side).floor() as i64;
        }
        coord
    }

    /// The center of the cell with address `coord`.
    pub fn cell_center(&self, coord: &CellCoord<D>) -> Point<D> {
        let mut c = Point::origin();
        for i in 0..D {
            c[i] = self.offset[i] + (coord[i] as f64 + 0.5) * self.side;
        }
        c
    }

    /// The closed box spanned by the cell with address `coord`.
    pub fn cell_aabb(&self, coord: &CellCoord<D>) -> Aabb<D> {
        let mut lo = Point::origin();
        let mut hi = Point::origin();
        for i in 0..D {
            lo[i] = self.offset[i] + coord[i] as f64 * self.side;
            hi[i] = lo[i] + self.side;
        }
        Aabb::new(lo, hi)
    }

    /// The circumscribed ball of the cell with address `coord` — the sphere the
    /// sampling step of Section 3.1.1 draws its points from.
    pub fn cell_circumball(&self, coord: &CellCoord<D>) -> Ball<D> {
        let center = self.cell_center(coord);
        let radius = self.side * (D as f64).sqrt() / 2.0;
        Ball::new(center, radius)
    }

    /// Distance from `p` to the center of its own cell.  Lemma 2.1 guarantees
    /// this is at most `Δ` in at least one grid of a [`ShiftedGrids`] family.
    pub fn distance_to_cell_center(&self, p: &Point<D>) -> f64 {
        let cell = self.cell_of(p);
        self.cell_center(&cell).dist(p)
    }

    /// Enumerates the addresses of every cell intersected by `ball`.
    ///
    /// Convenience wrapper over [`Self::for_each_cell_intersecting_ball`]
    /// that allocates the result vector; hot paths use the visitor directly.
    pub fn cells_intersecting_ball(&self, ball: &Ball<D>) -> Vec<CellCoord<D>> {
        let mut out = Vec::new();
        self.for_each_cell_intersecting_ball(ball, |cell| out.push(cell));
        out
    }

    /// Calls `f` with the address of every cell intersected by `ball`,
    /// without allocating.
    ///
    /// A unit ball intersects `O((2/s)^d)` cells (proof of Lemma 3.4); the
    /// enumeration walks the integer bounding box of the ball and filters by an
    /// exact ball–box intersection test.
    pub fn for_each_cell_intersecting_ball<F: FnMut(CellCoord<D>)>(
        &self,
        ball: &Ball<D>,
        mut f: F,
    ) {
        let bb = ball.bounding_box();
        let lo = self.cell_of(&bb.lo);
        let hi = self.cell_of(&bb.hi);
        let mut cursor = lo;
        loop {
            let cell_box = self.cell_aabb(&cursor);
            if ball.intersects_aabb(&cell_box) {
                f(cursor);
            }
            // Odometer-style increment over the integer box [lo, hi].  An axis
            // steps only while below `hi`: `cell_of` saturates at `i64::MAX`
            // for coordinates too large for the cell side, and stepping past
            // it would wrap.
            let mut axis = 0;
            loop {
                if axis == D {
                    return;
                }
                if cursor[axis] < hi[axis] {
                    cursor[axis] += 1;
                    break;
                }
                cursor[axis] = lo[axis];
                axis += 1;
            }
        }
    }

    /// Enumerates the addresses of every cell intersected by the box `aabb`.
    pub fn cells_intersecting_aabb(&self, aabb: &Aabb<D>) -> Vec<CellCoord<D>> {
        let lo = self.cell_of(&aabb.lo);
        let hi = self.cell_of(&aabb.hi);
        let mut out = Vec::new();
        let mut cursor = lo;
        loop {
            out.push(cursor);
            // The same saturation-safe odometer as the ball visitor's.
            let mut axis = 0;
            loop {
                if axis == D {
                    return out;
                }
                if cursor[axis] < hi[axis] {
                    cursor[axis] += 1;
                    break;
                }
                cursor[axis] = lo[axis];
                axis += 1;
            }
        }
    }
}

/// The family of shifted grids of Lemma 2.1.
///
/// For a cell side `s` and nearness parameter `Δ`, the family contains the
/// grids `G_s(Δ/√d · z)` for `z ∈ {0, 1, …, ⌈s√d/Δ⌉ − 1}^d`.  For any point
/// `p ∈ R^d` at least one member grid has `p` within distance `Δ` of its cell
/// center.
#[derive(Clone, Debug)]
pub struct ShiftedGrids<const D: usize> {
    grids: Vec<Grid<D>>,
    side: f64,
    delta: f64,
    shifts_per_axis: usize,
}

impl<const D: usize> ShiftedGrids<D> {
    /// Builds the full family of Lemma 2.1.
    ///
    /// # Panics
    /// Panics if `side` or `delta` is not strictly positive, or if the family
    /// would contain more than `10^7` grids (a sign of a mis-parameterized ε).
    pub fn full(side: f64, delta: f64) -> Self {
        Self::with_limit(side, delta, usize::MAX)
    }

    /// Builds the family but keeps at most `max_grids` members, selected by a
    /// deterministic stride over the `z` lattice.  The theoretical guarantee of
    /// Lemma 2.1 needs the full family; capping trades the worst-case guarantee
    /// for speed and is what `mrs_core`'s practical sampling configuration
    /// does (at most 8 grids).
    pub fn with_limit(side: f64, delta: f64, max_grids: usize) -> Self {
        assert!(side.is_finite() && side > 0.0, "grid side must be positive");
        assert!(delta.is_finite() && delta > 0.0, "delta must be positive");
        let d = D as f64;
        let shifts_per_axis = ((side * d.sqrt()) / delta).ceil().max(1.0) as usize;
        let total = (shifts_per_axis as u128).pow(D as u32);
        assert!(
            total <= 10_000_000,
            "shifted grid family would contain {total} grids; increase delta or cap the family"
        );
        let total = total as usize;
        let step = delta / d.sqrt();

        let keep = total.min(max_grids.max(1));
        // Deterministic stride so the kept shifts stay spread over the lattice.
        let stride = (total as f64 / keep as f64).max(1.0);
        let mut grids = Vec::with_capacity(keep);
        let mut cursor = 0.0f64;
        let mut taken = 0usize;
        while taken < keep {
            let index = (cursor.round() as usize).min(total - 1);
            let mut offset = Point::<D>::origin();
            let mut rem = index;
            for i in 0..D {
                let z = rem % shifts_per_axis;
                rem /= shifts_per_axis;
                offset[i] = step * z as f64;
            }
            grids.push(Grid::new(side, offset));
            cursor += stride;
            taken += 1;
        }
        Self { grids, side, delta, shifts_per_axis }
    }

    /// The member grids.
    pub fn grids(&self) -> &[Grid<D>] {
        &self.grids
    }

    /// Number of member grids.
    pub fn len(&self) -> usize {
        self.grids.len()
    }

    /// Returns `true` if the family is empty (never the case after
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.grids.is_empty()
    }

    /// Cell side length `s`.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Nearness parameter `Δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of shifts per axis (`⌈s√d/Δ⌉`).
    pub fn shifts_per_axis(&self) -> usize {
        self.shifts_per_axis
    }

    /// Verifies Lemma 2.1 for a specific point: returns the index of a grid in
    /// which `p` lies within `Δ` of its cell center, if any.
    pub fn near_grid_for(&self, p: &Point<D>) -> Option<usize> {
        self.grids.iter().position(|g| g.distance_to_cell_center(p) <= self.delta + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2;
    use rand::prelude::*;

    #[test]
    fn cell_addressing_round_trip() {
        let g = Grid::<2>::at_origin(1.0);
        assert_eq!(g.cell_of(&Point2::xy(0.5, 0.5)), [0, 0]);
        assert_eq!(g.cell_of(&Point2::xy(-0.5, 1.5)), [-1, 1]);
        assert_eq!(g.cell_center(&[0, 0]), Point2::xy(0.5, 0.5));
        let aabb = g.cell_aabb(&[2, -1]);
        assert_eq!(aabb.lo, Point2::xy(2.0, -1.0));
        assert_eq!(aabb.hi, Point2::xy(3.0, 0.0));
    }

    #[test]
    fn offset_grid_addressing() {
        let g = Grid::<2>::new(2.0, Point2::xy(0.5, 0.5));
        assert_eq!(g.cell_of(&Point2::xy(0.6, 0.6)), [0, 0]);
        assert_eq!(g.cell_of(&Point2::xy(0.4, 0.6)), [-1, 0]);
    }

    #[test]
    fn circumball_covers_cell() {
        let g = Grid::<3>::at_origin(1.0);
        let ball = g.cell_circumball(&[0, 0, 0]);
        let cell = g.cell_aabb(&[0, 0, 0]);
        for corner in cell.corners() {
            assert!(ball.contains(&corner));
        }
        assert!((ball.radius - 3.0f64.sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn cells_intersecting_unit_ball_count() {
        let g = Grid::<2>::at_origin(0.5);
        let ball = Ball::unit(Point2::xy(0.3, 0.3));
        let cells = g.cells_intersecting_ball(&ball);
        // Every returned cell really intersects, and the cell containing the
        // center is present.
        assert!(cells.contains(&g.cell_of(&ball.center)));
        for c in &cells {
            assert!(ball.intersects_aabb(&g.cell_aabb(c)));
        }
        // A unit disk on a 0.5 grid intersects at most (2/0.5 + 2)^2 cells.
        assert!(cells.len() <= 36);
        assert!(cells.len() >= 9);
    }

    #[test]
    fn walks_end_where_cell_addresses_saturate() {
        // At x = 1e300 on a side-1 grid every x address saturates at
        // `i64::MAX`; both walks must end instead of wrapping round.
        let g = Grid::<2>::at_origin(1.0);
        let ball = Ball::unit(Point2::xy(1e300, 0.0));
        let mut visited = 0usize;
        g.for_each_cell_intersecting_ball(&ball, |_| visited += 1);
        assert!(visited <= 9, "visited {visited} cells");
        let cells = g.cells_intersecting_aabb(&ball.bounding_box());
        assert_eq!(cells, vec![[i64::MAX, -1], [i64::MAX, 0], [i64::MAX, 1]]);
    }

    #[test]
    fn lemma_2_1_near_grid_exists() {
        // s = 2ε/√d, Δ = ε² as used by Technique 1.
        let eps = 0.4f64;
        let d = 2.0f64;
        let grids = ShiftedGrids::<2>::full(2.0 * eps / d.sqrt(), eps * eps);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let p = Point2::xy(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0));
            assert!(
                grids.near_grid_for(&p).is_some(),
                "Lemma 2.1 violated for {p:?} with {} grids",
                grids.len()
            );
        }
    }

    #[test]
    fn lemma_2_1_in_three_dimensions() {
        let eps = 0.6f64;
        let d = 3.0f64;
        let grids = ShiftedGrids::<3>::full(2.0 * eps / d.sqrt(), eps * eps);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let p = Point::new([
                rng.gen_range(-3.0..3.0),
                rng.gen_range(-3.0..3.0),
                rng.gen_range(-3.0..3.0),
            ]);
            assert!(grids.near_grid_for(&p).is_some());
        }
    }

    #[test]
    fn limited_family_is_subset_and_smaller() {
        let full = ShiftedGrids::<2>::full(0.5, 0.1);
        let limited = ShiftedGrids::<2>::with_limit(0.5, 0.1, 4);
        assert!(limited.len() <= 4);
        assert!(full.len() >= limited.len());
        for g in limited.grids() {
            assert!(full.grids().iter().any(|f| (f.offset.dist(&g.offset)) < 1e-12));
        }
    }

    #[test]
    fn shifts_per_axis_formula() {
        let fam = ShiftedGrids::<2>::full(1.0, 0.25);
        // s√d/Δ = √2 / 0.25 ≈ 5.66 → 6 shifts per axis → 36 grids.
        assert_eq!(fam.shifts_per_axis(), 6);
        assert_eq!(fam.len(), 36);
    }

    #[test]
    fn cells_intersecting_aabb_covers_box() {
        let g = Grid::<2>::at_origin(1.0);
        let b = Aabb::new(Point2::xy(0.2, 0.2), Point2::xy(2.3, 1.1));
        let cells = g.cells_intersecting_aabb(&b);
        assert_eq!(cells.len(), 6); // 3 columns x 2 rows
    }
}
