//! The shared sampling structure of Technique 1 (Section 3).
//!
//! The structure keeps, for every shifted grid of the Lemma 2.1 family and
//! every *non-empty* cell (a cell intersected by at least one dual ball), a
//! set of `t = Θ(ε^{-2} log n)` points sampled uniformly on the cell's
//! circumsphere, together with the current (weighted or colored) depth of each
//! sample point.  Inserting or deleting a ball touches only the samples of the
//! `O(ε^{-2d})` cells it intersects, which is what gives the
//! `O(ε^{-2d-2} log n)` update time of Theorem 1.1.  Each cell keeps its
//! deepest sample, refreshed by the updates that touch the cell, and the one
//! read, [`SampleSet::best`], scans those per-cell maxima.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mrs_geom::grid::CellCoord;
use mrs_geom::sphere::sample_points_on_boundary;
use mrs_geom::{Ball, Point, ShiftedGrids};

use crate::config::SamplingConfig;

/// Identifies one cell of one grid in the shifted family.
pub type CellKey<const D: usize> = (u32, CellCoord<D>);

/// Sentinel for "no color seen yet" in the colored-depth flag.
const NO_COLOR: i64 = -1;

#[derive(Clone, Debug)]
struct CellSamples<const D: usize> {
    points: Vec<Point<D>>,
    depth: Vec<f64>,
    /// Most recent color that contributed to each sample (colored mode only).
    flag: Vec<i64>,
    max_depth: f64,
    argmax: u32,
}

impl<const D: usize> CellSamples<D> {
    fn new(points: Vec<Point<D>>) -> Self {
        let len = points.len();
        Self { points, depth: vec![0.0; len], flag: vec![NO_COLOR; len], max_depth: 0.0, argmax: 0 }
    }

    fn recompute_max(&mut self) {
        let mut best = f64::NEG_INFINITY;
        let mut arg = 0u32;
        for (i, &d) in self.depth.iter().enumerate() {
            if d > best {
                best = d;
                arg = i as u32;
            }
        }
        self.max_depth = best;
        self.argmax = arg;
    }
}

/// The point-sampling structure shared by the static, dynamic and colored
/// variants of Technique 1.  Operates entirely in the *dual, unit-radius*
/// coordinate system (see [`crate::technique1::weighted_sample_set`]).
#[derive(Clone, Debug)]
pub struct SampleSet<const D: usize> {
    config: SamplingConfig,
    grids: ShiftedGrids<D>,
    samples_per_cell: usize,
    cells: HashMap<CellKey<D>, CellSamples<D>>,
    rng: StdRng,
    total_samples: usize,
}

impl<const D: usize> SampleSet<D> {
    /// Creates an empty structure sized for roughly `expected_n` balls.
    pub fn new(config: SamplingConfig, expected_n: usize) -> Self {
        let side = config.grid_side(D);
        let delta = config.grid_delta();
        let grids = match config.max_grids {
            Some(limit) => ShiftedGrids::with_limit(side, delta, limit),
            None => ShiftedGrids::full(side, delta),
        };
        let samples_per_cell = config.samples_per_cell(expected_n);
        Self {
            config,
            grids,
            samples_per_cell,
            cells: HashMap::new(),
            rng: StdRng::seed_from_u64(config.seed),
            total_samples: 0,
        }
    }

    /// The configuration this structure was built with.
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }

    /// Number of shifted grids in use.
    pub fn grid_count(&self) -> usize {
        self.grids.len()
    }

    /// Number of sample points drawn per non-empty cell.
    pub fn samples_per_cell(&self) -> usize {
        self.samples_per_cell
    }

    /// Number of non-empty cells currently materialized (across all grids).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total number of sample points currently maintained.
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// Applies `f` to every sample point inside `ball`, materializing cells
    /// on first touch, and refreshes the maximum of every cell it changed.
    /// Cell enumeration goes through the allocation-free grid visitor, so an
    /// update allocates only when it materializes a new cell.
    fn for_each_sample_in_ball<F: FnMut(&mut CellSamples<D>, usize)>(
        &mut self,
        ball: &Ball<D>,
        mut f: F,
    ) {
        let Self { grids, cells, rng, samples_per_cell, total_samples, .. } = self;
        for (gi, grid) in grids.grids().iter().enumerate() {
            grid.for_each_cell_intersecting_ball(ball, |cell| {
                let entry = cells.entry((gi as u32, cell)).or_insert_with(|| {
                    let circumball = grid.cell_circumball(&cell);
                    let pts = sample_points_on_boundary(&circumball, *samples_per_cell, rng);
                    *total_samples += pts.len();
                    CellSamples::new(pts)
                });
                let mut any = false;
                for i in 0..entry.points.len() {
                    if ball.contains(&entry.points[i]) {
                        f(entry, i);
                        any = true;
                    }
                }
                if any {
                    entry.recompute_max();
                }
            });
        }
    }

    /// Adds a weighted ball: the weighted depth of every sample point inside
    /// it increases by `weight`.
    pub fn insert_ball(&mut self, ball: &Ball<D>, weight: f64) {
        self.for_each_sample_in_ball(ball, |cell, i| cell.depth[i] += weight);
    }

    /// Removes a weighted ball previously added with [`Self::insert_ball`].
    pub fn remove_ball(&mut self, ball: &Ball<D>, weight: f64) {
        self.for_each_sample_in_ball(ball, |cell, i| cell.depth[i] -= weight);
    }

    /// Adds a colored ball.  Balls **must** be inserted grouped by color
    /// (Section 3.2): the per-sample flag records the last color seen, so the
    /// colored depth counts each color at most once per sample.
    pub fn insert_colored_ball(&mut self, ball: &Ball<D>, color: usize) {
        let color = color as i64;
        self.for_each_sample_in_ball(ball, |cell, i| {
            if cell.flag[i] != color {
                cell.flag[i] = color;
                cell.depth[i] += 1.0;
            }
        });
    }

    /// The deepest sample point and its depth, or `None` if no cell has been
    /// materialized yet.  Coordinates are in the dual (scaled) system.  A
    /// scan over the per-cell maxima, `O(cells)`: Theorem 1.1 bounds the cost
    /// of an update, not of a read.  Ties go to the greatest `(grid, cell)`
    /// key, so the answer does not depend on the map's iteration order.
    pub fn best(&self) -> Option<(Point<D>, f64)> {
        self.cells
            .iter()
            .max_by(|(key_a, a), (key_b, b)| {
                a.max_depth.total_cmp(&b.max_depth).then_with(|| key_a.cmp(key_b))
            })
            .map(|(_, cell)| (cell.points[cell.argmax as usize], cell.max_depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_geom::Point2;

    fn config() -> SamplingConfig {
        SamplingConfig::practical(0.25).with_seed(42)
    }

    #[test]
    fn empty_structure_has_no_best() {
        let set = SampleSet::<2>::new(config(), 16);
        assert!(set.best().is_none());
        assert_eq!(set.cell_count(), 0);
    }

    #[test]
    fn single_ball_depth_is_its_weight() {
        let mut set = SampleSet::<2>::new(config(), 16);
        set.insert_ball(&Ball::unit(Point2::xy(0.0, 0.0)), 3.5);
        let (p, v) = set.best().unwrap();
        assert_eq!(v, 3.5);
        // The best sample must genuinely lie inside the ball.
        assert!(Ball::unit(Point2::xy(0.0, 0.0)).contains(&p));
        assert!(set.total_samples() > 0);
    }

    #[test]
    fn overlapping_balls_accumulate_weight() {
        let mut set = SampleSet::<2>::new(config(), 16);
        let a = Ball::unit(Point2::xy(0.0, 0.0));
        let b = Ball::unit(Point2::xy(0.2, 0.0));
        let c = Ball::unit(Point2::xy(10.0, 0.0));
        set.insert_ball(&a, 1.0);
        set.insert_ball(&b, 2.0);
        set.insert_ball(&c, 10.0);
        let (_, v) = set.best().unwrap();
        // The isolated heavy ball dominates.
        assert_eq!(v, 10.0);
        set.remove_ball(&c, 10.0);
        let (p, v) = set.best().unwrap();
        assert_eq!(v, 3.0);
        assert!(a.contains(&p) && b.contains(&p));
    }

    #[test]
    fn deletion_restores_previous_best() {
        let mut set = SampleSet::<2>::new(config(), 16);
        let a = Ball::unit(Point2::xy(0.0, 0.0));
        set.insert_ball(&a, 1.0);
        let b = Ball::unit(Point2::xy(0.1, 0.1));
        set.insert_ball(&b, 1.0);
        assert_eq!(set.best().unwrap().1, 2.0);
        set.remove_ball(&b, 1.0);
        assert_eq!(set.best().unwrap().1, 1.0);
        set.remove_ball(&a, 1.0);
        assert_eq!(set.best().unwrap().1, 0.0);
    }

    #[test]
    fn colored_insertions_count_each_color_once() {
        let mut set = SampleSet::<2>::new(config(), 16);
        let here = Point2::xy(0.0, 0.0);
        // Two balls of color 0 and one of color 1, all covering the origin
        // area; inserted grouped by color.
        set.insert_colored_ball(&Ball::unit(here), 0);
        set.insert_colored_ball(&Ball::unit(Point2::xy(0.05, 0.0)), 0);
        set.insert_colored_ball(&Ball::unit(Point2::xy(0.0, 0.05)), 1);
        let (_, v) = set.best().unwrap();
        assert_eq!(v, 2.0, "duplicate color must not be double counted");
    }

    #[test]
    fn best_is_a_true_depth_lower_bound() {
        // Whatever sample the structure reports, its reported depth must equal
        // the true weighted depth of that point with respect to the inserted
        // balls (the structure never over-reports).
        let mut set = SampleSet::<2>::new(config(), 32);
        let balls: Vec<Ball<2>> = (0..20)
            .map(|i| Ball::unit(Point2::xy((i % 5) as f64 * 0.3, (i / 5) as f64 * 0.3)))
            .collect();
        for b in &balls {
            set.insert_ball(b, 1.0);
        }
        let (p, v) = set.best().unwrap();
        let true_depth = balls.iter().filter(|b| b.contains(&p)).count() as f64;
        assert_eq!(v, true_depth);
    }

    #[test]
    fn works_in_three_dimensions() {
        let mut set = SampleSet::<3>::new(SamplingConfig::practical(0.35).with_seed(7), 8);
        let a = Ball::unit(Point::new([0.0, 0.0, 0.0]));
        let b = Ball::unit(Point::new([0.3, 0.0, 0.0]));
        set.insert_ball(&a, 1.0);
        set.insert_ball(&b, 1.0);
        let (p, v) = set.best().unwrap();
        assert_eq!(v, 2.0);
        assert!(a.contains(&p) && b.contains(&p));
    }
}
