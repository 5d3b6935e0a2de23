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
//!
//! **Layout.**  Cells are numbered at first touch.  A [`SampleSet`] keeps
//! one map from a cell's key to its number (std's keyed hasher: the keys
//! come from client coordinates), and flat vectors indexed by that number:
//! one block of `t` sample coordinates per axis per cell, `t` depths per
//! cell, each cell's maximum and first argmax, and, in colored sets only,
//! `t` group flags per cell.
//!
//! **Two build orders.**  Both apply balls through the same per-cell
//! kernels: one applies one ball to one cell's block, one takes a block's
//! first maximum.
//! * *Ball by ball* ([`SampleSet::insert_ball`] and friends) is the
//!   tracker's order: each ball walks its cells, drawing a cell's samples
//!   when the cell is first touched.
//! * *Cell by cell* is the static builders' order (`static_best`), for
//!   Theorems 1.2 and 1.5, which report only the deepest sample.  One walk
//!   over the balls numbers the cells in first-touch order and counts the
//!   `(ball, cell)` incidences; a second walk lays the ball ids out by cell
//!   (a stable counting sort).  Then each cell in number order draws its
//!   samples, applies its balls in input order, and folds its maximum into
//!   the running best, reusing one block for every cell.  Only the
//!   [`SampledBest`] is kept.
//!
//! **Same answers.**  Both orders give the same [`SampledBest`], bit for
//! bit: every sample's depth is summed over the same balls in the same
//! order; cells draw their samples from the one seeded RNG in first-touch
//! order in both; a cell's maximum depends only on its final depths; and
//! ties go the same way (greatest depth, then greatest `(grid, cell)` key).
//!
//! **Transient memory.**  The cell-by-cell build holds the cell map and
//! 4 bytes per incidence, never the set: on 2,000 clustered planar points
//! at `r = 1` it peaks at 6.4 MiB, where the set allocates 92 MiB.  Where a cell averages so many
//! balls that the incidences would outweigh the flat set, the static build
//! inserts ball by ball into a flat set instead, so no build holds more
//! than the set it replaces.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mrs_geom::grid::CellCoord;
use mrs_geom::sphere::sample_on_ball_boundary;
use mrs_geom::{Ball, Point, ShiftedGrids};

use crate::config::SamplingConfig;

/// Identifies one cell of one grid in the shifted family.
pub type CellKey<const D: usize> = (u32, CellCoord<D>);

/// The colored flag of a sample no group has reached yet.
const NO_GROUP: u32 = u32::MAX;

/// What one ball adds to the samples it contains.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Mark {
    /// Its weight (negative to take a ball out again).
    Weight(f64),
    /// One unit, once per color group: the group's ordinal, never
    /// [`NO_GROUP`].  Balls must arrive grouped (Section 3.2).
    Group(u32),
}

/// What the static builders keep of a sample set: its deepest sample (in
/// the dual system) and its size.  About a hundred bytes, whatever the set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledBest<const D: usize> {
    /// The deepest sample and its depth ([`SampleSet::best`]); `None` when
    /// no cell was touched.
    pub best: Option<(Point<D>, f64)>,
    /// Shifted grids in use.
    pub grids: usize,
    /// Non-empty cells across all grids.
    pub cells: usize,
    /// Sample points drawn.
    pub samples: usize,
}

/// The point-sampling structure shared by the static, dynamic and colored
/// variants of Technique 1.  Operates entirely in the *dual, unit-radius*
/// coordinate system (see [`crate::technique1::weighted_sample_set`]).
#[derive(Clone, Debug)]
pub struct SampleSet<const D: usize> {
    config: SamplingConfig,
    grids: ShiftedGrids<D>,
    samples_per_cell: usize,
    /// Cell number by key, assigned at first touch.
    numbers: HashMap<CellKey<D>, u32>,
    /// Cell key by number.
    keys: Vec<CellKey<D>>,
    /// Cell `c`'s samples: `coords[(c·D + axis)·t + i]` is axis `axis` of
    /// sample `i`.
    coords: Vec<f64>,
    /// Cell `c`'s depths: `depth[c·t + i]`.
    depth: Vec<f64>,
    /// Colored sets only, laid out like `depth`: the last group that
    /// reached each sample.
    flags: Vec<u32>,
    colored: bool,
    /// Each cell's greatest depth and the first of its samples that reaches it.
    max_depth: Vec<f64>,
    argmax: Vec<u32>,
    rng: StdRng,
}

/// The shifted grid family `config` asks for in `D` dimensions.
fn grid_family<const D: usize>(config: &SamplingConfig) -> ShiftedGrids<D> {
    let side = config.grid_side(D);
    let delta = config.grid_delta();
    match config.max_grids {
        Some(limit) => ShiftedGrids::with_limit(side, delta, limit),
        None => ShiftedGrids::full(side, delta),
    }
}

/// The squared reach of `ball` exactly as [`Ball::contains`] tests it.
fn reach_sq<const D: usize>(ball: &Ball<D>) -> f64 {
    let r = ball.radius * (1.0 + 1e-12) + 1e-12;
    r * r
}

/// Draws one cell's samples on its circumball into `block` (`t` values per
/// axis), in the order [`mrs_geom::sphere::sample_points_on_boundary`]
/// draws them.
fn draw_block<const D: usize>(circumball: &Ball<D>, rng: &mut StdRng, block: &mut [f64]) {
    let t = block.len() / D;
    for i in 0..t {
        let p = sample_on_ball_boundary(circumball, rng);
        for axis in 0..D {
            block[axis * t + i] = p[axis];
        }
    }
}

/// Sample `i` of a block of `t` samples per axis.
fn block_point<const D: usize>(block: &[f64], t: usize, i: usize) -> Point<D> {
    Point::new(std::array::from_fn(|axis| block[axis * t + i]))
}

/// Applies one ball (`center`, squared reach `r_sq`) to one cell's block:
/// each sample inside gets `mark`.  `dist²` is summed as [`Ball::contains`]
/// sums it, and the update is a select, so every depth equals the branchy
/// loop's.  Returns whether any sample was inside.
fn apply_ball<const D: usize>(
    block: &[f64],
    depth: &mut [f64],
    flags: &mut [u32],
    center: &Point<D>,
    r_sq: f64,
    mark: Mark,
) -> bool {
    let t = depth.len();
    let inside = |i: usize| {
        let mut acc = 0.0;
        for axis in 0..D {
            let d = center[axis] - block[axis * t + i];
            acc += d * d;
        }
        acc <= r_sq
    };
    let mut any = false;
    match mark {
        Mark::Weight(w) => {
            for (i, d) in depth.iter_mut().enumerate() {
                let hit = inside(i);
                *d = if hit { *d + w } else { *d };
                any |= hit;
            }
        }
        Mark::Group(g) => {
            for (i, (d, flag)) in depth.iter_mut().zip(flags.iter_mut()).enumerate() {
                let hit = inside(i);
                *d = if hit & (*flag != g) { *d + 1.0 } else { *d };
                *flag = if hit { g } else { *flag };
                any |= hit;
            }
        }
    }
    any
}

/// A block's greatest depth and the first sample that reaches it.
fn block_max(depth: &[f64]) -> (f64, u32) {
    let mut max = f64::NEG_INFINITY;
    let mut arg = 0u32;
    for (i, &d) in depth.iter().enumerate() {
        if d > max {
            max = d;
            arg = i as u32;
        }
    }
    (max, arg)
}

/// The tie order of [`SampleSet::best`]: greater depth first, then the
/// greater `(grid, cell)` key, so the answer does not depend on the order
/// cells are visited in.
fn outranks<const D: usize>(a: (f64, &CellKey<D>), b: (f64, &CellKey<D>)) -> bool {
    a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)).is_gt()
}

impl<const D: usize> SampleSet<D> {
    /// Creates an empty weighted structure sized for roughly `expected_n`
    /// balls.
    pub fn new(config: SamplingConfig, expected_n: usize) -> Self {
        Self::with_kind(config, expected_n, false)
    }

    /// Creates an empty colored structure sized for roughly `expected_n`
    /// balls; fill it with [`Self::insert_colored_ball`].
    pub fn colored(config: SamplingConfig, expected_n: usize) -> Self {
        Self::with_kind(config, expected_n, true)
    }

    fn with_kind(config: SamplingConfig, expected_n: usize, colored: bool) -> Self {
        Self {
            config,
            grids: grid_family(&config),
            samples_per_cell: config.samples_per_cell(expected_n),
            numbers: HashMap::new(),
            keys: Vec::new(),
            coords: Vec::new(),
            depth: Vec::new(),
            flags: Vec::new(),
            colored,
            max_depth: Vec::new(),
            argmax: Vec::new(),
            rng: StdRng::seed_from_u64(config.seed),
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
        self.keys.len()
    }

    /// Total number of sample points currently maintained.
    pub fn total_samples(&self) -> usize {
        self.keys.len() * self.samples_per_cell
    }

    /// Applies `mark` to every sample point inside `ball`, numbering and
    /// sampling cells on first touch, and refreshes the maximum of every
    /// cell that had a sample inside.  Cell enumeration goes through the
    /// allocation-free grid visitor, so an update allocates only when it
    /// materializes a new cell.
    fn apply(&mut self, ball: &Ball<D>, mark: Mark) {
        let Self {
            grids,
            samples_per_cell,
            numbers,
            keys,
            coords,
            depth,
            flags,
            colored,
            max_depth,
            argmax,
            rng,
            ..
        } = self;
        let t = *samples_per_cell;
        let r_sq = reach_sq(ball);
        for (gi, grid) in grids.grids().iter().enumerate() {
            grid.for_each_cell_intersecting_ball(ball, |cell| {
                let key = (gi as u32, cell);
                let c = *numbers.entry(key).or_insert_with(|| {
                    keys.push(key);
                    let start = coords.len();
                    coords.resize(start + D * t, 0.0);
                    draw_block(&grid.cell_circumball(&cell), rng, &mut coords[start..]);
                    depth.resize(depth.len() + t, 0.0);
                    if *colored {
                        flags.resize(flags.len() + t, NO_GROUP);
                    }
                    max_depth.push(0.0);
                    argmax.push(0);
                    (keys.len() - 1) as u32
                }) as usize;
                let cell_flags = if *colored { &mut flags[c * t..(c + 1) * t] } else { &mut [] };
                let cell_depth = &mut depth[c * t..(c + 1) * t];
                let block = &coords[c * D * t..(c + 1) * D * t];
                if apply_ball(block, cell_depth, cell_flags, &ball.center, r_sq, mark) {
                    (max_depth[c], argmax[c]) = block_max(cell_depth);
                }
            });
        }
    }

    /// Adds a weighted ball: the weighted depth of every sample point inside
    /// it increases by `weight`.
    pub fn insert_ball(&mut self, ball: &Ball<D>, weight: f64) {
        self.apply(ball, Mark::Weight(weight));
    }

    /// Removes a weighted ball previously added with [`Self::insert_ball`].
    pub fn remove_ball(&mut self, ball: &Ball<D>, weight: f64) {
        self.apply(ball, Mark::Weight(-weight));
    }

    /// Adds a ball of color group `group` to a [`Self::colored`] set.
    /// Balls **must** be inserted grouped (Section 3.2), and `group` is the
    /// group's ordinal, below `u32::MAX`: the per-sample flag records the
    /// last group seen, so the colored depth counts each group at most once
    /// per sample.
    ///
    /// # Panics
    /// Panics on a weighted set or on `group == u32::MAX`.
    pub fn insert_colored_ball(&mut self, ball: &Ball<D>, group: u32) {
        assert!(self.colored, "colored balls go into a colored sample set");
        assert!(group != NO_GROUP, "group ordinal u32::MAX is reserved");
        self.apply(ball, Mark::Group(group));
    }

    /// The deepest sample point and its depth, or `None` if no cell has been
    /// materialized yet.  Coordinates are in the dual (scaled) system.  A
    /// scan over the per-cell maxima, `O(cells)`: Theorem 1.1 bounds the cost
    /// of an update, not of a read.  Ties go to the greatest `(grid, cell)`
    /// key.
    pub fn best(&self) -> Option<(Point<D>, f64)> {
        let mut top: Option<usize> = None;
        for c in 0..self.keys.len() {
            let ahead = top.is_none_or(|b| {
                outranks((self.max_depth[c], &self.keys[c]), (self.max_depth[b], &self.keys[b]))
            });
            if ahead {
                top = Some(c);
            }
        }
        let t = self.samples_per_cell;
        top.map(|c| {
            let block = &self.coords[c * D * t..(c + 1) * D * t];
            (block_point(block, t, self.argmax[c] as usize), self.max_depth[c])
        })
    }

    /// What a static build keeps of this set.
    pub fn sampled_best(&self) -> SampledBest<D> {
        SampledBest {
            best: self.best(),
            grids: self.grid_count(),
            cells: self.cell_count(),
            samples: self.total_samples(),
        }
    }
}

/// Bytes of a flat set of `cells` cells of `t` samples each.
fn flat_set_bytes<const D: usize>(cells: usize, t: usize, colored: bool) -> usize {
    let per_sample =
        (D + 1) * std::mem::size_of::<f64>() + if colored { std::mem::size_of::<u32>() } else { 0 };
    cells * (t * per_sample + std::mem::size_of::<f64>() + std::mem::size_of::<u32>())
}

/// The [`SampledBest`] of the set that inserting `balls` (dual unit balls:
/// centers and marks, in insertion order) builds, without keeping the set.
/// Cell by cell, unless the incidences would outweigh the flat set; see
/// the [module docs](self).
pub(crate) fn static_best<const D: usize>(
    config: SamplingConfig,
    balls: &[(Point<D>, Mark)],
) -> SampledBest<D> {
    by_cell(config, balls, true).unwrap_or_else(|| by_ball(config, balls))
}

/// The ball-by-ball build order: one flat set, filled as a tracker fills it.
fn by_ball<const D: usize>(config: SamplingConfig, balls: &[(Point<D>, Mark)]) -> SampledBest<D> {
    let colored = matches!(balls.first(), Some((_, Mark::Group(_))));
    let mut set = SampleSet::with_kind(config, balls.len(), colored);
    for &(center, mark) in balls {
        set.apply(&Ball::unit(center), mark);
    }
    set.sampled_best()
}

/// The cell-by-cell build order.  `None` when `dense_fallback` is set and
/// the incidence list would outweigh the flat set.
fn by_cell<const D: usize>(
    config: SamplingConfig,
    balls: &[(Point<D>, Mark)],
    dense_fallback: bool,
) -> Option<SampledBest<D>> {
    assert!(balls.len() < u32::MAX as usize, "ball ids must fit in u32");
    let grids = grid_family::<D>(&config);
    let t = config.samples_per_cell(balls.len());
    let colored = matches!(balls.first(), Some((_, Mark::Group(_))));
    let walk = |f: &mut dyn FnMut(usize, CellKey<D>)| {
        for (b, (center, _)) in balls.iter().enumerate() {
            let ball = Ball::unit(*center);
            for (gi, grid) in grids.grids().iter().enumerate() {
                grid.for_each_cell_intersecting_ball(&ball, |cell| f(b, (gi as u32, cell)));
            }
        }
    };

    // Walk 1: number the cells at first touch and count their balls.
    let mut numbers: HashMap<CellKey<D>, u32> = HashMap::new();
    let mut keys: Vec<CellKey<D>> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    walk(&mut |_, key| {
        let c = *numbers.entry(key).or_insert_with(|| {
            keys.push(key);
            ends.push(0);
            (keys.len() - 1) as u32
        });
        ends[c as usize] += 1;
    });
    let incidences: usize = ends.iter().sum();
    let list_bytes = incidences * std::mem::size_of::<u32>();
    if dense_fallback && list_bytes > flat_set_bytes::<D>(keys.len(), t, colored) {
        return None;
    }

    // Walk 2: a stable counting sort of the ball ids by cell.  `ends[c]`
    // runs from cell `c`'s first slot to one past its last.
    let mut start = 0;
    for end in &mut ends {
        let count = *end;
        *end = start;
        start += count;
    }
    let mut ids = vec![0u32; incidences];
    walk(&mut |b, key| {
        let slot = &mut ends[numbers[&key] as usize];
        ids[*slot] = b as u32;
        *slot += 1;
    });
    drop(numbers);

    // The cells in number order, one reused block.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut block = vec![0.0; D * t];
    let mut depth = vec![0.0; t];
    let mut flags = if colored { vec![NO_GROUP; t] } else { Vec::new() };
    let r_sq = reach_sq(&Ball::unit(Point::<D>::origin()));
    let mut best: Option<(Point<D>, f64, CellKey<D>)> = None;
    let mut first = 0;
    for (key, &end) in keys.iter().zip(&ends) {
        let grid = &grids.grids()[key.0 as usize];
        draw_block(&grid.cell_circumball(&key.1), &mut rng, &mut block);
        depth.fill(0.0);
        flags.fill(NO_GROUP);
        for &b in &ids[first..end] {
            let (center, mark) = &balls[b as usize];
            apply_ball(&block, &mut depth, &mut flags, center, r_sq, *mark);
        }
        first = end;
        let (max, arg) = block_max(&depth);
        if best.as_ref().is_none_or(|(_, top, top_key)| outranks((max, key), (*top, top_key))) {
            best = Some((block_point(&block, t, arg as usize), max, *key));
        }
    }
    Some(SampledBest {
        best: best.map(|(point, depth, _)| (point, depth)),
        grids: grids.len(),
        cells: keys.len(),
        samples: keys.len() * t,
    })
}

#[cfg(test)]
mod reference {
    //! The sample set as it was before the flat layout: a map of per-cell
    //! vectors, filled ball by ball.  The flat set and both static build
    //! orders must answer as it does, bit for bit.

    use std::collections::HashMap;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use mrs_geom::sphere::sample_points_on_boundary;
    use mrs_geom::{Ball, Point, ShiftedGrids};

    use super::{grid_family, CellKey};
    use crate::config::SamplingConfig;

    struct Cell<const D: usize> {
        points: Vec<Point<D>>,
        depth: Vec<f64>,
        flag: Vec<i64>,
        max_depth: f64,
        argmax: usize,
    }

    pub(super) struct ReferenceSet<const D: usize> {
        grids: ShiftedGrids<D>,
        samples_per_cell: usize,
        cells: HashMap<CellKey<D>, Cell<D>>,
        rng: StdRng,
    }

    impl<const D: usize> ReferenceSet<D> {
        pub(super) fn new(config: SamplingConfig, expected_n: usize) -> Self {
            Self {
                grids: grid_family(&config),
                samples_per_cell: config.samples_per_cell(expected_n),
                cells: HashMap::new(),
                rng: StdRng::seed_from_u64(config.seed),
            }
        }

        fn for_each_sample_in_ball(
            &mut self,
            ball: &Ball<D>,
            mut f: impl FnMut(&mut Cell<D>, usize),
        ) {
            let Self { grids, cells, rng, samples_per_cell } = self;
            for (gi, grid) in grids.grids().iter().enumerate() {
                grid.for_each_cell_intersecting_ball(ball, |cell| {
                    let entry = cells.entry((gi as u32, cell)).or_insert_with(|| {
                        let circumball = grid.cell_circumball(&cell);
                        let points = sample_points_on_boundary(&circumball, *samples_per_cell, rng);
                        let len = points.len();
                        Cell {
                            points,
                            depth: vec![0.0; len],
                            flag: vec![-1; len],
                            max_depth: 0.0,
                            argmax: 0,
                        }
                    });
                    let mut any = false;
                    for i in 0..entry.points.len() {
                        if ball.contains(&entry.points[i]) {
                            f(entry, i);
                            any = true;
                        }
                    }
                    if any {
                        let mut best = f64::NEG_INFINITY;
                        for (i, &d) in entry.depth.iter().enumerate() {
                            if d > best {
                                best = d;
                                entry.argmax = i;
                            }
                        }
                        entry.max_depth = best;
                    }
                });
            }
        }

        pub(super) fn insert_ball(&mut self, ball: &Ball<D>, weight: f64) {
            self.for_each_sample_in_ball(ball, |cell, i| cell.depth[i] += weight);
        }

        pub(super) fn remove_ball(&mut self, ball: &Ball<D>, weight: f64) {
            self.for_each_sample_in_ball(ball, |cell, i| cell.depth[i] -= weight);
        }

        pub(super) fn insert_colored_ball(&mut self, ball: &Ball<D>, color: usize) {
            let color = color as i64;
            self.for_each_sample_in_ball(ball, |cell, i| {
                if cell.flag[i] != color {
                    cell.flag[i] = color;
                    cell.depth[i] += 1.0;
                }
            });
        }

        pub(super) fn cell_count(&self) -> usize {
            self.cells.len()
        }

        pub(super) fn total_samples(&self) -> usize {
            self.cells.values().map(|cell| cell.points.len()).sum()
        }

        pub(super) fn best(&self) -> Option<(Point<D>, f64)> {
            self.cells
                .iter()
                .max_by(|(key_a, a), (key_b, b)| {
                    a.max_depth.total_cmp(&b.max_depth).then_with(|| key_a.cmp(key_b))
                })
                .map(|(_, cell)| (cell.points[cell.argmax], cell.max_depth))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceSet;
    use super::*;
    use mrs_geom::Point2;
    use proptest::prelude::*;

    fn config() -> SamplingConfig {
        SamplingConfig::practical(0.25).with_seed(42)
    }

    #[test]
    fn empty_structure_has_no_best() {
        let set = SampleSet::<2>::new(config(), 16);
        assert!(set.best().is_none());
        assert_eq!(set.cell_count(), 0);
        let built = static_best::<2>(config(), &[]);
        assert_eq!(built.best, None);
        assert_eq!((built.grids, built.cells, built.samples), (set.grid_count(), 0, 0));
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
        let mut set = SampleSet::<2>::colored(config(), 16);
        let here = Point2::xy(0.0, 0.0);
        // Two balls of group 0 and one of group 1, all covering the origin
        // area; inserted grouped by color.
        set.insert_colored_ball(&Ball::unit(here), 0);
        set.insert_colored_ball(&Ball::unit(Point2::xy(0.05, 0.0)), 0);
        set.insert_colored_ball(&Ball::unit(Point2::xy(0.0, 0.05)), 1);
        let (_, v) = set.best().unwrap();
        assert_eq!(v, 2.0, "duplicate color must not be double counted");
    }

    #[test]
    #[should_panic(expected = "colored balls go into a colored sample set")]
    fn colored_balls_need_a_colored_set() {
        SampleSet::<2>::new(config(), 16).insert_colored_ball(&Ball::unit(Point2::xy(0.0, 0.0)), 0);
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

    #[test]
    fn dense_inputs_build_ball_by_ball() {
        // Forty balls on one spot: each cell holds all of them, so the
        // incidence list (4 bytes a ball a cell) outweighs the 4 samples a
        // cell of this config.
        let mut cfg = SamplingConfig::practical(0.45).with_seed(1);
        cfg.max_samples_per_cell = 4;
        let balls: Vec<(Point<1>, Mark)> =
            (0..40).map(|i| (Point::new([0.01 * i as f64]), Mark::Weight(1.0))).collect();
        assert!(by_cell(cfg, &balls, true).is_none(), "the dense check picks ball by ball");
        assert_eq!(static_best(cfg, &balls), by_ball(cfg, &balls));
        assert_eq!(by_cell(cfg, &balls, false), Some(by_ball(cfg, &balls)));
    }

    /// The bits of an answer, so `-0.0` and `0.0` differ.
    fn bits<const D: usize>(best: Option<(Point<D>, f64)>) -> Option<(Vec<u64>, u64)> {
        best.map(|(p, v)| ((0..D).map(|axis| p[axis].to_bits()).collect(), v.to_bits()))
    }

    /// One proptest case in `D` dimensions: `ops` are `(kind, x, y, z, w)`
    /// draws, read as inserts (kind 0–2) or removes of a live ball (kind 3)
    /// on the weighted side, and as the colors of the same centers on the
    /// colored side.
    fn flat_sets_match_the_reference<const D: usize>(
        config: SamplingConfig,
        ops: &[(usize, usize, usize, usize, usize)],
    ) {
        // Centers on a half-unit lattice: duplicates, tangent balls and
        // centers on other balls' boundaries are common.  Weight draw 0 is
        // an exact zero; the others carry full mantissas.
        let center = |&(_, x, y, z, _): &(usize, usize, usize, usize, usize)| {
            let lattice = [x, y, z];
            Point::<D>::new(std::array::from_fn(|axis| lattice[axis] as f64 * 0.5))
        };
        let weight = |w: usize| if w == 0 { 0.0 } else { w as f64 / 7.0 + 0.1 / w as f64 };
        let n = ops.len();

        // Weighted inserts and removes through the flat set and the reference.
        let mut flat = SampleSet::<D>::new(config, n);
        let mut reference = ReferenceSet::<D>::new(config, n);
        let mut live: Vec<(Point<D>, f64)> = Vec::new();
        let mut inserted: Vec<(Point<D>, Mark)> = Vec::new();
        for op in ops {
            if op.0 == 3 && !live.is_empty() {
                let (c, w) = live.swap_remove(op.4 % live.len());
                flat.remove_ball(&Ball::unit(c), w);
                reference.remove_ball(&Ball::unit(c), w);
            } else {
                let (c, w) = (center(op), weight(op.4));
                flat.insert_ball(&Ball::unit(c), w);
                reference.insert_ball(&Ball::unit(c), w);
                live.push((c, w));
                inserted.push((c, Mark::Weight(w)));
            }
            assert_eq!(bits(flat.best()), bits(reference.best()));
        }
        assert_eq!(flat.cell_count(), reference.cell_count());
        assert_eq!(flat.total_samples(), reference.total_samples());

        // Both static build orders answer as the reference fed the inserts.
        let mut reference = ReferenceSet::<D>::new(config, inserted.len());
        for &(c, mark) in &inserted {
            let Mark::Weight(w) = mark else { unreachable!() };
            reference.insert_ball(&Ball::unit(c), w);
        }
        check_static(config, &inserted, &reference);

        // Color-grouped inserts: each op's center under color `op.4 % 3`,
        // stably sorted by color, inserted under the group's ordinal.
        let mut colored: Vec<(Point<D>, usize)> =
            ops.iter().map(|op| (center(op), op.4 % 3)).collect();
        colored.sort_by_key(|&(_, color)| color);
        let mut flat = SampleSet::<D>::colored(config, n);
        let mut reference = ReferenceSet::<D>::new(config, n);
        let mut grouped = Vec::new();
        let mut group = 0u32;
        for (k, &(c, color)) in colored.iter().enumerate() {
            group += u32::from(k > 0 && color != colored[k - 1].1);
            flat.insert_colored_ball(&Ball::unit(c), group);
            reference.insert_colored_ball(&Ball::unit(c), group as usize);
            grouped.push((c, Mark::Group(group)));
        }
        assert_eq!(bits(flat.best()), bits(reference.best()));
        assert_eq!(flat.cell_count(), reference.cell_count());
        check_static(config, &grouped, &reference);
    }

    fn check_static<const D: usize>(
        config: SamplingConfig,
        balls: &[(Point<D>, Mark)],
        reference: &ReferenceSet<D>,
    ) {
        let by_cell = by_cell(config, balls, false).expect("forced cell by cell");
        for (order, built) in [("cell by cell", by_cell), ("ball by ball", by_ball(config, balls))]
        {
            assert_eq!(bits(built.best), bits(reference.best()), "{}", order);
            assert_eq!(built.cells, reference.cell_count(), "{}", order);
            assert_eq!(built.samples, reference.total_samples(), "{}", order);
        }
        assert_eq!(static_best(config, balls), by_cell);
    }

    proptest! {
        #[test]
        fn flat_sets_and_both_build_orders_answer_as_the_reference(
            dim in 1usize..4,
            theory in 0usize..2,
            seed in 0u64..1_000_000,
            ops in proptest::collection::vec(
                (0usize..4, 0usize..6, 0usize..6, 0usize..3, 0usize..7),
                1..14,
            ),
        ) {
            // The practical config clamps `t` at 64; the theory config does
            // not (`ε = 0.2` and 13 balls draw 65 samples a cell).  Its full
            // family of ten grids is kept in one dimension; two and three
            // dimensions keep a few grids of a coarser family, for speed.
            let mut config = if theory == 1 {
                SamplingConfig::new(if dim == 3 { 0.35 } else { 0.2 })
            } else {
                SamplingConfig::practical(if dim == 3 { 0.35 } else { 0.3 })
            }
            .with_seed(seed);
            if dim > 1 {
                config.max_grids = Some(if dim == 3 { 2 } else { 4 });
            }
            match dim {
                1 => flat_sets_match_the_reference::<1>(config, &ops),
                2 => flat_sets_match_the_reference::<2>(config, &ops),
                _ => flat_sets_match_the_reference::<3>(config, &ops),
            }
        }
    }
}
