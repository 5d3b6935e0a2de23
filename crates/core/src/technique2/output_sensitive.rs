//! The output-sensitive exact algorithm for colored disk MaxRS (Theorem 4.6).
//!
//! Running the union-boundary algorithm (Lemma 4.2) on the whole input costs
//! time proportional to the total number of boundary crossings, which can be
//! quadratic.  Theorem 4.6 brings this down to `O(n log n + n·opt)` expected
//! time by localizing: a family of shifted unit grids (Lemma 2.1 with `s = 1`,
//! `Δ = 0.25`) is laid over the plane, in each cell every unit disk that does
//! not contain a corner of the cell is discarded (Lemma 4.3 shows such a disk
//! cannot contain the optimum when the optimum is `0.25`-near that cell), and
//! the exact algorithm runs on what remains — at most `4·opt` colors per cell,
//! so at most `O(n_C · opt)` crossings per cell (Lemmas 4.4/4.5).
//!
//! ## Hot-path layout
//!
//! Each of the 36 grids is bucketed by a sort-based CSR pass over one reused
//! `(cell, disk)` incidence buffer (no hash map, no per-cell vectors), which
//! splits into one run of disk ids per non-empty cell: 155k–241k runs per
//! query on a clustered 1,000-site planar set at r = 0.15–0.3.  A cell's
//! depth is at most its run length, so only the runs longer than the best
//! depth so far are kept and sorted, longest first; the rest are only
//! counted.  There, all but a few dozen cells per query are pruned before
//! the union sweep, which shares one [`UnionScratch`] across the cells it
//! does run on.  The bucketing is the remaining cost, so its incidences
//! take a stable radix sort by cell, and the grids are bucketed on the
//! executor's thread budget through [`cancel::fan_out`], while the sweep
//! stays serial in grid order, which keeps the answer and every counter the
//! same at any budget.  The fixed cell order also makes the reported
//! optimum point reproducible run to run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use mrs_geom::grid::{CellCoord, Grid};
use mrs_geom::{Ball, ColoredSite, GridQueryStats, Point2, ShiftedGrids};

use crate::engine::cancel;
use crate::input::{dense_colors, ColoredPlacement};
use crate::technique2::union_exact::{max_colored_depth_union_with, UnionScratch};

/// Statistics from an output-sensitive run, reported for the experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OutputSensitiveStats {
    /// Number of shifted grids processed.
    pub grids: usize,
    /// Number of non-empty cells across all grids.
    pub cells: usize,
    /// Total number of (disk, cell) incidences that survived the corner test.
    pub surviving_disks: usize,
    /// Cells skipped because their distinct surviving-color count could not
    /// strictly beat the best depth already found (the cell's depth is at
    /// most its distinct color count, so the skip is behavior-identical).
    pub cells_pruned: usize,
    /// Cells skipped because their exact surviving-disk subset was already
    /// swept in an earlier cell (the 36 shifted grids revisit the same dense
    /// neighbourhoods; identical subsets give identical sweeps).
    pub cells_deduped: usize,
    /// Total number of boundary–boundary crossings examined across all cells
    /// (the output-sensitive `k`).
    pub boundary_intersections: usize,
    /// Neighbour-grid work accumulated over every per-cell union sweep.
    pub grid_queries: GridQueryStats,
}

/// Bit layout of a packed incidence: one `u128` holds `(cell y - bias y)` in
/// the top 48 bits, `(cell x - bias x)` in the middle 48, and the disk id in
/// the low 32.  Sorting the raw integers is then exactly "row-major cell,
/// then ascending disk id" — one scalar compare, 16-byte elements, no
/// comparator — which is what makes the per-grid CSR bucketing sort cheap.
/// The bias is the instance's minimum cell, so the deltas are non-negative;
/// spans beyond 48 bits per axis (coordinate spreads past ~10^14 cells,
/// where `f64` cell addressing is already threadbare) take the full-width
/// cold path instead.
const INC_ID_BITS: u32 = 32;
/// Bits per biased cell axis in a packed incidence.
const INC_AXIS_BITS: u32 = 48;
/// Mask of one packed axis field.
const INC_AXIS_MASK: u128 = (1 << INC_AXIS_BITS) - 1;

/// Packs a biased cell address and disk id into one sortable integer.
#[inline]
fn pack_incidence(dx: u64, dy: u64, id: u32) -> u128 {
    ((dy as u128) << (INC_AXIS_BITS + INC_ID_BITS)) | ((dx as u128) << INC_ID_BITS) | id as u128
}

/// Recovers the cell address from a packed incidence key (`key >> INC_ID_BITS`).
#[inline]
fn unpack_cell(cell_key: u128, bias: &CellCoord<2>) -> CellCoord<2> {
    [bias[0] + ((cell_key & INC_AXIS_MASK) as i64), bias[1] + ((cell_key >> INC_AXIS_BITS) as i64)]
}

/// Planar specialization of [`Grid::for_each_cell_intersecting_ball`]: walks
/// the integer bounding box of the disk row by row, hoisting the clamped
/// y-distance out of each row and pushing packed `(cell, id)` incidences
/// directly.  Cell boundaries and the intersection tolerance match
/// `Ball::intersects_aabb` term for term, so the incidence set is identical
/// to the generic enumerator's.  `pack` receives the biased non-negative
/// cell deltas, so the same walk feeds the `u64` and `u128` key tiers.
#[inline]
fn push_disk_incidences<K>(
    grid: &Grid<2>,
    disk: &Ball<2>,
    id: u32,
    bias: &CellCoord<2>,
    pack: impl Fn(u64, u64, u32) -> K,
    out: &mut Vec<K>,
) {
    let (cx, cy) = (disk.center.x(), disk.center.y());
    let r = disk.radius;
    let lim = r * r * (1.0 + 1e-12) + 1e-12;
    let lo = grid.cell_of(&Point2::xy(cx - r, cy - r));
    let hi = grid.cell_of(&Point2::xy(cx + r, cy + r));
    for gy in lo[1]..=hi[1] {
        let y0 = grid.offset.y() + gy as f64 * grid.side;
        let y1 = y0 + grid.side;
        let dy = if cy < y0 {
            y0 - cy
        } else if cy > y1 {
            cy - y1
        } else {
            0.0
        };
        let dy_sq = dy * dy;
        let by = (gy - bias[1]) as u64;
        for gx in lo[0]..=hi[0] {
            let x0 = grid.offset.x() + gx as f64 * grid.side;
            let x1 = x0 + grid.side;
            let dx = if cx < x0 {
                x0 - cx
            } else if cx > x1 {
                cx - x1
            } else {
                0.0
            };
            if dx * dx + dy_sq <= lim {
                out.push(pack((gx - bias[0]) as u64, by, id));
            }
        }
    }
}

/// The kept runs of one shifted grid: its cells whose incidence count
/// exceeds a threshold, longest first, with their disk ids.  A cell's
/// colored depth is at most its incidence count, so the other runs are
/// prunable once the best depth reaches the threshold; they are counted,
/// never copied or sorted.
#[derive(Debug, Default)]
struct GridRuns {
    /// `(cell, start, end)` per kept run, its ids at `ids[start..end]`.
    runs: Vec<(CellCoord<2>, u32, u32)>,
    /// Disk ids of the kept runs, ascending within each run.
    ids: Vec<u32>,
    /// Runs no longer than the threshold.
    prunable: usize,
}

impl GridRuns {
    /// Splits a cell-major sorted incidence buffer into per-cell runs and
    /// keeps those longer than `threshold`, ordered by length descending,
    /// then buffer position: a fully specified order, so the sweep stays
    /// reproducible and kernel-mode independent.
    ///
    /// Most runs hold one or two disks, so the scan counts run starts
    /// without branching on them, and branches only where a run reaches
    /// `threshold` entries past its start, which is rare once a depth is
    /// known.
    fn collect<K: Copy>(
        &mut self,
        incidences: &[K],
        same_cell: impl Fn(K, K) -> bool,
        cell_of: impl Fn(K) -> CellCoord<2>,
        id_of: impl Fn(K) -> u32,
        threshold: usize,
    ) {
        let len = incidences.len();
        let mut runs = 0;
        for i in 0..len {
            let starts = i == 0 || !same_cell(incidences[i - 1], incidences[i]);
            let reach = i + threshold;
            let probe = incidences[reach.min(len - 1)];
            runs += usize::from(starts);
            if starts & (reach < len) & same_cell(incidences[i], probe) {
                let mut end = reach + 1;
                while end < len && same_cell(incidences[i], incidences[end]) {
                    end += 1;
                }
                let first = self.ids.len() as u32;
                self.ids.extend(incidences[i..end].iter().map(|&key| id_of(key)));
                self.runs.push((cell_of(incidences[i]), first, self.ids.len() as u32));
            }
        }
        self.prunable = runs - self.runs.len();
        self.runs.sort_unstable_by_key(|&(_, s, e)| (std::cmp::Reverse(e - s), s));
    }
}

/// One worker's incidence buffers, one per key tier plus the radix sort's
/// second buffer, reused across grids.
#[derive(Debug, Default)]
struct IncidenceBuffers {
    narrow: Vec<u64>,
    spare: Vec<u64>,
    mid: Vec<u128>,
    wide: Vec<(CellCoord<2>, u32)>,
}

/// Cell-key bits sorted per pass of [`sort_by_cell`].
const RADIX_BITS: u32 = 11;

/// Sorts narrow incidence keys `(cell << 32) | id` by their `cell_bits`-wide
/// cell with a stable LSD radix sort: a few linear passes, where a
/// comparison sort of the whole key measured about 2.5× slower.  Disks are
/// pushed in ascending id, so stability keeps ids ascending within each
/// cell and the result is the keys' full integer order.
fn sort_by_cell(keys: &mut Vec<u64>, spare: &mut Vec<u64>, cell_bits: u32) {
    const MASK: u64 = (1 << RADIX_BITS) - 1;
    let mut shift = INC_ID_BITS;
    while shift < INC_ID_BITS + cell_bits {
        let mut starts = [0usize; 1 << RADIX_BITS];
        for &key in keys.iter() {
            starts[((key >> shift) & MASK) as usize] += 1;
        }
        let mut next = 0;
        for start in starts.iter_mut() {
            (*start, next) = (next, next + *start);
        }
        spare.resize(keys.len(), 0);
        for &key in keys.iter() {
            let digit = ((key >> shift) & MASK) as usize;
            spare[starts[digit]] = key;
            starts[digit] += 1;
        }
        std::mem::swap(keys, spare);
        shift += RADIX_BITS;
    }
}

/// Buckets every disk by the cells of `grid` it intersects and returns the
/// runs longer than `threshold` (see [`GridRuns`]).  `bounds` is the
/// instance's bounding box over the disks: `cell_of` is monotone per axis,
/// so its corners bound every cell address the grid can produce, the bias
/// of the packed incidences.
fn grid_runs(
    grid: &Grid<2>,
    disks: &[Ball<2>],
    bounds: &(Point2, Point2),
    threshold: usize,
    buf: &mut IncidenceBuffers,
) -> GridRuns {
    let mut out = GridRuns::default();
    if cancel::should_stop() {
        return out;
    }
    let bias = grid.cell_of(&bounds.0);
    let top = grid.cell_of(&bounds.1);
    let span_x = (top[0].wrapping_sub(bias[0])) as u64;
    let span_y = (top[1].wrapping_sub(bias[1])) as u64;
    // Collect packed (cell, disk) incidences into one flat buffer and sort
    // it CSR-style, so that ids ascend within each cell.  Three key tiers:
    // `u64` (row-major cell index `dy·w + dx` above a 32-bit id) covers
    // spans up to 2^16 cells per axis, virtually every real instance, and
    // takes the radix sort; the `u128` mid tier and full-width
    // `(cell, id)` tuples are the cold fallbacks.
    if span_x < (1 << 16) && span_y < (1 << 16) {
        let width = span_x + 1;
        let cells = width * (span_y + 1);
        buf.narrow.clear();
        for (i, disk) in disks.iter().enumerate() {
            push_disk_incidences(
                grid,
                disk,
                i as u32,
                &bias,
                |dx, dy, id| ((dy * width + dx) << INC_ID_BITS) | id as u64,
                &mut buf.narrow,
            );
        }
        sort_by_cell(&mut buf.narrow, &mut buf.spare, u64::BITS - (cells - 1).leading_zeros());
        out.collect(
            &buf.narrow,
            |a, b| (a >> INC_ID_BITS) == (b >> INC_ID_BITS),
            |key| {
                let cell = key >> INC_ID_BITS;
                [bias[0] + (cell % width) as i64, bias[1] + (cell / width) as i64]
            },
            |key| key as u32,
            threshold,
        );
    } else if span_x < (1 << INC_AXIS_BITS) && span_y < (1 << INC_AXIS_BITS) {
        buf.mid.clear();
        for (i, disk) in disks.iter().enumerate() {
            push_disk_incidences(grid, disk, i as u32, &bias, pack_incidence, &mut buf.mid);
        }
        buf.mid.sort_unstable();
        out.collect(
            &buf.mid,
            |a, b| (a >> INC_ID_BITS) == (b >> INC_ID_BITS),
            |key| unpack_cell(key >> INC_ID_BITS, &bias),
            |key| key as u32,
            threshold,
        );
    } else {
        // Cold path for coordinate spreads past ~10^14 cells: the same
        // bucketing with full-width `(cell, id)` tuples via the generic
        // enumerator, sorted on the fully-specified `(row, column, id)` key.
        buf.wide.clear();
        for (i, disk) in disks.iter().enumerate() {
            grid.for_each_cell_intersecting_ball(disk, |cell| buf.wide.push((cell, i as u32)));
        }
        buf.wide.sort_unstable_by_key(|&(cell, id)| (cell[1], cell[0], id));
        out.collect(&buf.wide, |a, b| a.0 == b.0, |key| key.0, |key| key.1, threshold);
    }
    out
}

/// Mutable state threaded through every localized cell: the reusable sweep
/// buffers, the pruning tables, and the best placement so far.
struct LocalizeState {
    surviving: Vec<u32>,
    sub_disks: Vec<Ball<2>>,
    sub_colors: Vec<usize>,
    scratch: UnionScratch,
    color_stamp: Vec<u64>,
    color_generation: u64,
    seen_subsets: std::collections::HashSet<Box<[u32]>>,
    stats: OutputSensitiveStats,
    best_point: Point2,
    best_depth: usize,
}

impl LocalizeState {
    /// Sweeps one grid's kept runs longest first.  Once the best depth
    /// reaches the longest remaining run, the rest of the grid, its
    /// prunable runs included, is pruned in one step without corner tests.
    fn sweep_grid(&mut self, grid: &Grid<2>, list: &GridRuns, disks: &[Ball<2>], colors: &[usize]) {
        for (k, &(cell, s, e)) in list.runs.iter().enumerate() {
            if cancel::poll(k) {
                return;
            }
            if (e - s) as usize <= self.best_depth {
                let skipped = list.runs.len() - k + list.prunable;
                self.stats.cells += skipped;
                self.stats.cells_pruned += skipped;
                return;
            }
            let ids = list.ids[s as usize..e as usize].iter().copied();
            sweep_cell(grid, &cell, ids, disks, colors, self);
        }
        self.stats.cells += list.prunable;
        self.stats.cells_pruned += list.prunable;
    }
}

/// A role in the grid pass of [`max_colored_depth_output_sensitive`].
enum Stage<'a> {
    /// The calling thread: buckets its share of the grids, receives the
    /// others' runs, and sweeps every grid in order.
    Sweep(&'a mut LocalizeState, &'a mut IncidenceBuffers, Vec<Receiver<GridRuns>>),
    /// Worker `k`: buckets its share and sends the runs in grid order.
    Bucket(usize, SyncSender<GridRuns>),
}

/// Processes one localized cell: corner-filters the incident disks, applies
/// the two behavior-identical prunes, and runs the union sweep on whatever
/// survives.
fn sweep_cell(
    grid: &Grid<2>,
    cell: &CellCoord<2>,
    ids: impl Iterator<Item = u32>,
    disks: &[Ball<2>],
    colors: &[usize],
    st: &mut LocalizeState,
) {
    st.stats.cells += 1;
    let cell_box = grid.cell_aabb(cell);
    // Lemma 4.3(1): only disks containing a corner of the cell can contain
    // an optimum that is 0.25-near this cell.  The four corner tests share
    // the per-axis center offsets, so evaluate them branch-free (one OR of
    // four squared-distance compares, same tolerance as [`Ball::contains`])
    // instead of chasing the allocating `corners()` path.
    let (x0, y0) = (cell_box.lo.x(), cell_box.lo.y());
    let (x1, y1) = (cell_box.hi.x(), cell_box.hi.y());
    st.surviving.clear();
    st.surviving.extend(ids.filter(|&i| {
        let d = &disks[i as usize];
        let r = d.radius * (1.0 + 1e-12) + 1e-12;
        let r_sq = r * r;
        let (dx0, dx1) = (d.center.x() - x0, d.center.x() - x1);
        let (dy0, dy1) = (d.center.y() - y0, d.center.y() - y1);
        let (dx0, dx1) = (dx0 * dx0, dx1 * dx1);
        let (dy0, dy1) = (dy0 * dy0, dy1 * dy1);
        (dx0 + dy0 <= r_sq) | (dx1 + dy0 <= r_sq) | (dx0 + dy1 <= r_sq) | (dx1 + dy1 <= r_sq)
    }));
    if st.surviving.is_empty() {
        return;
    }
    st.stats.surviving_disks += st.surviving.len();
    // Prune 1: a cell's colored depth is at most its number of distinct
    // surviving colors; if that bound cannot *strictly* beat the best depth
    // so far, the sweep could never improve it.
    st.color_generation += 1;
    let mut distinct_bound = 0usize;
    for &i in &st.surviving {
        let c = colors[i as usize];
        // Branch-free stamp: unconditionally re-stamp and add the 0/1
        // novelty flag, so the loop carries no mispredictable per-color
        // branch.
        let is_new = usize::from(st.color_stamp[c] != st.color_generation);
        st.color_stamp[c] = st.color_generation;
        distinct_bound += is_new;
    }
    if distinct_bound <= st.best_depth {
        st.stats.cells_pruned += 1;
        return;
    }
    // Prune 2: the shifted family revisits the same dense neighbourhoods; an
    // exactly-identical surviving subset (ids are sorted ascending)
    // reproduces an earlier sweep verbatim.  The membership probe borrows
    // the slice; only genuinely new subsets pay the boxed-copy insertion.
    if st.seen_subsets.contains(st.surviving.as_slice()) {
        st.stats.cells_deduped += 1;
        return;
    }
    st.seen_subsets.insert(st.surviving.as_slice().into());
    st.sub_disks.clear();
    st.sub_disks.extend(st.surviving.iter().map(|&i| disks[i as usize]));
    st.sub_colors.clear();
    st.sub_colors.extend(st.surviving.iter().map(|&i| colors[i as usize]));
    let result = max_colored_depth_union_with(&st.sub_disks, &st.sub_colors, &mut st.scratch);
    st.stats.boundary_intersections += result.boundary_intersections;
    st.stats.grid_queries.merge(result.grid_stats);
    if result.depth > st.best_depth {
        st.best_depth = result.depth;
        st.best_point = result.point;
    }
}

/// Exact maximum colored depth for *unit* disks (dual setting) in
/// `O(n log n + n·opt)` expected time, bucketing grids on up to `threads`
/// workers.
///
/// Grid 0 is bucketed and swept first.  The other grids are bucketed
/// round-robin by the workers and the calling thread, each keeping only
/// the runs longer than the best depth published so far, and swept one
/// after another in grid order.  The best depth only grows, so every kept
/// list holds every run the serial sweep would reach, in the same order:
/// the placement and every counter are the same at any thread budget, and
/// one thread is the serial sweep.
///
/// # Panics
/// Panics if `disks` and `colors` have different lengths or any disk is not of
/// unit radius (the corner-discarding argument of Lemma 4.3 requires unit
/// disks and the `s = 1` grid).
pub fn max_colored_depth_output_sensitive(
    disks: &[Ball<2>],
    colors: &[usize],
    threads: usize,
) -> (Point2, usize, OutputSensitiveStats) {
    assert_eq!(disks.len(), colors.len(), "one color per disk is required");
    for d in disks {
        assert!(
            (d.radius - 1.0).abs() < 1e-9,
            "the output-sensitive algorithm operates on unit disks (got radius {})",
            d.radius
        );
    }
    let mut stats = OutputSensitiveStats::default();
    if disks.is_empty() {
        return (Point2::xy(0.0, 0.0), 0, stats);
    }

    // Lemma 2.1 family with s = 1 and Δ = 0.25.
    let family = ShiftedGrids::<2>::full(1.0, 0.25);
    let grids = family.grids();
    stats.grids = grids.len();

    // Both prunes inside `sweep_cell` are *behavior-identical*: a cell whose
    // distinct surviving-color count cannot strictly exceed `best_depth`
    // could never update it (a cell's depth is bounded by its color count),
    // and a cell whose exact surviving subset was already swept would
    // reproduce the earlier result, which already had its chance to win.
    let (colors, num_colors) = dense_colors(colors.iter().copied());
    let mut st = LocalizeState {
        surviving: Vec::new(),
        sub_disks: Vec::new(),
        sub_colors: Vec::new(),
        scratch: UnionScratch::default(),
        color_stamp: vec![0; num_colors],
        color_generation: 0,
        seen_subsets: std::collections::HashSet::new(),
        stats,
        best_point: disks[0].center,
        best_depth: 0,
    };

    // Instance bounding box over the disks, not just the centers.
    let mut bounds = (
        Point2::xy(f64::INFINITY, f64::INFINITY),
        Point2::xy(f64::NEG_INFINITY, f64::NEG_INFINITY),
    );
    for d in disks {
        let r = d.radius;
        bounds.0 = bounds.0.component_min(&Point2::xy(d.center.x() - r, d.center.y() - r));
        bounds.1 = bounds.1.component_max(&Point2::xy(d.center.x() + r, d.center.y() + r));
    }

    // Grid 0 first: no depth is known yet to filter its runs by, so it
    // keeps every run, and its ids count the incidences a grid holds.
    let mut buf = IncidenceBuffers::default();
    let list = grid_runs(&grids[0], disks, &bounds, 0, &mut buf);
    st.sweep_grid(&grids[0], &list, disks, &colors);
    // The other grids: worker `k` of `w` buckets grids `k, k + w, …` and
    // sends their runs in order, filtered by the best depth published so
    // far; the calling thread buckets its own share and sweeps every grid
    // in grid order.  A bounded channel keeps at most two lists per worker
    // in memory.
    let rest = &grids[1..];
    let work = list.ids.len() * rest.len();
    let workers = threads.min(work / cancel::MIN_CHUNK_WORK).clamp(1, rest.len());
    let published = AtomicUsize::new(st.best_depth);
    let (outboxes, inboxes): (Vec<_>, Vec<_>) = (1..workers).map(|_| sync_channel(1)).unzip();
    let stages = std::iter::once(Stage::Sweep(&mut st, &mut buf, inboxes))
        .chain(outboxes.into_iter().enumerate().map(|(k, outbox)| Stage::Bucket(k + 1, outbox)));
    cancel::fan_out(stages, |stage| match stage {
        Stage::Bucket(k, outbox) => {
            let mut buf = IncidenceBuffers::default();
            for grid in rest.iter().skip(k).step_by(workers) {
                let threshold = published.load(Ordering::Relaxed);
                if outbox.send(grid_runs(grid, disks, &bounds, threshold, &mut buf)).is_err() {
                    break; // the sweep stopped
                }
            }
        }
        Stage::Sweep(st, buf, inboxes) => {
            for (g, grid) in rest.iter().enumerate() {
                // Coarse check once per shifted grid (the family has 36
                // members); the fine-grained polling lives in `sweep_grid`.
                if cancel::should_stop() {
                    break;
                }
                let list = match g % workers {
                    0 => grid_runs(grid, disks, &bounds, st.best_depth, buf),
                    k => match inboxes[k - 1].recv() {
                        Ok(list) => list,
                        Err(_) => break, // a worker panicked; the fan-out resumes it
                    },
                };
                st.sweep_grid(grid, &list, disks, &colors);
                published.store(st.best_depth, Ordering::Relaxed);
            }
        }
    });
    (st.best_point, st.best_depth, st.stats)
}

/// Exact colored disk MaxRS in the primal setting via the output-sensitive
/// algorithm of Theorem 4.6.
///
/// # Example
/// ```
/// use mrs_core::technique2::output_sensitive_colored_disk;
/// use mrs_geom::{ColoredSite, Point2};
///
/// let sites = vec![
///     ColoredSite::new(Point2::xy(0.0, 0.0), 0),
///     ColoredSite::new(Point2::xy(0.4, 0.0), 1),
///     ColoredSite::new(Point2::xy(0.4, 0.3), 1), // duplicate color
///     ColoredSite::new(Point2::xy(9.0, 9.0), 2),
/// ];
/// let best = output_sensitive_colored_disk(&sites, 1.0);
/// assert_eq!(best.distinct, 2);
/// ```
///
pub fn output_sensitive_colored_disk(sites: &[ColoredSite<2>], radius: f64) -> ColoredPlacement<2> {
    output_sensitive_colored_disk_with_stats(sites, radius).0
}

/// Like [`output_sensitive_colored_disk`] but also reports run statistics.
pub fn output_sensitive_colored_disk_with_stats(
    sites: &[ColoredSite<2>],
    radius: f64,
) -> (ColoredPlacement<2>, OutputSensitiveStats) {
    output_sensitive_colored_disk_chunked(sites, radius, 1)
}

/// [`output_sensitive_colored_disk_with_stats`] bucketing its grids on up
/// to `threads` workers (see [`max_colored_depth_output_sensitive`]): the
/// placement and the statistics are the same at every thread budget.
pub fn output_sensitive_colored_disk_chunked(
    sites: &[ColoredSite<2>],
    radius: f64,
    threads: usize,
) -> (ColoredPlacement<2>, OutputSensitiveStats) {
    assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
    if sites.is_empty() {
        return (ColoredPlacement::empty(), OutputSensitiveStats::default());
    }
    let inv = 1.0 / radius;
    let disks: Vec<Ball<2>> = sites.iter().map(|s| Ball::unit(s.point.scale(inv))).collect();
    let colors: Vec<usize> = sites.iter().map(|s| s.color).collect();
    let (point, depth, stats) = max_colored_depth_output_sensitive(&disks, &colors, threads);
    (ColoredPlacement { center: point.scale(radius), distinct: depth }, stats)
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
        let (res, stats) = output_sensitive_colored_disk_with_stats(&[], 1.0);
        assert_eq!(res.distinct, 0);
        assert_eq!(stats.cells, 0);
    }

    #[test]
    fn single_site() {
        let res = output_sensitive_colored_disk(&[site(3.0, 4.0, 2)], 1.0);
        assert_eq!(res.distinct, 1);
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
        let res = output_sensitive_colored_disk(&sites, 1.0);
        assert_eq!(res.distinct, 3);
        assert_eq!(colored_depth_at(&sites, 1.0, &res.center), 3);
    }

    #[test]
    fn matches_candidate_enumeration_oracle_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(101);
        for round in 0..20 {
            let n = rng.gen_range(2..40);
            let m = rng.gen_range(1..6usize);
            let sites: Vec<ColoredSite<2>> = (0..n)
                .map(|_| {
                    site(rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0), rng.gen_range(0..m))
                })
                .collect();
            let radius = rng.gen_range(0.5..1.5);
            let fast = output_sensitive_colored_disk(&sites, radius);
            let oracle = exact_colored_disk(&sites, radius);
            assert_eq!(
                fast.distinct, oracle.distinct,
                "round {round}: output-sensitive {} vs oracle {}",
                fast.distinct, oracle.distinct
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        // The sort-based bucketing visits cells in a fixed order, so repeated
        // runs report the exact same optimum point (the hash-map bucketing
        // did not guarantee this under ties).
        let mut rng = StdRng::seed_from_u64(23);
        let sites: Vec<ColoredSite<2>> = (0..50)
            .map(|_| site(rng.gen_range(0.0..3.0), rng.gen_range(0.0..3.0), rng.gen_range(0..6)))
            .collect();
        let first = output_sensitive_colored_disk(&sites, 1.0);
        for _ in 0..3 {
            let again = output_sensitive_colored_disk(&sites, 1.0);
            assert_eq!(first.center, again.center);
            assert_eq!(first.distinct, again.distinct);
        }
    }

    #[test]
    fn stats_reflect_localization() {
        // Two far-apart clusters: the surviving-disk incidences stay small per
        // cell and the boundary crossing count stays near-linear.
        let mut rng = StdRng::seed_from_u64(7);
        let mut sites = Vec::new();
        for i in 0..40 {
            let base = if i % 2 == 0 { 0.0 } else { 30.0 };
            sites.push(site(base + rng.gen_range(0.0..1.5), base + rng.gen_range(0.0..1.5), i % 8));
        }
        let (res, stats) = output_sensitive_colored_disk_with_stats(&sites, 1.0);
        assert!(res.distinct >= 4);
        assert_eq!(stats.grids, 36, "s=1, Δ=0.25 family in the plane has 6² grids");
        assert!(stats.cells > 0);
        assert!(stats.surviving_disks > 0);
        assert!(stats.grid_queries.candidates > 0, "sweep work is counted");
    }

    #[test]
    fn opt_one_instances_are_cheap_in_crossings() {
        // Pairwise-disjoint color classes far apart: opt = 1, so the
        // output-sensitive crossing count must be zero.
        let sites: Vec<ColoredSite<2>> =
            (0..30).map(|i| site(10.0 * i as f64, 0.0, i % 10)).collect();
        let (res, stats) = output_sensitive_colored_disk_with_stats(&sites, 1.0);
        assert_eq!(res.distinct, 1);
        assert_eq!(stats.boundary_intersections, 0);
    }
}
