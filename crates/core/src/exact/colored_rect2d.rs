//! Exact colored rectangle MaxRS in the plane.
//!
//! The colored problem for axis-aligned rectangles is the setting of
//! [ZGH+22], which the paper cites as prior work (Section 1.3) and whose
//! `O(n log n)` algorithm motivates asking the same question for balls.  This
//! module provides an exact solver so the colored-ball algorithms have a
//! rectangle counterpart to be compared with: a sweep over candidate vertical
//! positions with an incremental sliding window over x, running in `O(n²)`
//! after sorting — not as sharp as [ZGH+22] but exact, simple and fast enough
//! to serve as a baseline and test oracle for every workload in this
//! repository.
//!
//! ## Hot-path layout
//!
//! One presort serves every strip: the sites by x and by y, their colors
//! remapped to dense indices ([`dense_colors`]) and the candidate bottoms.
//! The strip `[bottom, bottom + height]` slides up one site at a time, and
//! each step updates two things: a distinct-color counter, and a bitset
//! over the sites' x ranks.  A strip whose count cannot beat the best is
//! skipped outright; any other is drained from the bitset in x order, at
//! `n / 64` words plus its own sites.  Strips are small next to `n`: on a
//! clustered 2,000-point planar set with boxes of 0.3–0.6, about 4,000
//! candidate strips hold 15–28 sites each on average.
//! [`exact_colored_rect_chunked`] splits the bottoms into chunks of about
//! equal total strip population, at least [`cancel::MIN_CHUNK_WORK`] each,
//! sweeps each from its own window through [`cancel::fan_out`], and merges
//! the chunk results in order with a strictly-greater comparison, so the
//! placement is the serial one at every thread count.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use mrs_geom::{Aabb, ColoredSite, Point2, Rect};

use crate::engine::cancel;
use crate::input::dense_colors;

/// Result of an exact colored rectangle MaxRS query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColoredRectPlacement {
    /// The chosen rectangle.
    pub rect: Rect,
    /// Number of distinct colors it covers.
    pub distinct: usize,
}

/// Number of distinct colors among sites inside the closed rectangle.
pub fn colored_rect_count(sites: &[ColoredSite<2>], rect: &Rect) -> usize {
    let mut colors: Vec<usize> =
        sites.iter().filter(|s| rect.contains(&s.point)).map(|s| s.color).collect();
    colors.sort_unstable();
    colors.dedup();
    colors.len()
}

/// Incremental distinct-color counter over a multiset of *dense* color
/// indices (`0..m`, see [`dense_colors`]): a flat count array instead of a
/// hash map, so every add/remove is one array access.
struct DistinctCounter {
    counts: Vec<u32>,
    distinct: usize,
}

impl DistinctCounter {
    fn new(num_colors: usize) -> Self {
        Self { counts: vec![0; num_colors], distinct: 0 }
    }

    // Both updates are branch-free: the 0→1 / 1→0 transitions fold into the
    // running distinct count as a boolean, so the window loops carry no
    // data-dependent branch per site (see `mrs_geom::kernels` for the same
    // idiom in the distance filters).
    #[inline]
    fn add(&mut self, color: usize) {
        let c = self.counts[color] + 1;
        self.counts[color] = c;
        self.distinct += usize::from(c == 1);
    }

    #[inline]
    fn remove(&mut self, color: usize) {
        let c = self.counts[color] - 1;
        self.counts[color] = c;
        self.distinct -= usize::from(c == 0);
    }

    fn distinct(&self) -> usize {
        self.distinct
    }
}

/// The presort every strip shares.
struct RectSweep {
    width: f64,
    height: f64,
    /// Sites in y order: their y, x rank and dense color.
    ys: Vec<f64>,
    x_rank: Vec<usize>,
    y_colors: Vec<usize>,
    /// Sites in x order: their x and dense color.
    xs: Vec<f64>,
    x_colors: Vec<usize>,
    num_colors: usize,
    /// Candidate bottom edges, ascending.
    bottoms: Vec<f64>,
    /// The placement every chunk starts from (it covers nothing).
    initial: ColoredRectPlacement,
}

impl RectSweep {
    fn new(sites: &[ColoredSite<2>], width: f64, height: f64) -> Self {
        let (dense, num_colors) = dense_colors(sites.iter().map(|s| s.color));
        let mut by_x: Vec<usize> = (0..sites.len()).collect();
        by_x.sort_by(|&a, &b| sites[a].point.x().partial_cmp(&sites[b].point.x()).unwrap());
        let mut by_y: Vec<usize> = (0..sites.len()).collect();
        by_y.sort_by(|&a, &b| sites[a].point.y().partial_cmp(&sites[b].point.y()).unwrap());
        let mut rank = vec![0; sites.len()];
        for (r, &s) in by_x.iter().enumerate() {
            rank[s] = r;
        }
        // Candidate bottom edges: a maximum-depth rectangle can always be
        // pushed down until its bottom or top edge touches a site.
        let mut bottoms: Vec<f64> = Vec::with_capacity(2 * sites.len());
        for s in sites {
            bottoms.push(s.point.y());
            bottoms.push(s.point.y() - height);
        }
        bottoms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        bottoms.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let left = sites[by_x[0]].point.x();
        let initial = ColoredRectPlacement {
            rect: Aabb::new(
                Point2::xy(left, bottoms[0]),
                Point2::xy(left + width, bottoms[0] + height),
            ),
            distinct: 0,
        };
        Self {
            width,
            height,
            ys: by_y.iter().map(|&s| sites[s].point.y()).collect(),
            x_rank: by_y.iter().map(|&s| rank[s]).collect(),
            y_colors: by_y.iter().map(|&s| dense[s]).collect(),
            xs: by_x.iter().map(|&s| sites[s].point.x()).collect(),
            x_colors: by_x.iter().map(|&s| dense[s]).collect(),
            num_colors,
            bottoms,
            initial,
        }
    }

    /// Splits the bottoms into at most `chunks` ranges of about equal total
    /// strip population, the sites each strip holds, and of at least
    /// [`cancel::MIN_CHUNK_WORK`] each.
    fn chunks(&self, chunks: usize) -> Vec<Range<usize>> {
        let m = self.bottoms.len();
        if chunks <= 1 {
            return std::iter::once(0..m).collect();
        }
        let (mut lo, mut hi) = (0, 0);
        let population: Vec<usize> = self
            .bottoms
            .iter()
            .map(|&bottom| {
                while hi < self.ys.len() && self.ys[hi] <= bottom + self.height + 1e-12 {
                    hi += 1;
                }
                while lo < hi && self.ys[lo] < bottom - 1e-12 {
                    lo += 1;
                }
                hi - lo
            })
            .collect();
        let total: usize = population.iter().sum();
        let chunks = chunks.min(total / cancel::MIN_CHUNK_WORK).max(1);
        let mut ranges = Vec::with_capacity(chunks);
        let (mut start, mut seen) = (0, 0);
        for (b, &p) in population.iter().enumerate() {
            seen += p;
            if ranges.len() + 1 < chunks && seen * chunks >= total * (ranges.len() + 1) {
                ranges.push(start..b + 1);
                start = b + 1;
            }
        }
        if start < m {
            ranges.push(start..m);
        }
        ranges
    }

    /// Sweeps the strips at `bottoms[range]`, keeping the first placement
    /// that strictly beats the best so far, and publishes its best count in
    /// `mine`.  It also skips a strip that cannot beat a count an `earlier`
    /// chunk has published: that chunk's placement comes first in the
    /// in-order merge, so the merged answer is the serial one whatever the
    /// timing.
    fn sweep(
        &self,
        range: Range<usize>,
        earlier: &[AtomicUsize],
        mine: &AtomicUsize,
    ) -> ColoredRectPlacement {
        let (width, height) = (self.width, self.height);
        let mut best = self.initial;
        // The strip holds the sites with `bottom - 1e-12 <= y <= top +
        // 1e-12`, so the window at the chunk's first bottom starts empty at
        // the first site not below it.
        let first = self.bottoms[range.start];
        let mut win_hi = self.ys.partition_point(|&y| y < first - 1e-12);
        let mut win_lo = win_hi;
        let mut in_strip = vec![0u64; self.xs.len().div_ceil(64)];
        let mut strip_counter = DistinctCounter::new(self.num_colors);
        let mut counter = DistinctCounter::new(self.num_colors);
        let mut xs: Vec<f64> = Vec::new();
        let mut colors: Vec<usize> = Vec::new();
        let mut starts: Vec<f64> = Vec::new();
        for (k, &bottom) in self.bottoms[range].iter().enumerate() {
            if cancel::poll(k) {
                break;
            }
            let top = bottom + height;
            while win_hi < self.ys.len() && self.ys[win_hi] <= top + 1e-12 {
                let r = self.x_rank[win_hi];
                in_strip[r / 64] |= 1 << (r % 64);
                strip_counter.add(self.y_colors[win_hi]);
                win_hi += 1;
            }
            while win_lo < win_hi && self.ys[win_lo] < bottom - 1e-12 {
                let r = self.x_rank[win_lo];
                in_strip[r / 64] &= !(1 << (r % 64));
                strip_counter.remove(self.y_colors[win_lo]);
                win_lo += 1;
            }
            // A strip whose distinct count cannot *strictly* beat the best
            // is skipped: the horizontal pass could never improve on it.
            let bound =
                earlier.iter().map(|e| e.load(Ordering::Relaxed)).fold(best.distinct, usize::max);
            if strip_counter.distinct() <= bound {
                continue;
            }
            // The strip in x order, drained from the bitset.
            xs.clear();
            colors.clear();
            for (w, &word) in in_strip.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let r = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    xs.push(self.xs[r]);
                    colors.push(self.x_colors[r]);
                }
            }
            // Two-pointer pass over candidate left edges: every strip x and
            // every strip x − width, in increasing order (a merge of two
            // already-sorted streams).
            starts.clear();
            let (mut ia, mut ib) = (0usize, 0usize);
            while ia < xs.len() || ib < xs.len() {
                let shifted = if ia < xs.len() { xs[ia] - width } else { f64::INFINITY };
                let plain = if ib < xs.len() { xs[ib] } else { f64::INFINITY };
                if shifted <= plain {
                    starts.push(shifted);
                    ia += 1;
                } else {
                    starts.push(plain);
                    ib += 1;
                }
            }
            starts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

            let mut lo = 0usize; // first strip index inside the window
            let mut hi = 0usize; // one past the last strip index inside the window
            for &left in starts.iter() {
                let right = left + width;
                while hi < xs.len() && xs[hi] <= right + 1e-12 {
                    counter.add(colors[hi]);
                    hi += 1;
                }
                while lo < hi && xs[lo] < left - 1e-12 {
                    counter.remove(colors[lo]);
                    lo += 1;
                }
                if counter.distinct() > best.distinct {
                    best = ColoredRectPlacement {
                        rect: Aabb::new(Point2::xy(left, bottom), Point2::xy(right, top)),
                        distinct: counter.distinct(),
                    };
                }
            }
            // Drain the window so the counter is clean for the next strip.
            for &c in &colors[lo..hi] {
                counter.remove(c);
            }
            mine.store(best.distinct, Ordering::Relaxed);
        }
        best
    }
}

/// Exact colored MaxRS for a closed `width × height` axis-aligned rectangle:
/// returns a placement covering the maximum number of distinct colors.
///
/// The sweep enumerates the `2n` candidate bottom edges (every site's `y` and
/// every site's `y − height`); for each it performs one linear two-pointer
/// pass over the strip's sites in `x` order, maintaining a distinct-color
/// counter for the current window of width `width`.  Total time `O(n²)`
/// after an `O(n log n)` sort.
///
/// # Panics
/// Panics if `width` or `height` is negative or not finite.
pub fn exact_colored_rect(
    sites: &[ColoredSite<2>],
    width: f64,
    height: f64,
) -> ColoredRectPlacement {
    exact_colored_rect_chunked(sites, width, height, 1)
}

/// [`exact_colored_rect`] on up to `threads` workers (see the module docs):
/// the placement is the same at every thread count.
///
/// # Panics
/// Panics if `width` or `height` is negative or not finite.
pub fn exact_colored_rect_chunked(
    sites: &[ColoredSite<2>],
    width: f64,
    height: f64,
    threads: usize,
) -> ColoredRectPlacement {
    assert!(width.is_finite() && width >= 0.0, "rectangle width must be non-negative");
    assert!(height.is_finite() && height >= 0.0, "rectangle height must be non-negative");
    if sites.is_empty() {
        return ColoredRectPlacement {
            rect: Aabb::new(Point2::xy(0.0, 0.0), Point2::xy(width, height)),
            distinct: 0,
        };
    }
    let sweep = RectSweep::new(sites, width, height);
    let chunks = sweep.chunks(threads);
    let found: Vec<AtomicUsize> = chunks.iter().map(|_| AtomicUsize::new(0)).collect();
    let results = cancel::fan_out(chunks.into_iter().enumerate(), |(k, range)| {
        sweep.sweep(range, &found[..k], &found[k])
    });
    let mut best = sweep.initial;
    for candidate in results {
        if candidate.distinct > best.distinct {
            best = candidate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn site(x: f64, y: f64, color: usize) -> ColoredSite<2> {
        ColoredSite::new(Point2::xy(x, y), color)
    }

    /// O(n³) oracle over the candidate anchor grid.
    fn brute(sites: &[ColoredSite<2>], w: f64, h: f64) -> usize {
        let mut best = 0;
        for sx in sites {
            for sy in sites {
                for (ax, ay) in [
                    (sx.point.x(), sy.point.y()),
                    (sx.point.x() - w, sy.point.y()),
                    (sx.point.x(), sy.point.y() - h),
                    (sx.point.x() - w, sy.point.y() - h),
                ] {
                    let rect = Aabb::new(Point2::xy(ax, ay), Point2::xy(ax + w, ay + h));
                    best = best.max(colored_rect_count(sites, &rect));
                }
            }
        }
        best
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(exact_colored_rect(&[], 1.0, 1.0).distinct, 0);
        let one = vec![site(3.0, 4.0, 9)];
        let res = exact_colored_rect(&one, 0.5, 0.5);
        assert_eq!(res.distinct, 1);
        assert!(res.rect.contains(&Point2::xy(3.0, 4.0)));
    }

    #[test]
    fn duplicate_colors_do_not_inflate_the_count() {
        let sites =
            vec![site(0.0, 0.0, 0), site(0.1, 0.1, 0), site(0.2, 0.2, 0), site(0.3, 0.3, 1)];
        assert_eq!(exact_colored_rect(&sites, 1.0, 1.0).distinct, 2);
    }

    #[test]
    fn figure_1b_style_instance_with_a_rectangle() {
        let sites = vec![
            site(0.0, 0.0, 0),
            site(0.3, 0.2, 0),
            site(0.5, 0.0, 1),
            site(0.1, 0.6, 2),
            site(10.0, 10.0, 3),
        ];
        let res = exact_colored_rect(&sites, 1.0, 1.0);
        assert_eq!(res.distinct, 3);
        assert_eq!(colored_rect_count(&sites, &res.rect), 3);
    }

    #[test]
    fn tall_and_wide_rectangles_behave_differently() {
        // Colors stacked vertically: only a tall rectangle collects them all.
        let sites = vec![site(0.0, 0.0, 0), site(0.0, 2.0, 1), site(0.0, 4.0, 2)];
        assert_eq!(exact_colored_rect(&sites, 1.0, 1.0).distinct, 1);
        assert_eq!(exact_colored_rect(&sites, 1.0, 4.0).distinct, 3);
        assert_eq!(exact_colored_rect(&sites, 4.0, 1.0).distinct, 1);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(19);
        for round in 0..40 {
            let n = rng.gen_range(1..35);
            let m = rng.gen_range(1..8usize);
            let sites: Vec<ColoredSite<2>> = (0..n)
                .map(|_| {
                    site(rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0), rng.gen_range(0..m))
                })
                .collect();
            let w = rng.gen_range(0.3..3.0);
            let h = rng.gen_range(0.3..3.0);
            let fast = exact_colored_rect(&sites, w, h);
            let slow = brute(&sites, w, h);
            assert_eq!(fast.distinct, slow, "round {round} (w={w:.2}, h={h:.2})");
            assert_eq!(colored_rect_count(&sites, &fast.rect), fast.distinct);
            for threads in [2, 5] {
                assert_eq!(
                    exact_colored_rect_chunked(&sites, w, h, threads),
                    fast,
                    "round {round}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn count_is_bounded_by_palette_size(
            coords in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0usize..6), 1..40),
            w in 0.5f64..4.0,
            h in 0.5f64..4.0,
        ) {
            let sites: Vec<ColoredSite<2>> =
                coords.iter().map(|&(x, y, c)| site(x, y, c)).collect();
            let palette: std::collections::HashSet<usize> =
                sites.iter().map(|s| s.color).collect();
            let res = exact_colored_rect(&sites, w, h);
            prop_assert!(res.distinct >= 1);
            prop_assert!(res.distinct <= palette.len());
            // A bigger rectangle never covers fewer colors.
            let bigger = exact_colored_rect(&sites, w * 2.0, h * 2.0);
            prop_assert!(bigger.distinct >= res.distinct);
        }
    }
}
