//! Dynamic MaxRS with a `d`-ball (Theorem 1.1).
//!
//! Points (dual unit balls) are inserted and deleted; the structure maintains
//! a `(1/2 − ε)`-approximate placement with amortized `O(ε^{-2d-2} log n)`
//! update time.  The algorithm proceeds in *epochs* (Section 3.1.1): at the
//! start of epoch `j` the sampling structure is rebuilt from scratch for the
//! current ball set `B_j`; the epoch ends when the number of live balls leaves
//! the window `[|B_j|/2, 2|B_j|]`, and the rebuild cost is charged to the at
//! least `|B_j|/2` updates that must have happened in between.
//!
//! A tracker over a known set starts with [`DynamicBallMaxRS::from_points`]:
//! one epoch whose base is the whole set, its balls inserted ball by ball
//! into one flat [`SampleSet`] (the tracker's build order; see
//! [`crate::technique1::sample_set`]).  Inserting the same points one by one
//! would rebuild at every doubling of the live count, 14 epochs for 20,000
//! points.  The two agree bit for bit wherever `samples_per_cell` is equal
//! at `n` and at the last doubling base: under
//! [`SamplingConfig::practical`] at `ε = 0.25`, from 63 points up, where
//! both clamp at 64.  Smaller sets get the `t` of `n`, which is still a
//! valid Theorem 1.1 epoch.  And the one epoch is bit for bit
//! the static [`weighted_sample_set`](crate::technique1::weighted_sample_set)
//! of the same points, which is what lets the engine's `dynamic-ball`
//! solver answer a one-off query from the shared index's cached answer.
//!
//! The resident set is the flat one of [`SampleSet`]: `t` samples of `D`
//! coordinates and one depth per non-empty cell, so the tracker holds about
//! `(D + 1)·8·t` bytes per cell, and nothing grows under updates that stay
//! inside the covered extent.

use mrs_geom::{Ball, Point, WeightedPoint};

use crate::config::SamplingConfig;
use crate::input::Placement;
use crate::technique1::sample_set::SampleSet;

/// Handle returned by [`DynamicBallMaxRS::insert`]; pass it to
/// [`DynamicBallMaxRS::remove`] to delete the point again.
pub type PointId = usize;

/// The dynamic `(1/2 − ε)`-approximate MaxRS structure of Theorem 1.1.
///
/// # Example
/// ```
/// use mrs_core::config::SamplingConfig;
/// use mrs_core::technique1::DynamicBallMaxRS;
/// use mrs_geom::Point2;
///
/// let mut tracker = DynamicBallMaxRS::<2>::new(1.0, SamplingConfig::practical(0.25));
/// let a = tracker.insert(Point2::xy(0.0, 0.0), 1.0);
/// let _b = tracker.insert(Point2::xy(0.3, 0.0), 1.0);
/// assert_eq!(tracker.best().unwrap().value, 2.0);
/// tracker.remove(a);
/// assert_eq!(tracker.best().unwrap().value, 1.0);
/// ```
///
#[derive(Clone, Debug)]
pub struct DynamicBallMaxRS<const D: usize> {
    config: SamplingConfig,
    radius: f64,
    /// Scaled (dual) centers and weights by id; `None` marks deleted slots.
    entries: Vec<Option<(Point<D>, f64)>>,
    free_ids: Vec<PointId>,
    live: usize,
    samples: SampleSet<D>,
    /// `|B_j|` at the start of the current epoch.
    epoch_base: usize,
    /// Number of epochs started so far (including the initial empty one).
    epochs: usize,
}

impl<const D: usize> DynamicBallMaxRS<D> {
    /// Creates an empty structure for a query ball of radius `radius`.
    ///
    /// # Panics
    /// Panics if `radius` is not strictly positive.
    pub fn new(radius: f64, config: SamplingConfig) -> Self {
        Self::from_points(radius, config, &[])
    }

    /// A structure holding `points` in one epoch whose base is the whole
    /// set: their dual balls go into one sample set, in order, and point
    /// `i` gets the handle `i`.
    ///
    /// # Panics
    /// Panics if `radius` is not strictly positive, or if any weight is
    /// negative or not finite.
    pub fn from_points(radius: f64, config: SamplingConfig, points: &[WeightedPoint<D>]) -> Self {
        assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
        let inv = 1.0 / radius;
        let mut samples = SampleSet::new(config, points.len());
        let entries = points
            .iter()
            .map(|wp| {
                assert!(
                    wp.weight.is_finite() && wp.weight >= 0.0,
                    "weights must be finite and non-negative"
                );
                let scaled = wp.point.scale(inv);
                samples.insert_ball(&Ball::unit(scaled), wp.weight);
                Some((scaled, wp.weight))
            })
            .collect();
        Self {
            config,
            radius,
            entries,
            free_ids: Vec::new(),
            live: points.len(),
            samples,
            epoch_base: points.len().max(1),
            epochs: 1,
        }
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no points are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of epochs started so far.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Inserts a weighted point and returns its handle.
    ///
    /// # Panics
    /// Panics if the weight is negative or not finite.
    pub fn insert(&mut self, point: Point<D>, weight: f64) -> PointId {
        assert!(weight.is_finite() && weight >= 0.0, "weights must be finite and non-negative");
        let scaled = point.scale(1.0 / self.radius);
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.entries[id] = Some((scaled, weight));
                id
            }
            None => {
                self.entries.push(Some((scaled, weight)));
                self.entries.len() - 1
            }
        };
        self.live += 1;
        self.samples.insert_ball(&Ball::unit(scaled), weight);
        self.maybe_start_new_epoch();
        id
    }

    /// Removes a previously inserted point.  Returns `false` if the handle was
    /// already removed.
    pub fn remove(&mut self, id: PointId) -> bool {
        let Some(slot) = self.entries.get_mut(id) else { return false };
        let Some((scaled, weight)) = slot.take() else { return false };
        self.free_ids.push(id);
        self.live -= 1;
        self.samples.remove_ball(&Ball::unit(scaled), weight);
        self.maybe_start_new_epoch();
        true
    }

    /// The current `(1/2 − ε)`-approximate placement, or `None` while empty:
    /// the deepest sample of [`SampleSet::best`], scaled back to input
    /// coordinates.  The value is that sample's depth, which equals the
    /// center's covered weight up to floating-point boundary ties; callers
    /// that promise certified values recount it.
    pub fn best(&self) -> Option<Placement<D>> {
        if self.live == 0 {
            return None;
        }
        self.samples.best().map(|(scaled_center, value)| Placement {
            center: scaled_center.scale(self.radius),
            value,
        })
    }

    /// Starts a new epoch (rebuilding the sampling structure) if the live
    /// count has left the `[base/2, 2·base]` window of the current epoch.
    fn maybe_start_new_epoch(&mut self) {
        let lower = self.epoch_base / 2;
        let upper = self.epoch_base * 2;
        if self.live >= lower.max(1) && self.live <= upper {
            return;
        }
        self.rebuild();
    }

    fn rebuild(&mut self) {
        self.epoch_base = self.live.max(1);
        self.epochs += 1;
        self.samples = SampleSet::new(self.config, self.epoch_base);
        for entry in self.entries.iter().flatten() {
            let (scaled, weight) = *entry;
            self.samples.insert_ball(&Ball::unit(scaled), weight);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::disk2d::max_disk_placement;
    use crate::input::ball_coverage_weight;
    use crate::technique1::static_ball::approx_static_ball;
    use mrs_geom::{Point2, WeightedPoint};
    use rand::prelude::*;

    fn cfg(seed: u64) -> SamplingConfig {
        SamplingConfig::practical(0.25).with_seed(seed)
    }

    #[test]
    fn starts_empty_and_handles_removal_of_unknown_ids() {
        let mut dyn_mrs = DynamicBallMaxRS::<2>::new(1.0, cfg(1));
        assert!(dyn_mrs.is_empty());
        assert!(dyn_mrs.best().is_none());
        assert!(!dyn_mrs.remove(17));
    }

    #[test]
    fn insert_then_remove_round_trip() {
        let mut dyn_mrs = DynamicBallMaxRS::<2>::new(1.0, cfg(2));
        let a = dyn_mrs.insert(Point2::xy(0.0, 0.0), 1.0);
        let b = dyn_mrs.insert(Point2::xy(0.2, 0.0), 2.0);
        assert_eq!(dyn_mrs.len(), 2);
        let best = dyn_mrs.best().unwrap();
        assert_eq!(best.value, 3.0);
        assert!(dyn_mrs.remove(b));
        assert!(!dyn_mrs.remove(b), "double removal must be rejected");
        assert_eq!(dyn_mrs.best().unwrap().value, 1.0);
        assert!(dyn_mrs.remove(a));
        assert!(dyn_mrs.best().is_none());
    }

    #[test]
    fn epochs_advance_as_the_set_grows_and_shrinks() {
        let mut dyn_mrs = DynamicBallMaxRS::<2>::new(1.0, cfg(3));
        let ids: Vec<_> =
            (0..64).map(|i| dyn_mrs.insert(Point2::xy(i as f64 * 0.01, 0.0), 1.0)).collect();
        let grown_epochs = dyn_mrs.epochs();
        assert!(grown_epochs > 1, "growing from 0 to 64 must trigger rebuilds");
        for id in &ids[..60] {
            dyn_mrs.remove(*id);
        }
        assert!(dyn_mrs.epochs() > grown_epochs, "shrinking by 94% must trigger rebuilds");
        assert_eq!(dyn_mrs.len(), 4);
        assert_eq!(dyn_mrs.best().unwrap().value, 4.0);
    }

    #[test]
    fn tracks_a_moving_hotspot() {
        // Insert a cluster at A, then delete it while inserting a cluster at B:
        // the reported placement must follow the live hotspot.
        let mut dyn_mrs = DynamicBallMaxRS::<2>::new(1.0, cfg(4));
        let a_ids: Vec<_> =
            (0..20).map(|i| dyn_mrs.insert(Point2::xy(0.0 + 0.01 * i as f64, 0.0), 1.0)).collect();
        let best = dyn_mrs.best().unwrap();
        assert!(best.center.dist(&Point2::xy(0.1, 0.0)) < 1.5);
        assert_eq!(best.value, 20.0);

        for (i, id) in a_ids.iter().enumerate() {
            dyn_mrs.remove(*id);
            dyn_mrs.insert(Point2::xy(50.0 + 0.01 * i as f64, 0.0), 1.0);
        }
        let best = dyn_mrs.best().unwrap();
        assert_eq!(best.value, 20.0);
        assert!(best.center.dist(&Point2::xy(50.1, 0.0)) < 1.5, "hotspot must move to B");
    }

    #[test]
    fn agrees_with_static_rebuild_after_random_update_sequence() {
        let mut rng = StdRng::seed_from_u64(55);
        let mut dyn_mrs = DynamicBallMaxRS::<2>::new(1.0, cfg(5));
        let mut live: Vec<(PointId, WeightedPoint<2>)> = Vec::new();
        for _ in 0..300 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let wp = WeightedPoint::new(
                    Point2::xy(rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)),
                    rng.gen_range(0.5..2.0),
                );
                let id = dyn_mrs.insert(wp.point, wp.weight);
                live.push((id, wp));
            } else {
                let k = rng.gen_range(0..live.len());
                let (id, _) = live.swap_remove(k);
                assert!(dyn_mrs.remove(id));
            }
        }
        assert_eq!(dyn_mrs.len(), live.len());
        let dyn_best = dyn_mrs.best().unwrap();
        // The dynamic answer is a genuine placement...
        let points: Vec<WeightedPoint<2>> = live.iter().map(|(_, wp)| *wp).collect();
        assert!(
            (ball_coverage_weight(&points, &dyn_best.center, 1.0) - dyn_best.value).abs() < 1e-9
        );
        // ...within the guarantee of the true optimum...
        let exact = max_disk_placement(&points, 1.0);
        assert!(
            dyn_best.value >= (0.5 - 0.25) * exact.value - 1e-9,
            "dynamic {} vs exact {}",
            dyn_best.value,
            exact.value
        );
        // ...and comparable to what a static run of the same technique finds.
        let static_best = approx_static_ball(&points, 1.0, cfg(5));
        assert!(dyn_best.value >= (0.5 - 0.25) * static_best.value - 1e-9);
    }

    #[test]
    fn from_points_is_one_epoch_of_the_static_build() {
        let mut rng = StdRng::seed_from_u64(57);
        let points: Vec<WeightedPoint<2>> = (0..300)
            .map(|_| {
                let p = Point2::xy(rng.gen_range(0.0..6.0), rng.gen_range(0.0..6.0));
                WeightedPoint::new(p, rng.gen_range(0.5..2.0))
            })
            .collect();
        let tracker = DynamicBallMaxRS::from_points(1.5, cfg(7), &points);
        assert_eq!((tracker.len(), tracker.epochs()), (300, 1));
        let static_best = crate::technique1::weighted_sample_set(&points, 1.5, cfg(7)).best;
        let (center, value) = static_best.expect("a non-empty set has a best sample");
        let best = tracker.best().unwrap();
        assert_eq!(best.value.to_bits(), value.to_bits());
        assert_eq!(best.center, center.scale(1.5));
        // The one-by-one tracker doubles its way there and lands on the
        // same answer: at 300 points its last base (255) also draws 64
        // samples a cell.
        let mut grown = DynamicBallMaxRS::<2>::new(1.5, cfg(7));
        for wp in &points {
            grown.insert(wp.point, wp.weight);
        }
        assert!(grown.epochs() > 1);
        assert_eq!(grown.best(), tracker.best());
    }

    #[test]
    fn works_in_three_dimensions() {
        let mut config = SamplingConfig::practical(0.35).with_seed(6);
        config.max_grids = Some(4);
        config.max_samples_per_cell = 16;
        let mut dyn_mrs = DynamicBallMaxRS::<3>::new(2.0, config);
        for i in 0..10 {
            dyn_mrs.insert(Point::new([0.1 * i as f64, 0.0, 0.0]), 1.0);
        }
        let far = dyn_mrs.insert(Point::new([100.0, 100.0, 100.0]), 100.0);
        assert_eq!(dyn_mrs.best().unwrap().value, 100.0);
        dyn_mrs.remove(far);
        let best = dyn_mrs.best().unwrap();
        assert_eq!(best.value, 10.0);
        assert!(best.center.dist(&Point::new([0.45, 0.0, 0.0])) < 2.5);
    }
}
