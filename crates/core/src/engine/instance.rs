//! The engine's unified instance model.
//!
//! A MaxRS instance is a point set plus a query-range *shape*.  The shape
//! generalizes the per-algorithm parameters of the underlying entry points: a
//! [`RangeShape::Ball`] of radius `r` is an interval of length `2r` in 1-D
//! and a disk in 2-D, while a [`RangeShape::AxisBox`] covers the rectangle
//! sweeps.  Solvers declare which shape class they accept (see
//! [`super::SolverDescriptor`]) and reject mismatches with a typed error
//! instead of a panic, so a caller can probe the registry safely.

use std::ops::Deref;
use std::sync::Arc;

use mrs_geom::{Ball, ColoredSite, Point, WeightedPoint};

use super::descriptor::ShapeClass;

/// A record the engine's one finiteness check applies to: a weighted point
/// (coordinates and weight) or a colored site (coordinates).
pub trait FiniteRecord {
    /// `true` if every coordinate (and the weight, if any) is finite.
    fn is_finite(&self) -> bool;
}

impl<const D: usize> FiniteRecord for WeightedPoint<D> {
    fn is_finite(&self) -> bool {
        self.point.is_finite() && self.weight.is_finite()
    }
}

impl<const D: usize> FiniteRecord for ColoredSite<D> {
    fn is_finite(&self) -> bool {
        self.point.is_finite()
    }
}

/// Why [`Finite::new`] refused a set: the record at `index` carries a NaN
/// or infinite coordinate or weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NonFinite {
    /// Position of the first offending record.
    pub index: usize,
}

impl std::fmt::Display for NonFinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record {} has a non-finite coordinate or weight", self.index)
    }
}

impl std::error::Error for NonFinite {}

/// A shared point or site set that passed the finiteness check.  The check
/// is the only public way to build a non-empty one, so every set the
/// engine holds was validated once, where it entered
/// (`VersionedDataset::new`, `SharedIndex::new`, `VersionedDataset::apply`),
/// and never again.  Cloning is `O(1)`; the set derefs to a slice.
#[derive(Debug)]
pub struct Finite<T>(Arc<[T]>);

impl<T: FiniteRecord> Finite<T> {
    /// Checks every record once, in `O(n)`.
    pub fn new(records: impl Into<Arc<[T]>>) -> Result<Self, NonFinite> {
        let records = records.into();
        match records.iter().position(|r| !r.is_finite()) {
            Some(index) => Err(NonFinite { index }),
            None => Ok(Self(records)),
        }
    }

    /// [`Self::new`] for the engine's panicking doors.
    ///
    /// # Panics
    /// Panics, naming the record, if any coordinate or weight is not finite.
    pub(crate) fn checked(records: impl Into<Arc<[T]>>) -> Self {
        Self::new(records).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Wraps a set assembled only from records that already passed the
    /// check (a version's live set: base records plus inserts `apply`
    /// checked), without scanning it again.
    pub(super) fn assembled(records: Vec<T>) -> Self {
        debug_assert!(
            records.iter().all(FiniteRecord::is_finite),
            "assembled from checked records"
        );
        Self(records.into())
    }
}

/// The empty set, which is trivially finite.
impl<T> Default for Finite<T> {
    fn default() -> Self {
        Self(Arc::new([]))
    }
}

impl<T> Clone for Finite<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> Deref for Finite<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

/// The query range of an engine instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RangeShape<const D: usize> {
    /// A `d`-ball of the given radius.
    Ball {
        /// Radius of the query ball (must be positive).
        radius: f64,
    },
    /// An axis-aligned box with the given side lengths, addressed by its
    /// center.
    AxisBox {
        /// Side length of the box along each axis (must be positive).
        extents: [f64; D],
    },
}

impl<const D: usize> RangeShape<D> {
    /// A ball shape.
    ///
    /// # Panics
    /// Panics unless the radius is finite and positive.
    pub fn ball(radius: f64) -> Self {
        assert!(radius.is_finite() && radius > 0.0, "query radius must be positive");
        RangeShape::Ball { radius }
    }

    /// An axis-aligned box shape.
    ///
    /// # Panics
    /// Panics unless every extent is finite and positive.
    pub fn axis_box(extents: [f64; D]) -> Self {
        for e in extents {
            assert!(e.is_finite() && e > 0.0, "box extents must be positive");
        }
        RangeShape::AxisBox { extents }
    }

    /// The shape's class, for capability matching.
    pub fn class(&self) -> ShapeClass {
        match self {
            RangeShape::Ball { .. } => ShapeClass::Ball,
            RangeShape::AxisBox { .. } => ShapeClass::AxisBox,
        }
    }

    /// The ball radius, if this is a ball shape.
    pub fn ball_radius(&self) -> Option<f64> {
        match self {
            RangeShape::Ball { radius } => Some(*radius),
            RangeShape::AxisBox { .. } => None,
        }
    }

    /// The box extents, if this is a box shape.
    pub fn box_extents(&self) -> Option<[f64; D]> {
        match self {
            RangeShape::Ball { .. } => None,
            RangeShape::AxisBox { extents } => Some(*extents),
        }
    }

    /// Is `point` covered by this range centered at `center`?  Ranges are
    /// closed, matching the underlying exact algorithms, and boundaries get
    /// the same small relative tolerance in both shapes: the optimal
    /// placement of an exact sweep always has points *on* its boundary, and
    /// the reported center carries rounding, so a strict comparison would
    /// drop exactly the points the optimum was built from.
    pub fn covers(&self, center: &Point<D>, point: &Point<D>) -> bool {
        match self {
            RangeShape::Ball { radius } => Ball::new(*center, *radius).contains(point),
            RangeShape::AxisBox { extents } => (0..D).all(|i| {
                let half = extents[i] / 2.0;
                (point[i] - center[i]).abs() <= half * (1.0 + 1e-12) + 1e-12
            }),
        }
    }
}

impl RangeShape<1> {
    /// The 1-D interval of the given length (a ball of radius `len/2`).
    pub fn interval(len: f64) -> Self {
        RangeShape::<1>::ball(len / 2.0)
    }
}

impl RangeShape<2> {
    /// The planar `width × height` rectangle.
    pub fn rect(width: f64, height: f64) -> Self {
        RangeShape::<2>::axis_box([width, height])
    }
}

/// A weighted MaxRS instance: weighted points plus a query-range shape.
///
/// The point set is a [`Finite`] handle, so cloning an instance — or
/// deriving a sibling with a different shape via [`Self::with_shape`] — is
/// `O(1)` and shares the underlying points.  The batch executor
/// ([`super::executor`]) relies on this to fan hundreds of query shapes out
/// over one point set without copying it per query.
#[derive(Clone, Debug)]
pub struct WeightedInstance<const D: usize> {
    points: Finite<WeightedPoint<D>>,
    shape: RangeShape<D>,
}

impl<const D: usize> WeightedInstance<D> {
    /// Creates an instance.
    ///
    /// Negative weights are allowed at the instance level — the 1-D interval
    /// solvers (including the hardness-reduction gadgets of Section 5)
    /// support them — but most solvers require non-negative weights and
    /// refuse mixed-sign instances with a typed
    /// [`EngineError`](super::EngineError) (see
    /// [`SolverDescriptor::negative_weights`](super::SolverDescriptor)).
    ///
    /// # Panics
    /// Panics if any coordinate or weight is not finite.
    pub fn new(points: Vec<WeightedPoint<D>>, shape: RangeShape<D>) -> Self {
        Self::from_shared(Finite::checked(points), shape)
    }

    /// Creates an instance over an already-checked shared point set, in
    /// `O(1)` (the batch-execution path).
    pub fn from_shared(points: Finite<WeightedPoint<D>>, shape: RangeShape<D>) -> Self {
        Self { points, shape }
    }

    /// A sibling instance over the same (shared) points with a different
    /// query shape, in `O(1)`.
    pub fn with_shape(&self, shape: RangeShape<D>) -> Self {
        Self { points: self.points.clone(), shape }
    }

    /// The shared handle to the point set (cloning it is `O(1)`).
    pub fn shared_points(&self) -> Finite<WeightedPoint<D>> {
        self.points.clone()
    }

    /// An instance with a ball range of the given radius.
    pub fn ball(points: Vec<WeightedPoint<D>>, radius: f64) -> Self {
        Self::new(points, RangeShape::ball(radius))
    }

    /// An instance with an axis-aligned box range of the given extents.
    pub fn axis_box(points: Vec<WeightedPoint<D>>, extents: [f64; D]) -> Self {
        Self::new(points, RangeShape::axis_box(extents))
    }

    /// The input points.
    pub fn points(&self) -> &[WeightedPoint<D>] {
        &self.points
    }

    /// The query-range shape.
    pub fn shape(&self) -> &RangeShape<D> {
        &self.shape
    }

    /// Number of input points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the instance has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total weight of all points (an upper bound on any placement value
    /// when weights are non-negative).
    pub fn total_weight(&self) -> f64 {
        self.points.iter().map(|p| p.weight).sum()
    }

    /// `true` if any point carries a negative weight (most solvers refuse
    /// such instances; the 1-D interval solvers accept them).
    pub fn has_negative_weights(&self) -> bool {
        self.points.iter().any(|p| p.weight < 0.0)
    }

    /// The exact covered weight of placing the range at `center`.
    pub fn value_at(&self, center: &Point<D>) -> f64 {
        self.points
            .iter()
            .filter(|wp| self.shape.covers(center, &wp.point))
            .map(|wp| wp.weight)
            .sum()
    }
}

/// A colored MaxRS instance: colored sites plus a query-range shape.
///
/// Like [`WeightedInstance`], the site set is a [`Finite`] handle: cloning
/// and [`Self::with_shape`] are `O(1)` and share the sites.
#[derive(Clone, Debug)]
pub struct ColoredInstance<const D: usize> {
    sites: Finite<ColoredSite<D>>,
    shape: RangeShape<D>,
}

impl<const D: usize> ColoredInstance<D> {
    /// Creates an instance.
    ///
    /// # Panics
    /// Panics if any coordinate is not finite.
    pub fn new(sites: Vec<ColoredSite<D>>, shape: RangeShape<D>) -> Self {
        Self::from_shared(Finite::checked(sites), shape)
    }

    /// Creates an instance over an already-checked shared site set, in
    /// `O(1)` (the batch-execution path).
    pub fn from_shared(sites: Finite<ColoredSite<D>>, shape: RangeShape<D>) -> Self {
        Self { sites, shape }
    }

    /// A sibling instance over the same (shared) sites with a different
    /// query shape, in `O(1)`.
    pub fn with_shape(&self, shape: RangeShape<D>) -> Self {
        Self { sites: self.sites.clone(), shape }
    }

    /// The shared handle to the site set (cloning it is `O(1)`).
    pub fn shared_sites(&self) -> Finite<ColoredSite<D>> {
        self.sites.clone()
    }

    /// An instance with a ball range of the given radius.
    pub fn ball(sites: Vec<ColoredSite<D>>, radius: f64) -> Self {
        Self::new(sites, RangeShape::ball(radius))
    }

    /// An instance with an axis-aligned box range of the given extents.
    pub fn axis_box(sites: Vec<ColoredSite<D>>, extents: [f64; D]) -> Self {
        Self::new(sites, RangeShape::axis_box(extents))
    }

    /// The input sites.
    pub fn sites(&self) -> &[ColoredSite<D>] {
        &self.sites
    }

    /// The query-range shape.
    pub fn shape(&self) -> &RangeShape<D> {
        &self.shape
    }

    /// Number of input sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` if the instance has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Number of distinct colors present in the input (an upper bound on any
    /// placement's distinct-color count).
    pub fn distinct_colors(&self) -> usize {
        let mut colors: Vec<usize> = self.sites.iter().map(|s| s.color).collect();
        colors.sort_unstable();
        colors.dedup();
        colors.len()
    }

    /// The exact number of distinct colors covered by placing the range at
    /// `center`.
    pub fn distinct_at(&self, center: &Point<D>) -> usize {
        let mut colors: Vec<usize> = self
            .sites
            .iter()
            .filter(|s| self.shape.covers(center, &s.point))
            .map(|s| s.color)
            .collect();
        colors.sort_unstable();
        colors.dedup();
        colors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_geom::Point2;

    #[test]
    fn shapes_cover_closed_ranges() {
        let ball = RangeShape::<2>::ball(1.0);
        assert!(ball.covers(&Point2::xy(0.0, 0.0), &Point2::xy(1.0, 0.0)));
        assert!(!ball.covers(&Point2::xy(0.0, 0.0), &Point2::xy(1.0, 0.5)));
        assert_eq!(ball.class(), ShapeClass::Ball);
        assert_eq!(ball.ball_radius(), Some(1.0));
        assert_eq!(ball.box_extents(), None);

        let rect = RangeShape::rect(2.0, 1.0);
        assert!(rect.covers(&Point2::xy(0.0, 0.0), &Point2::xy(1.0, 0.5)));
        assert!(!rect.covers(&Point2::xy(0.0, 0.0), &Point2::xy(1.1, 0.0)));
        assert_eq!(rect.class(), ShapeClass::AxisBox);
        assert_eq!(rect.box_extents(), Some([2.0, 1.0]));
    }

    #[test]
    fn interval_shape_is_a_half_length_ball() {
        let shape = RangeShape::interval(3.0);
        assert_eq!(shape.ball_radius(), Some(1.5));
    }

    #[test]
    fn weighted_instance_evaluation() {
        let inst = WeightedInstance::ball(
            vec![
                WeightedPoint::new(Point2::xy(0.0, 0.0), 2.0),
                WeightedPoint::new(Point2::xy(1.0, 0.0), 3.0),
                WeightedPoint::new(Point2::xy(10.0, 0.0), 5.0),
            ],
            2.0,
        );
        assert_eq!(inst.len(), 3);
        assert!(!inst.is_empty());
        assert_eq!(inst.total_weight(), 10.0);
        assert_eq!(inst.value_at(&Point2::xy(0.5, 0.0)), 5.0);
        assert_eq!(inst.shape().ball_radius(), Some(2.0));

        let boxed =
            WeightedInstance::axis_box(vec![WeightedPoint::unit(Point2::xy(0.6, 0.0))], [1.0, 1.0]);
        assert_eq!(boxed.value_at(&Point2::xy(0.0, 0.0)), 0.0);
        assert_eq!(boxed.value_at(&Point2::xy(0.2, 0.0)), 1.0);
        assert!(boxed.shape().ball_radius().is_none());
    }

    #[test]
    fn colored_instance_evaluation() {
        let inst = ColoredInstance::ball(
            vec![
                ColoredSite::new(Point2::xy(0.0, 0.0), 0),
                ColoredSite::new(Point2::xy(0.2, 0.0), 0),
                ColoredSite::new(Point2::xy(0.4, 0.0), 1),
                ColoredSite::new(Point2::xy(9.0, 9.0), 2),
            ],
            1.0,
        );
        assert_eq!(inst.distinct_colors(), 3);
        assert_eq!(inst.distinct_at(&Point2::xy(0.0, 0.0)), 2);
        assert_eq!(inst.shape().ball_radius(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "query radius must be positive")]
    fn rejects_non_positive_radius() {
        RangeShape::<2>::ball(0.0);
    }

    #[test]
    #[should_panic(expected = "box extents must be positive")]
    fn rejects_non_positive_extents() {
        RangeShape::<2>::axis_box([1.0, -1.0]);
    }

    #[test]
    fn with_shape_shares_points_in_o1() {
        let inst = WeightedInstance::ball(vec![WeightedPoint::unit(Point2::xy(0.0, 0.0))], 1.0);
        let sibling = inst.with_shape(RangeShape::rect(2.0, 2.0));
        assert!(std::ptr::eq(inst.points(), sibling.points()));
        assert_eq!(sibling.shape().box_extents(), Some([2.0, 2.0]));
        assert_eq!(inst.shape().ball_radius(), Some(1.0), "original shape untouched");

        let colored = ColoredInstance::ball(vec![ColoredSite::new(Point2::xy(0.0, 0.0), 1)], 1.0);
        let sibling = colored.with_shape(RangeShape::ball(3.0));
        assert!(std::ptr::eq(colored.sites(), sibling.sites()));
        assert_eq!(sibling.shape().ball_radius(), Some(3.0));
    }

    #[test]
    fn the_finiteness_check_refuses_and_names_each_bad_record() {
        let ok = WeightedPoint::new(Point2::xy(1.0, 2.0), 3.0);
        for bad in [
            WeightedPoint::new(Point2::xy(f64::NAN, 0.0), 1.0),
            WeightedPoint::new(Point2::xy(0.0, f64::INFINITY), 1.0),
            WeightedPoint::new(Point2::xy(f64::NEG_INFINITY, 0.0), 1.0),
            WeightedPoint::new(Point2::xy(0.0, 0.0), f64::NAN),
            WeightedPoint::new(Point2::xy(0.0, 0.0), f64::INFINITY),
            WeightedPoint::new(Point2::xy(0.0, 0.0), f64::NEG_INFINITY),
        ] {
            let err = Finite::new(vec![ok, ok, bad]).unwrap_err();
            assert_eq!(err, NonFinite { index: 2 }, "{bad:?}");
            assert_eq!(err.to_string(), "record 2 has a non-finite coordinate or weight");
        }
        let site = |x: f64, y: f64| ColoredSite::new(Point2::xy(x, y), 0);
        for bad in [site(f64::NAN, 0.0), site(0.0, f64::INFINITY), site(f64::NEG_INFINITY, 0.0)] {
            assert_eq!(Finite::new(vec![bad, site(0.0, 0.0)]).unwrap_err(), NonFinite { index: 0 });
        }
        let points = Finite::new(vec![ok, ok]).expect("finite points pass");
        assert_eq!(points.len(), 2);
        assert!(Finite::<ColoredSite<2>>::new(Vec::new()).is_ok(), "an empty set is finite");
    }

    #[test]
    #[should_panic(expected = "record 0 has a non-finite coordinate or weight")]
    fn instance_constructors_panic_naming_the_record() {
        WeightedInstance::ball(vec![WeightedPoint::new(Point2::xy(0.0, 0.0), f64::NAN)], 1.0);
    }
}
