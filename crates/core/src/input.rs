//! Result types shared by every MaxRS algorithm in this crate, the exact
//! ball recounts that certify them, and the CSV loaders.
//!
//! Algorithms take their input as point or site slices plus the range's
//! parameters, as the exact sweeps do; the engine's
//! [`WeightedInstance`](crate::engine::WeightedInstance) and
//! [`ColoredInstance`](crate::engine::ColoredInstance) are the one instance
//! model, checked once where data enters.

use std::fmt;
use std::str::FromStr;

use mrs_geom::{Ball, ColoredSite, Point, Point2, WeightedPoint};

use crate::engine::versioned::Mutation;

/// A placement of the query range for a weighted MaxRS problem: where to put
/// the range's center, and the total weight it covers there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement<const D: usize> {
    /// Center of the query ball (original, unscaled coordinates).
    pub center: Point<D>,
    /// Total covered weight at this placement.
    pub value: f64,
}

impl<const D: usize> Placement<D> {
    /// A placement covering nothing, used for empty inputs.
    pub fn empty() -> Self {
        Self { center: Point::origin(), value: 0.0 }
    }
}

/// A placement of the query range for a colored MaxRS problem: where to put
/// the range's center, and how many distinct colors it covers there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColoredPlacement<const D: usize> {
    /// Center of the query ball (original, unscaled coordinates).
    pub center: Point<D>,
    /// Number of distinct colors covered at this placement.
    pub distinct: usize,
}

impl<const D: usize> ColoredPlacement<D> {
    /// A placement covering nothing, used for empty inputs.
    pub fn empty() -> Self {
        Self { center: Point::origin(), distinct: 0 }
    }
}

/// The exact covered weight of placing a closed ball at `center`: the recount
/// every ball sampler certifies its reported value with, so they all apply
/// the same containment arithmetic.
pub fn ball_coverage_weight<const D: usize>(
    points: &[WeightedPoint<D>],
    center: &Point<D>,
    radius: f64,
) -> f64 {
    let query = Ball::new(*center, radius);
    points.iter().filter(|wp| query.contains(&wp.point)).map(|wp| wp.weight).sum()
}

/// The exact distinct-color count of placing a closed ball at `center`: the
/// colored counterpart of [`ball_coverage_weight`].
pub fn ball_distinct_colors<const D: usize>(
    sites: &[ColoredSite<D>],
    center: &Point<D>,
    radius: f64,
) -> usize {
    let query = Ball::new(*center, radius);
    let mut colors: Vec<usize> =
        sites.iter().filter(|s| query.contains(&s.point)).map(|s| s.color).collect();
    colors.sort_unstable();
    colors.dedup();
    colors.len()
}

/// Why a CSV record could not be loaded.
///
/// Every variant pinpoints the offending field, so callers can render
/// actionable messages ("line 7: invalid number `abc`") instead of stringly
/// errors assembled ad hoc at each call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadErrorKind {
    /// The record has the wrong number of comma-separated fields.
    Arity {
        /// The format the record was expected to match.
        expected: &'static str,
        /// The record as read.
        got: String,
    },
    /// A coordinate or weight field is not a finite number.
    Number {
        /// The raw field text.
        field: String,
    },
    /// A weight field is negative (the paper's algorithms require
    /// non-negative weights; the Section 5 gadgets construct their
    /// mixed-sign instances programmatically, never from CSV).
    NegativeWeight,
    /// A color field is not a non-negative integer.
    Color {
        /// The raw field text.
        field: String,
    },
}

/// A typed CSV loading error: which line failed, and how.
///
/// Lines are 1-based, matching what an editor shows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong with it.
    pub kind: LoadErrorKind,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            LoadErrorKind::Arity { expected, got } => {
                write!(f, "expected `{expected}`, got `{got}`")
            }
            LoadErrorKind::Number { field } => write!(f, "invalid number `{field}`"),
            LoadErrorKind::NegativeWeight => write!(f, "weights must be non-negative"),
            LoadErrorKind::Color { field } => write!(f, "invalid color `{field}`"),
        }
    }
}

impl std::error::Error for LoadError {}

/// A planar point set in both of its query views: every record contributes a
/// weighted point, and the records carrying a color also contribute a
/// colored site.  This is what the batch CSV format (`x,y[,weight[,color]]`)
/// loads into, and what the server's dataset catalog keeps resident.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointSet {
    /// The weighted view (one entry per record).
    pub points: Vec<WeightedPoint<2>>,
    /// The colored view (one entry per record with a 4th field).
    pub sites: Vec<ColoredSite<2>>,
}

impl PointSet {
    /// `true` if the set holds no records at all.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty() && self.sites.is_empty()
    }
}

/// Strips the `#` comment and surrounding whitespace; `None` for blank lines.
fn data_of(line: &str) -> Option<&str> {
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        None
    } else {
        Some(line)
    }
}

/// Parses a finite `f64` field.  `f64::from_str` happily accepts "inf" and
/// "NaN", which the engine's instance constructors reject with a panic; the
/// loader keeps the contract of clean line-numbered errors instead.
fn parse_number(raw: &str, line: usize) -> Result<f64, LoadError> {
    f64::from_str(raw)
        .ok()
        .filter(|v| v.is_finite())
        .ok_or(LoadError { line, kind: LoadErrorKind::Number { field: raw.to_string() } })
}

fn parse_color(raw: &str, line: usize) -> Result<usize, LoadError> {
    raw.parse()
        .map_err(|_| LoadError { line, kind: LoadErrorKind::Color { field: raw.to_string() } })
}

/// Parses weighted points from CSV text: one `x,y[,weight]` record per line,
/// `#` starts a comment, blank lines are skipped, `weight` defaults to 1 and
/// must be non-negative.
pub fn parse_weighted_csv(text: &str) -> Result<Vec<WeightedPoint<2>>, LoadError> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let Some(data) = data_of(raw) else { continue };
        let fields: Vec<&str> = data.split(',').map(str::trim).collect();
        if fields.len() < 2 || fields.len() > 3 {
            return Err(LoadError {
                line,
                kind: LoadErrorKind::Arity { expected: "x,y[,weight]", got: data.to_string() },
            });
        }
        let x = parse_number(fields[0], line)?;
        let y = parse_number(fields[1], line)?;
        let weight = if fields.len() == 3 { parse_number(fields[2], line)? } else { 1.0 };
        if weight < 0.0 {
            return Err(LoadError { line, kind: LoadErrorKind::NegativeWeight });
        }
        out.push(WeightedPoint::new(Point2::xy(x, y), weight));
    }
    Ok(out)
}

/// Parses colored sites from CSV text: one `x,y,color` record per line, with
/// the same comment/blank-line rules as [`parse_weighted_csv`].
pub fn parse_colored_csv(text: &str) -> Result<Vec<ColoredSite<2>>, LoadError> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let Some(data) = data_of(raw) else { continue };
        let fields: Vec<&str> = data.split(',').map(str::trim).collect();
        if fields.len() != 3 {
            return Err(LoadError {
                line,
                kind: LoadErrorKind::Arity { expected: "x,y,color", got: data.to_string() },
            });
        }
        let x = parse_number(fields[0], line)?;
        let y = parse_number(fields[1], line)?;
        let color = parse_color(fields[2], line)?;
        out.push(ColoredSite::new(Point2::xy(x, y), color));
    }
    Ok(out)
}

/// Parses 1-D weighted points from CSV text: one `x[,weight]` record per
/// line, with the same comment/blank-line rules as [`parse_weighted_csv`].
/// This is the format behind the server's 1-D datasets (`?dim=1`), whose
/// interval queries the Theorem 1.3 batched solver answers off one resident
/// sorted event list.
pub fn parse_line_csv(text: &str) -> Result<Vec<WeightedPoint<1>>, LoadError> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let Some(data) = data_of(raw) else { continue };
        let fields: Vec<&str> = data.split(',').map(str::trim).collect();
        if fields.is_empty() || fields.len() > 2 {
            return Err(LoadError {
                line,
                kind: LoadErrorKind::Arity { expected: "x[,weight]", got: data.to_string() },
            });
        }
        let x = parse_number(fields[0], line)?;
        let weight = if fields.len() == 2 { parse_number(fields[1], line)? } else { 1.0 };
        if weight < 0.0 {
            return Err(LoadError { line, kind: LoadErrorKind::NegativeWeight });
        }
        out.push(WeightedPoint::new(Point::new([x]), weight));
    }
    Ok(out)
}

/// The one definition of the planar `x,y[,weight[,color]]` record grammar
/// (arity, weight default of 1, negative-weight rejection, color parsing):
/// dataset loads ([`parse_point_set_csv`]) and insert-mutation bodies
/// ([`parse_planar_inserts_csv`]) both parse through here, so the two can
/// never accept different records.
fn parse_planar_record(
    data: &str,
    line: usize,
) -> Result<(WeightedPoint<2>, Option<usize>), LoadError> {
    let fields: Vec<&str> = data.split(',').map(str::trim).collect();
    if fields.len() < 2 || fields.len() > 4 {
        return Err(LoadError {
            line,
            kind: LoadErrorKind::Arity { expected: "x,y[,weight[,color]]", got: data.to_string() },
        });
    }
    let x = parse_number(fields[0], line)?;
    let y = parse_number(fields[1], line)?;
    let weight = if fields.len() >= 3 { parse_number(fields[2], line)? } else { 1.0 };
    if weight < 0.0 {
        return Err(LoadError { line, kind: LoadErrorKind::NegativeWeight });
    }
    let color = if fields.len() == 4 { Some(parse_color(fields[3], line)?) } else { None };
    Ok((WeightedPoint::new(Point2::xy(x, y), weight), color))
}

/// Parses a dual-view point set from CSV text: one `x,y[,weight[,color]]`
/// record per line.  Every record lands in [`PointSet::points`]; records
/// with a 4th field also land in [`PointSet::sites`], so one file serves
/// both weighted and colored queries.  This is the format behind
/// `maxrs batch` and the server's `POST /datasets/{name}`.
pub fn parse_point_set_csv(text: &str) -> Result<PointSet, LoadError> {
    let mut set = PointSet::default();
    for (lineno, raw) in text.lines().enumerate() {
        let Some(data) = data_of(raw) else { continue };
        let (point, color) = parse_planar_record(data, lineno + 1)?;
        set.points.push(point);
        if let Some(color) = color {
            set.sites.push(ColoredSite::new(point.point, color));
        }
    }
    Ok(set)
}

/// Parses planar **insert** mutations: the same `x,y[,weight[,color]]`
/// records as [`parse_point_set_csv`] (shared grammar, see
/// `parse_planar_record`), each becoming one [`Mutation::Insert`] (a 4th
/// field inserts a colored site at the same coordinates, exactly like a
/// dataset row).
pub fn parse_planar_inserts_csv(text: &str) -> Result<Vec<Mutation<2>>, LoadError> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let Some(data) = data_of(raw) else { continue };
        let (point, color) = parse_planar_record(data, lineno + 1)?;
        out.push(Mutation::Insert { point, color });
    }
    Ok(out)
}

/// Parses planar **delete** mutations: one `x,y` record per line (deletes
/// address coordinates only — the first live point, and first live site,
/// at exactly those coordinates is removed).
pub fn parse_planar_deletes_csv(text: &str) -> Result<Vec<Mutation<2>>, LoadError> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let Some(data) = data_of(raw) else { continue };
        let fields: Vec<&str> = data.split(',').map(str::trim).collect();
        if fields.len() != 2 {
            return Err(LoadError {
                line,
                kind: LoadErrorKind::Arity { expected: "x,y", got: data.to_string() },
            });
        }
        let x = parse_number(fields[0], line)?;
        let y = parse_number(fields[1], line)?;
        out.push(Mutation::Delete { point: Point2::xy(x, y) });
    }
    Ok(out)
}

/// Parses 1-D **insert** mutations: `x[,weight]` records, like
/// [`parse_line_csv`].
pub fn parse_line_inserts_csv(text: &str) -> Result<Vec<Mutation<1>>, LoadError> {
    Ok(parse_line_csv(text)?
        .into_iter()
        .map(|point| Mutation::Insert { point, color: None })
        .collect())
}

/// Parses 1-D **delete** mutations: one `x` record per line.
pub fn parse_line_deletes_csv(text: &str) -> Result<Vec<Mutation<1>>, LoadError> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let Some(data) = data_of(raw) else { continue };
        let fields: Vec<&str> = data.split(',').map(str::trim).collect();
        if fields.len() != 1 {
            return Err(LoadError {
                line,
                kind: LoadErrorKind::Arity { expected: "x", got: data.to_string() },
            });
        }
        let x = parse_number(fields[0], line)?;
        out.push(Mutation::Delete { point: Point::new([x]) });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loader_parses_weighted_and_colored_csv() {
        let weighted = "0,0\n1.5, 2.5, 3  # heavy point\n\n# comment line\n";
        let points = parse_weighted_csv(weighted).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].weight, 3.0);

        let colored = "0,0,0\n1,1,4\n";
        let sites = parse_colored_csv(colored).unwrap();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[1].color, 4);
    }

    #[test]
    fn loader_errors_are_typed_and_line_numbered() {
        let e = parse_weighted_csv("0,0\n1,2,3,4\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, LoadErrorKind::Arity { expected: "x,y[,weight]", .. }));
        assert!(e.to_string().contains("line 2"), "{e}");

        let e = parse_weighted_csv("1,2,-1\n").unwrap_err();
        assert_eq!(e, LoadError { line: 1, kind: LoadErrorKind::NegativeWeight });

        let e = parse_colored_csv("0,0,0\n1,2,red\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, LoadErrorKind::Color { ref field } if field == "red"));

        // Non-finite numbers are clean errors, not engine panics.
        for bad in ["inf,0\n", "0,NaN\n", "0,0,inf\n"] {
            let e = parse_weighted_csv(bad).unwrap_err();
            assert!(matches!(e.kind, LoadErrorKind::Number { .. }), "{bad}: {e:?}");
        }
        assert!(parse_colored_csv("NaN,0,1\n").is_err());
        assert!(parse_colored_csv("1,2\n").is_err());
    }

    #[test]
    fn loader_parses_line_csv() {
        let points = parse_line_csv("0\n1.5, 2  # weighted\n\n# comment\n-3\n").unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].point[0], 0.0);
        assert_eq!(points[1].weight, 2.0);
        assert_eq!(points[2].point[0], -3.0);
        assert!(parse_line_csv("1,2,3\n").is_err());
        assert!(parse_line_csv("1,-1\n").is_err());
        assert!(parse_line_csv("inf\n").is_err());
    }

    #[test]
    fn loader_parses_dual_view_point_sets() {
        let set = parse_point_set_csv("0,0\n1,1,2.5\n2,2,1,7  # weighted and colored\n").unwrap();
        assert_eq!(set.points.len(), 3);
        assert_eq!(set.points[1].weight, 2.5);
        assert_eq!(set.sites.len(), 1);
        assert_eq!(set.sites[0].color, 7);
        assert!(!set.is_empty());
        assert!(PointSet::default().is_empty());

        assert!(parse_point_set_csv("1\n").is_err());
        assert!(parse_point_set_csv("1,2,3,4,5\n").is_err());
        assert!(parse_point_set_csv("1,2,-1\n").is_err());
        assert!(parse_point_set_csv("1,2,1,red\n").is_err());
        assert!(parse_point_set_csv("inf,0,1\n").is_err());
        assert!(parse_point_set_csv("0,0,NaN\n").is_err());
    }

    #[test]
    fn ball_recounts_evaluate_closed_balls() {
        let points = [
            WeightedPoint::new(Point2::xy(0.0, 0.0), 2.0),
            WeightedPoint::new(Point2::xy(1.0, 0.0), 3.0),
            WeightedPoint::new(Point2::xy(10.0, 0.0), 5.0),
        ];
        assert_eq!(ball_coverage_weight(&points, &Point2::xy(0.5, 0.0), 2.0), 5.0);
        assert_eq!(ball_coverage_weight(&points, &Point2::xy(10.0, 0.0), 2.0), 5.0);

        let sites = [
            ColoredSite::new(Point2::xy(0.0, 0.0), 0),
            ColoredSite::new(Point2::xy(0.2, 0.0), 0),
            ColoredSite::new(Point2::xy(0.4, 0.0), 1),
            ColoredSite::new(Point2::xy(9.0, 9.0), 2),
        ];
        assert_eq!(ball_distinct_colors(&sites, &Point2::xy(0.0, 0.0), 1.0), 2);
        assert_eq!(ball_distinct_colors(&sites, &Point2::xy(9.0, 9.0), 1.0), 1);
        assert_eq!(ball_distinct_colors(&sites, &Point2::xy(50.0, 50.0), 1.0), 0);
    }

    #[test]
    fn placements_default_to_empty() {
        assert_eq!(Placement::<2>::empty().value, 0.0);
        assert_eq!(ColoredPlacement::<3>::empty().distinct, 0);
    }
}
