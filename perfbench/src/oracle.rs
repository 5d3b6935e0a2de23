//! The correctness oracle behind `failed` / `error_rate`.
//!
//! Reference values are computed in-process, untimed and outside set-up:
//! once per distinct exact query for the static datasets (through the same
//! registry solver on a private index over the same parsed points), and by
//! replaying the mutation stream on a sorted model for `line-update`.
//! Every served answer must be 2xx and certified; every exact answer must
//! render the same value as its reference; and on the mutable dataset a
//! read after a write must be freshly computed (`cached:false`) at a
//! version no older than the last acknowledged write.

use mrs_batched::BatchedMaxRS1D;
use mrs_core::engine::{
    ColoredInstance, GuaranteeClass, ProblemKind, RangeShape, Registry, SharedIndex,
    WeightedInstance,
};
use mrs_core::exact::interval1d::{LinePoint, SortedLine};
use mrs_core::input;
use mrs_geom::{ColoredSite, WeightedPoint};
use mrs_server::Json;

use crate::workload::{Kind, Query, Spec, Step, Write};

/// The parsed points and sites of one dataset, as the catalog parses them.
pub enum Parsed {
    Line(Vec<WeightedPoint<1>>),
    Planar(Vec<WeightedPoint<2>>, Vec<ColoredSite<2>>),
}

impl Parsed {
    pub fn of(dim: usize, csv: &str) -> Parsed {
        if dim == 1 {
            Parsed::Line(input::parse_line_csv(csv).expect("generated CSV parses"))
        } else {
            let set = input::parse_point_set_csv(csv).expect("generated CSV parses");
            Parsed::Planar(set.points, set.sites)
        }
    }
}

/// One reference value per pool id: `Some` for every query whose answer is
/// exact on the static datasets.
pub fn static_references(spec: &Spec, registry: &Registry) -> Vec<Option<f64>> {
    let mut refs = vec![None; spec.pool.len()];
    if spec.kind == Kind::LineUpdate {
        return refs;
    }
    for (d, dataset) in spec.datasets.iter().enumerate() {
        match Parsed::of(dataset.dim, &dataset.csv) {
            Parsed::Line(points) => {
                let index = SharedIndex::<1>::new(points.into(), Vec::new().into());
                for (id, query) in spec.pool.iter().enumerate().filter(|(_, q)| q.dataset == d) {
                    refs[id] = reference(registry, &index, query, query.shape.line());
                }
            }
            Parsed::Planar(points, sites) => {
                let index = SharedIndex::<2>::new(points.into(), sites.into());
                for (id, query) in spec.pool.iter().enumerate().filter(|(_, q)| q.dataset == d) {
                    refs[id] = reference(registry, &index, query, query.shape.planar());
                }
            }
        }
    }
    refs
}

/// The exact value of one query, or `None` for approximate solvers (whose
/// first call per radius builds a sample-set family: not worth paying for
/// a value no answer is compared with).
fn reference<const D: usize>(
    registry: &Registry,
    index: &SharedIndex<D>,
    query: &Query,
    shape: RangeShape<D>,
) -> Option<f64> {
    let descriptor = registry
        .descriptors()
        .into_iter()
        .find(|d| d.name == query.solver && d.problem == query.problem)?;
    if descriptor.guarantee != GuaranteeClass::Exact && query.solver != "auto" {
        return None;
    }
    match query.problem {
        ProblemKind::Weighted => {
            let solver = registry.weighted::<D>(&query.solver)?;
            let base = WeightedInstance::from_shared(index.shared_points(), shape);
            let report = solver.solve_all(&base, &[shape], index, 2).pop()?.ok()?;
            report.guarantee.is_exact().then_some(report.placement.value)
        }
        ProblemKind::Colored => {
            let solver = registry.colored::<D>(&query.solver)?;
            let base = ColoredInstance::from_shared(index.shared_sites(), shape);
            let report = solver.solve_all(&base, &[shape], index, 2).pop()?.ok()?;
            report.guarantee.is_exact().then_some(report.placement.distinct as f64)
        }
    }
}

/// The live points of the mutable 1-D dataset, sorted by coordinate with
/// ties in the dataset's canonical order (base points first, then inserts
/// in arrival order) — exactly the order the served index sums prefixes in,
/// so reference values match bit for bit.
struct LineModel {
    sorted: Vec<LinePoint>,
}

impl LineModel {
    fn new(points: &[WeightedPoint<1>]) -> Self {
        let mut sorted: Vec<LinePoint> =
            points.iter().map(|p| LinePoint::new(p.point[0], p.weight)).collect();
        // The same stable sort `SortedLine::new` runs.
        sorted.sort_by(|a, b| a.x.partial_cmp(&b.x).expect("finite coordinates"));
        Self { sorted }
    }

    fn apply(&mut self, write: &Write) {
        for &(x, w) in &write.records {
            if write.insert {
                let at = self.sorted.partition_point(|p| p.x <= x);
                self.sorted.insert(at, LinePoint::new(x, w));
            } else {
                let at = self.sorted.partition_point(|p| p.x < x);
                if self.sorted.get(at).is_some_and(|p| p.x == x) {
                    self.sorted.remove(at);
                }
            }
        }
    }

    fn batched_value(&self, len: f64) -> f64 {
        BatchedMaxRS1D::from_sorted(SortedLine::from_sorted(&self.sorted)).solve_one(len).value
    }
}

/// Checks every answer of a run, in stream order.
pub struct Checker {
    refs: Vec<Option<f64>>,
    /// Adds 1 to the next reference compared: the oracle's own test.
    pub corrupt: bool,
    model: Option<(LineModel, f64)>,
    initial: Option<LineModel>,
    /// The version the last acknowledged write landed at.
    acked: Option<f64>,
    /// Per pool id, the last fully checked answer: whether it passed, its
    /// `cached` flag and its version (for answers repeated word for word).
    last: Vec<(bool, bool, f64)>,
    pub failures: Vec<String>,
}

impl Checker {
    pub fn new(spec: &Spec, refs: Vec<Option<f64>>) -> Self {
        let initial = (spec.kind == Kind::LineUpdate).then(|| {
            let Parsed::Line(points) = Parsed::of(1, &spec.datasets[0].csv) else {
                unreachable!("line-update uploads a line dataset")
            };
            LineModel::new(&points)
        });
        Checker {
            refs,
            corrupt: false,
            model: None,
            initial,
            acked: None,
            last: vec![(false, false, 0.0); spec.pool.len()],
            failures: Vec::new(),
        }
    }

    /// Forgets every write: the dataset was just (re)uploaded.
    pub fn reset(&mut self, spec: &Spec) {
        if let Some(initial) = &self.initial {
            let len = match spec.pool[0].shape {
                crate::workload::Shape::Interval(len) => len,
                _ => unreachable!("line-update reads interval queries first"),
            };
            self.model = Some((LineModel { sorted: initial.sorted.clone() }, len));
        }
        self.acked = None;
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            eprintln!("perfbench: FAILED {what}");
        }
        self.failures.push(what);
    }

    /// Checks one step's responses; returns how many of its operations
    /// failed.
    pub fn check_step(&mut self, step: &Step, responses: &[(u16, String)]) -> usize {
        match step {
            Step::Read(id) => usize::from(!self.check_read(*id, &responses[0])),
            Step::Burst(ids) => {
                ids.iter().zip(responses).filter(|(id, r)| !self.check_read(**id, r)).count()
            }
            Step::Write(write) => usize::from(!self.check_write(write, &responses[0])),
        }
    }

    fn check_write(&mut self, write: &Write, (status, body): &(u16, String)) -> bool {
        if let Some((model, _)) = &mut self.model {
            model.apply(write);
        }
        let version = Json::parse(body)
            .ok()
            .and_then(|j| j.get("mutated").and_then(|m| m.get("version")).and_then(Json::as_f64));
        if !(200..300).contains(status) || version.is_none() {
            self.fail(format!("{} answered {status}: {body}", write.path));
            return false;
        }
        self.acked = version;
        true
    }

    pub fn check_read(&mut self, id: usize, (status, body): &(u16, String)) -> bool {
        if body.is_empty() {
            // The same answer as the last one of this query, checked then.
            let (ok, cached, version) = self.last[id];
            if !ok {
                self.fail(format!("query {id}: repeated a failed answer"));
                return false;
            }
            if let Some(acked) = self.acked.filter(|&v| cached || version < v) {
                self.fail(format!("query {id}: stale repeated answer after write v{acked}"));
                return false;
            }
            return true;
        }
        let json = Json::parse(body).ok();
        let cached = json.as_ref().and_then(|j| j.get("cached")).and_then(Json::as_bool);
        let answer = json.as_ref().and_then(|j| j.get("answer"));
        let version = answer.and_then(|a| a.get("version")).and_then(Json::as_f64).unwrap_or(0.0);
        let ok = self.check_answer(id, *status, body, answer, cached == Some(true), version);
        self.last[id] = (ok, cached == Some(true), version);
        ok
    }

    fn check_answer(
        &mut self,
        id: usize,
        status: u16,
        body: &str,
        answer: Option<&Json>,
        cached: bool,
        version: f64,
    ) -> bool {
        if !(200..300).contains(&status) {
            self.fail(format!("query {id} answered {status}: {body}"));
            return false;
        }
        let Some(answer) = answer else {
            self.fail(format!("query {id}: no answer in {body}"));
            return false;
        };
        if answer.get("certified").and_then(Json::as_bool) != Some(true) {
            self.fail(format!("query {id}: uncertified answer {body}"));
            return false;
        }
        if let Some(acked) = self.acked.filter(|&v| cached || version < v) {
            self.fail(format!("query {id}: stale answer after write v{acked}: {body}"));
            return false;
        }
        if answer.get("guarantee").and_then(Json::as_str) != Some("exact") {
            return true;
        }
        let reference = match &self.model {
            Some((model, len)) if id == 0 => Some(model.batched_value(*len)),
            _ => self.refs.get(id).copied().flatten(),
        };
        let Some(mut reference) = reference else {
            self.fail(format!("query {id}: exact answer with no reference: {body}"));
            return false;
        };
        if std::mem::take(&mut self.corrupt) {
            reference += 1.0;
        }
        let served = answer.get("value").or_else(|| answer.get("distinct")).and_then(Json::as_f64);
        let rendered = Json::num(reference).render();
        if served.map(|v| Json::num(v).render()) != Some(rendered.clone()) {
            self.fail(format!("query {id}: value differs from reference {rendered}: {body}"));
            return false;
        }
        true
    }
}
