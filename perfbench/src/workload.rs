//! The four workloads: their datasets, their pools of distinct queries, and
//! the seeded streams of operations a run sends.
//!
//! Every input comes from `--seed` through the generators in
//! `mrs_bench::serve`; the server only ever sees the generated CSV and JSON.

use mrs_bench::serve::{
    line_csv, line_update_record, planar_csv, query_pool, zipf_pick, zipf_weights,
};
use mrs_core::engine::{BatchQuery, ProblemKind, RangeShape, Registry};
use mrs_server::Json;
use rand::prelude::*;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Cache-bypassed 1-D interval queries: solver sweep plus executor plan.
    LineSolve,
    /// Cache-bypassed planar and colored queries: kernels, grids, solvers.
    PlanarSolve,
    /// Pipelined bursts of cached queries: reactor, parser, cache, render.
    CachedPipelined,
    /// Writes beside reads on a mutable 1-D dataset.
    LineUpdate,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::LineSolve, Kind::PlanarSolve, Kind::CachedPipelined, Kind::LineUpdate];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LineSolve => "line-solve",
            Kind::PlanarSolve => "planar-solve",
            Kind::CachedPipelined => "cached-pipelined",
            Kind::LineUpdate => "line-update",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Dataset sizes.  The full sizes are small enough that every workload
/// issues at least 1000 reads in 10 s (so `read_p99_ms` has at least ten
/// samples beyond it); `--smoke` shrinks them for the benchmark's own
/// tests.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Points of the 1-D dataset of `line-solve`.
    pub line: usize,
    /// Points of the 1-D dataset of `cached-pipelined`: its answers come
    /// from the cache, so the size only matters to set-up and memory, and
    /// the sorted-line copies its warm-up solves leave in the allocator
    /// would otherwise swing the resident set by megabytes between runs.
    pub cached_line: usize,
    /// Weighted+colored points of the planar dataset.
    pub planar: usize,
    /// Sites of the second, colored-disk dataset of `planar-solve`.
    pub colored: usize,
    /// Points of the mutable 1-D dataset of `line-update`.
    pub update: usize,
}

impl Sizes {
    pub const FULL: Sizes =
        Sizes { line: 200_000, cached_line: 20_000, planar: 2_000, colored: 1_000, update: 20_000 };
    pub const SMOKE: Sizes =
        Sizes { line: 20_000, cached_line: 5_000, planar: 600, colored: 300, update: 3_000 };
}

/// Requests per pipelined write in `cached-pipelined`.
pub const BURST: usize = 32;
/// Records per mutation in `line-update`.
pub const WRITE_RECORDS: usize = 16;

/// A dataset the workload uploads.
pub struct DatasetSpec {
    pub name: &'static str,
    pub dim: usize,
    pub csv: String,
}

impl DatasetSpec {
    /// The upload target (`?dim=1` selects the line loader).
    pub fn upload_path(&self) -> String {
        if self.dim == 1 {
            format!("/datasets/{}?dim=1", self.name)
        } else {
            format!("/datasets/{}", self.name)
        }
    }
}

/// A query shape as the wire spells it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    Interval(f64),
    Ball(f64),
    Box(f64, f64),
}

impl Shape {
    /// The ball radius a grid query over this shape uses (`None` for boxes).
    pub fn radius(self) -> Option<f64> {
        match self {
            Shape::Interval(len) => Some(len / 2.0),
            Shape::Ball(r) => Some(r),
            Shape::Box(..) => None,
        }
    }

    /// A size to pick the largest shape of a class by.
    pub fn size(self) -> f64 {
        match self {
            Shape::Interval(len) => len,
            Shape::Ball(r) => r,
            Shape::Box(w, h) => w * h,
        }
    }

    /// The engine shape, exactly as the service builds it.
    pub fn line(self) -> RangeShape<1> {
        RangeShape::ball(self.radius().expect("line datasets take intervals and balls"))
    }

    /// The engine shape, exactly as the service builds it.
    pub fn planar(self) -> RangeShape<2> {
        match self {
            Shape::Box(w, h) => RangeShape::rect(w, h),
            other => RangeShape::ball(other.radius().expect("not a box")),
        }
    }
}

/// One distinct query of a workload's pool.
pub struct Query {
    /// Index into the workload's datasets.
    pub dataset: usize,
    pub solver: String,
    pub problem: ProblemKind,
    pub shape: Shape,
    /// The JSON request body.
    pub body: String,
}

impl Query {
    /// Parses a `/query` body the way the service does (the problem kind
    /// comes from the first registry descriptor of that name unless the
    /// body says otherwise).
    fn from_body(body: String, datasets: &[DatasetSpec], registry: &Registry) -> Query {
        let json = Json::parse(&body).expect("generated query bodies are JSON");
        let name = json.get("dataset").and_then(Json::as_str).expect("body names a dataset");
        let dataset =
            datasets.iter().position(|d| d.name == name).expect("body names a workload dataset");
        let solver = json.get("solver").and_then(Json::as_str).expect("body names a solver");
        let shape = json.get("shape").expect("body has a shape");
        let shape = if let Some(len) = shape.get("interval").and_then(Json::as_f64) {
            Shape::Interval(len)
        } else if let Some(r) = shape.get("ball").and_then(Json::as_f64) {
            Shape::Ball(r)
        } else {
            let extents = shape.get("box").and_then(Json::as_arr).expect("box shape");
            Shape::Box(
                extents[0].as_f64().expect("box width"),
                extents[1].as_f64().expect("box height"),
            )
        };
        let problem = match json.get("problem").and_then(Json::as_str) {
            Some("colored") => ProblemKind::Colored,
            Some(_) => ProblemKind::Weighted,
            None => {
                registry
                    .descriptors()
                    .iter()
                    .find(|d| d.name == solver)
                    .expect("body names a registered solver")
                    .problem
            }
        };
        Query { dataset, solver: solver.to_string(), problem, shape, body }
    }

    /// The engine query over a line dataset.
    pub fn line(&self) -> BatchQuery<1> {
        batch_query(&self.solver, self.problem, self.shape.line())
    }

    /// The engine query over a planar dataset.
    pub fn planar(&self) -> BatchQuery<2> {
        batch_query(&self.solver, self.problem, self.shape.planar())
    }
}

fn batch_query<const D: usize>(
    solver: &str,
    problem: ProblemKind,
    shape: RangeShape<D>,
) -> BatchQuery<D> {
    match problem {
        ProblemKind::Weighted => BatchQuery::weighted(solver, shape),
        ProblemKind::Colored => BatchQuery::colored(solver, shape),
    }
}

/// One mutation of `line-update`.
#[derive(Clone, Debug)]
pub struct Write {
    pub insert: bool,
    /// `(x, weight)` records; a delete removes the point at `x`.
    pub records: Vec<(f64, f64)>,
    pub path: String,
    pub body: String,
}

/// One closed-loop operation: the next one is sent only after it completes.
#[derive(Clone, Debug)]
pub enum Step {
    /// One query, by pool id.
    Read(usize),
    /// [`BURST`] queries written back to back, by pool id.
    Burst(Vec<usize>),
    /// One mutation.
    Write(Write),
}

impl Step {
    /// Operations (reads plus writes) this step completes.
    pub fn ops(&self) -> usize {
        match self {
            Step::Burst(ids) => ids.len(),
            _ => 1,
        }
    }
}

/// A workload instance: its datasets, its query pool and what set-up warms.
pub struct Spec {
    pub kind: Kind,
    pub seed: u64,
    pub datasets: Vec<DatasetSpec>,
    pub pool: Vec<Query>,
    /// Pool ids queried once during every set-up, after the uploads.
    pub warmup: Vec<usize>,
}

/// The generator seed of every dataset.  `--seed` varies the query shapes,
/// the operation order, the Zipf picks and the mutation records; the
/// datasets stay fixed so that the spread between runs measures the
/// system, not where the generator happened to drop its clusters (on
/// `planar-solve` that alone moved throughput by a quarter between seeds).
const DATA_SEED: u64 = 2025;

/// The `i`-th of `n` stratified draws from `[lo, hi)`: one uniform draw per
/// equal-width stratum, so the pool's mean cost barely moves with the seed.
fn stratified(rng: &mut StdRng, lo: f64, hi: f64, i: usize, n: usize) -> f64 {
    lo + (hi - lo) * (i as f64 + rng.gen_range(0.0..1.0)) / n as f64
}

fn round_to(value: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (value * scale).round() / scale
}

impl Spec {
    pub fn new(kind: Kind, seed: u64, sizes: Sizes, registry: &Registry) -> Spec {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7C_4A11);
        let (datasets, bodies, warmup): (Vec<DatasetSpec>, Vec<String>, Vec<usize>) = match kind {
            Kind::LineSolve => {
                let datasets = vec![DatasetSpec {
                    name: "line",
                    dim: 1,
                    csv: line_csv(sizes.line, DATA_SEED),
                }];
                // A seeded spread of lengths, each asked of both 1-D solvers:
                // even pool ids are `batched-interval-1d`, odd ones
                // `exact-interval-1d`.  One query per solver warms the
                // shared sorted line.
                let mut bodies = Vec::new();
                for i in 0..32 {
                    let len = round_to(stratified(&mut rng, 5.0, 60.0, i, 32), 2);
                    for solver in ["batched-interval-1d", "exact-interval-1d"] {
                        bodies.push(format!(
                            r#"{{"dataset":"line","solver":"{solver}","shape":{{"interval":{len}}},"cache":false}}"#
                        ));
                    }
                }
                (datasets, bodies, vec![0, 1])
            }
            Kind::PlanarSolve => {
                let datasets = vec![
                    DatasetSpec {
                        name: "planar",
                        dim: 2,
                        csv: planar_csv(sizes.planar, DATA_SEED),
                    },
                    DatasetSpec {
                        name: "colored",
                        dim: 2,
                        csv: planar_csv(sizes.colored, DATA_SEED ^ 0xC0_10_4E),
                    },
                ];
                let mut bodies = Vec::new();
                for family in PLANAR_FAMILIES {
                    let n = family.shapes;
                    for i in 0..n {
                        let shape = match family.shape {
                            FamilyShape::Ball(lo, hi) => {
                                let r = round_to(stratified(&mut rng, lo, hi, i, n), 3);
                                format!(r#"{{"ball":{r}}}"#)
                            }
                            FamilyShape::Box(lo, hi) => {
                                let w = round_to(stratified(&mut rng, lo, hi, i, n), 3);
                                let h = round_to(stratified(&mut rng, lo, hi, n - 1 - i, n), 3);
                                format!(r#"{{"box":[{w},{h}]}}"#)
                            }
                        };
                        let problem =
                            if family.colored_auto { r#","problem":"colored""# } else { "" };
                        bodies.push(format!(
                            r#"{{"dataset":"{}","solver":"{}"{problem},"shape":{shape},"cache":false}}"#,
                            family.dataset, family.solver
                        ));
                    }
                }
                let warmup = (0..bodies.len()).collect();
                (datasets, bodies, warmup)
            }
            Kind::CachedPipelined => {
                let datasets = vec![
                    DatasetSpec {
                        name: "loadgen1d",
                        dim: 1,
                        csv: line_csv(sizes.cached_line, DATA_SEED),
                    },
                    DatasetSpec {
                        name: "loadgen",
                        dim: 2,
                        csv: planar_csv(sizes.planar, DATA_SEED),
                    },
                ];
                let bodies = query_pool(64);
                // Every pool query once with the cache on: the pool fits the
                // 4096-entry cache, so the measured bursts are all hits.
                let warmup = (0..bodies.len()).collect();
                (datasets, bodies, warmup)
            }
            Kind::LineUpdate => {
                let datasets = vec![DatasetSpec {
                    name: "upd",
                    dim: 1,
                    csv: line_csv(sizes.update, DATA_SEED),
                }];
                let len = round_to(rng.gen_range(10.0..40.0), 2);
                let bodies = vec![
                    format!(
                        r#"{{"dataset":"upd","solver":"batched-interval-1d","shape":{{"interval":{len}}}}}"#
                    ),
                    // One radius: the resident tracker is built once, in set-up.
                    r#"{"dataset":"upd","solver":"dynamic-ball","shape":{"ball":12.5}}"#
                        .to_string(),
                ];
                (datasets, bodies, vec![0, 1])
            }
        };
        let pool = bodies.into_iter().map(|b| Query::from_body(b, &datasets, registry)).collect();
        Spec { kind, seed, datasets, pool, warmup }
    }

    /// The seeded operation stream; two streams of one spec are identical.
    pub fn stream(&self) -> Stream {
        Stream {
            kind: self.kind,
            seed: self.seed,
            rng: StdRng::seed_from_u64(self.seed ^ 0x57_2E_A3),
            step: 0,
            zipf: zipf_weights(self.pool.len()),
            pool: self.pool.len(),
            next_record: 0,
            live_inserts: Vec::new(),
        }
    }
}

enum FamilyShape {
    /// Radii drawn from `[lo, hi)` (one fixed radius when `lo == hi`).
    Ball(f64, f64),
    /// Box sides drawn from `[lo, hi)`.
    Box(f64, f64),
}

struct Family {
    dataset: &'static str,
    solver: &'static str,
    colored_auto: bool,
    shapes: usize,
    shape: FamilyShape,
}

/// The `planar-solve` mix, one family per solver.  Radii and boxes stay
/// small so the exact sweeps run in milliseconds; the approximate solvers
/// get one radius each because their first hit per radius builds a
/// sample-set family (most of this workload's set-up).  `auto` is sent box
/// shapes only: on balls it routes to solvers tens to hundreds of times
/// slower than the exact sweeps (the traced pass measures that as
/// `auto.regret`).
const PLANAR_FAMILIES: [Family; 9] = [
    Family {
        dataset: "planar",
        solver: "exact-disk-2d",
        colored_auto: false,
        shapes: 4,
        shape: FamilyShape::Ball(0.15, 0.3),
    },
    Family {
        dataset: "planar",
        solver: "exact-rect-2d",
        colored_auto: false,
        shapes: 4,
        shape: FamilyShape::Box(0.4, 1.0),
    },
    Family {
        dataset: "planar",
        solver: "exact-colored-rect-2d",
        colored_auto: false,
        shapes: 4,
        shape: FamilyShape::Box(0.3, 0.6),
    },
    Family {
        dataset: "planar",
        solver: "approx-static-ball",
        colored_auto: false,
        shapes: 1,
        shape: FamilyShape::Ball(1.0, 1.0),
    },
    Family {
        dataset: "planar",
        solver: "approx-colored-ball",
        colored_auto: false,
        shapes: 1,
        shape: FamilyShape::Ball(1.0, 1.0),
    },
    Family {
        dataset: "planar",
        solver: "auto",
        colored_auto: false,
        shapes: 4,
        shape: FamilyShape::Box(0.4, 1.0),
    },
    Family {
        dataset: "planar",
        solver: "auto",
        colored_auto: true,
        shapes: 4,
        shape: FamilyShape::Box(0.3, 0.6),
    },
    Family {
        dataset: "colored",
        solver: "exact-colored-disk-union",
        colored_auto: false,
        shapes: 4,
        shape: FamilyShape::Ball(0.15, 0.3),
    },
    Family {
        dataset: "colored",
        solver: "output-sensitive-colored-disk",
        colored_auto: false,
        shapes: 4,
        shape: FamilyShape::Ball(0.15, 0.3),
    },
];

/// The seeded operation stream of one run.
pub struct Stream {
    kind: Kind,
    seed: u64,
    rng: StdRng,
    step: u64,
    zipf: Vec<f64>,
    pool: usize,
    next_record: u64,
    /// Records inserted and not yet deleted, oldest first.
    live_inserts: Vec<(f64, f64)>,
}

impl Stream {
    pub fn next_step(&mut self) -> Step {
        let step = self.step;
        self.step += 1;
        match self.kind {
            Kind::LineSolve => {
                // Alternate the two solvers; the length is a seeded draw.
                let len = self.rng.gen_range(0..self.pool / 2);
                Step::Read(2 * len + (step % 2) as usize)
            }
            Kind::PlanarSolve => {
                // Round-robin over the solver families keeps the mix fixed
                // across seeds; the shape within a family is a seeded draw.
                let family = (step % PLANAR_FAMILIES.len() as u64) as usize;
                let first: usize = PLANAR_FAMILIES[..family].iter().map(|f| f.shapes).sum();
                Step::Read(first + self.rng.gen_range(0..PLANAR_FAMILIES[family].shapes))
            }
            Kind::CachedPipelined => {
                let total: f64 = self.zipf.iter().sum();
                Step::Burst(
                    (0..BURST).map(|_| zipf_pick(&self.zipf, total, &mut self.rng)).collect(),
                )
            }
            Kind::LineUpdate => match step % 3 {
                0 => Step::Write(self.next_write(step / 3)),
                1 => Step::Read(0),
                _ => Step::Read(1),
            },
        }
    }

    /// Round `round`'s mutation: inserts on even rounds, deletes of the
    /// oldest still-live inserted records on odd ones.
    fn next_write(&mut self, round: u64) -> Write {
        if round.is_multiple_of(2) || self.live_inserts.len() < WRITE_RECORDS {
            let records: Vec<(f64, f64)> = (0..WRITE_RECORDS)
                .map(|_| {
                    self.next_record += 1;
                    line_update_record(self.seed, self.next_record)
                })
                .collect();
            self.live_inserts.extend_from_slice(&records);
            let body = records.iter().map(|(x, w)| format!("{x},{w}\n")).collect();
            Write { insert: true, records, path: "/datasets/upd/insert".into(), body }
        } else {
            let records: Vec<(f64, f64)> = self.live_inserts.drain(..WRITE_RECORDS).collect();
            let body = records.iter().map(|(x, _)| format!("{x}\n")).collect();
            Write { insert: false, records, path: "/datasets/upd/delete".into(), body }
        }
    }
}
