//! The traced pass (`--trace 1`): the same seeded operations, replayed layer
//! by layer.
//!
//! Every operation gets one id and these spans, all recorded by this file
//! around calls into the program's public functions:
//!
//! * `client` — the wire call to the real server (the root);
//! * `http.parse` — `http::Parser::advance` on the request's exact bytes;
//! * `service.handle` — `Service::handle` on an in-process twin service
//!   loaded and warmed exactly like the server, with the twin's
//!   `QueryTrace` phases (`phase.*`) and `json.parse` as children;
//! * `solver.<name>` — the registry solver called directly on the twin's
//!   resident index (child of `phase.solve`), with `solver.sweep`
//!   (`SortedLine::max_interval`) under 1-D reads and `kernels.filter`
//!   (`HashGrid::for_each_within` at the answer's center) under planar
//!   ball reads.
//!
//! Self time is a span's duration minus its children's.  Spans stay in
//! memory and are written to `.bench_out/spans-<workload>-<seed>.json` at
//! the end.  Layer probes that are not per-operation (wire floor, `auto`,
//! writes and compaction on a private copy, kernel throughput) run after
//! the operations.  End-to-end metrics never come from this pass.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrs_core::engine::{
    BatchExecutor, BatchQuery, ColoredInstance, ExecutorConfig, GuaranteeClass, Phase, ProblemKind,
    RangeShape, Registry, TraceRecorder, VersionedDataset, WeightedInstance,
};
use mrs_core::input;
use mrs_geom::Point;
use mrs_server::catalog::DatasetCore;
use mrs_server::http::{ParseStep, Parser, Request};
use mrs_server::{
    CacheKey, Catalog, Client, Dataset, Json, PipelineRequest, ServerConfig, Service,
};

use crate::drive::{drive, median, send, set_up, Sample};
use crate::oracle::{static_references, Checker, Parsed};
use crate::server::{dataset_sum, field, stats, Server};
use crate::workload::{Kind, Spec, Step, Write, BURST, WRITE_RECORDS};
use crate::{registry, Args, Metric, Outcome};

/// The reconciliation tolerance: the median client time of an operation
/// must lie within this factor, either way, of the median of its modelled
/// time — `http.parse` + `service.handle` summed over its requests, plus
/// the wire floor of that many requests (`/healthz` round trips sent right
/// after each operation, one or a pipelined burst of [`BURST`], less the
/// handle time of the `/healthz` requests the floor itself carries).
pub const RECONCILE_TOLERANCE: f64 = 2.0;

/// Shares of `--seconds` spent on traced operations, and on the untraced
/// operations after them that give `trace.overhead_share` and the `/stats`
/// deltas.
const TRACED_SHARE: f64 = 0.5;
const UNTRACED_SHARE: f64 = 0.3;

/// Caps that keep a traced run's time and span file bounded on fast
/// workloads (a pipelined burst alone makes about a hundred spans): traced
/// operations, and reads whose lower layers are replayed (an even sample
/// of the reads when there are more).
const MAX_TRACED_STEPS: usize = 1000;
const MAX_REPLAYS: usize = 300;

/// Where span files go, relative to the working directory.
const SPANS_DIR: &str = ".bench_out";

struct Span {
    op: usize,
    parent: Option<usize>,
    name: String,
    start_us: f64,
    dur_us: f64,
}

#[derive(Default)]
struct Samples {
    client_us: Vec<f64>,
    /// Per operation: `http.parse` + `service.handle` summed over its
    /// requests (the wire floor is added once it is measured), and how
    /// many requests it carried.
    model_us: Vec<(f64, usize)>,
    /// `/healthz` round trips sent right after each operation, with as
    /// many requests as it carried, so the modelled wire floor shares the
    /// machine's state with the client time it is compared to.
    floor_us: Vec<f64>,
    parse_ns: Vec<f64>,
    handle_us: Vec<f64>,
    json_us: Vec<f64>,
    cache_lookup_us: Vec<f64>,
    solver_ms: Vec<f64>,
    solver_ns_per_point: Vec<f64>,
    candidates: Vec<f64>,
    per_solver_ms: BTreeMap<String, Vec<f64>>,
    plan_us: Vec<f64>,
    solve_us: Vec<f64>,
    certify_us: Vec<f64>,
    server_solve_us: Vec<f64>,
    instance_us: Vec<f64>,
    apply_us: Vec<f64>,
    merge_us: Vec<f64>,
    /// `(dataset, problem, radius, center)` of every ball-shaped read.
    kernel_queries: Vec<(usize, ProblemKind, f64, Vec<f64>)>,
    twin_writes: usize,
    /// Reads the twin answered from its cache.
    twin_hits: usize,
    reads: usize,
}

struct Tracer<'a> {
    spec: &'a Spec,
    registry: Registry,
    twin: Service,
    /// A private copy of the workload's first dataset: the catalog's
    /// `insert_csv` / `delete_csv` are timed on it without touching the
    /// twin.
    private: Arc<Dataset>,
    origin: Instant,
    spans: Vec<Span>,
    s: Samples,
    /// Reads whose lower layers are still to replay:
    /// `(op, parent span, pool id, answer center)`.
    deferred: Vec<(usize, usize, usize, Option<Vec<f64>>)>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    format!("POST {path} HTTP/1.1\r\nHost: mrs\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        .into_bytes()
}

fn to_point<const D: usize>(coords: &[f64]) -> Point<D> {
    let mut p = Point::<D>::origin();
    for (i, c) in coords.iter().take(D).enumerate() {
        p[i] = *c;
    }
    p
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

impl Tracer<'_> {
    fn span(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &str,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.spans.push(Span {
            op,
            parent,
            name: name.to_string(),
            start_us: us(start.saturating_duration_since(self.origin)),
            dur_us: us(dur),
        });
        self.spans.len() - 1
    }

    /// POSTs to the twin through the same parse the reactor runs.
    fn twin_post(&self, path: &str, body: &str) -> Result<mrs_server::http::Response, String> {
        let mut buf = request_bytes(path, body);
        let request = match Parser::new().advance(&mut buf) {
            ParseStep::Complete(frame) => frame.to_request(&buf),
            other => return Err(format!("the parser rejected a generated request: {other:?}")),
        };
        let response = self.twin.handle(&request);
        if !response.is_success() {
            return Err(format!(
                "the twin answered {} to {path}: {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            ));
        }
        Ok(response)
    }

    /// Replays one step: the wire call, then every layer in-process.
    fn step(&mut self, client: &mut Client, op: usize, step: &Step) -> Result<Sample, String> {
        let started = Instant::now();
        let responses = send(client, self.spec, step)?;
        let latency = started.elapsed();
        let root = self.span(op, None, "client", started, latency);
        let healthz = vec![PipelineRequest::get("/healthz"); step.ops()];
        let t = Instant::now();
        let floor = client.pipeline(&healthz).map_err(|e| format!("/healthz: {e}"))?;
        self.s.floor_us.push(us(t.elapsed()));
        if floor.iter().any(|(status, _, _)| *status != 200) {
            return Err("/healthz was refused".into());
        }
        let requests: Vec<(&str, &str, Option<usize>)> = match step {
            Step::Read(id) => vec![("/query", &self.spec.pool[*id].body, Some(*id))],
            Step::Burst(ids) => ids
                .iter()
                .map(|&id| ("/query", self.spec.pool[id].body.as_str(), Some(id)))
                .collect(),
            Step::Write(write) => vec![(write.path.as_str(), write.body.as_str(), None)],
        };
        let mut model = 0.0;
        let mut crosscheck = None;
        let count = requests.len();
        for (j, (path, body, id)) in requests.into_iter().enumerate() {
            let (parse, handle, rid) =
                self.request(op, root, path, body, id, &responses[j], j == 0)?;
            model += parse + handle;
            crosscheck = crosscheck.or(rid);
        }
        if let Step::Write(write) = step {
            self.write_private(write)?;
            self.s.twin_writes += 1;
        }
        self.s.client_us.push(us(latency));
        self.s.model_us.push((model, count));
        if let Some(rid) = crosscheck {
            // The server's own phase record of a cache miss.
            let (_, body) = client
                .get(&format!("/debug/traces?id={rid}"))
                .map_err(|e| format!("/debug/traces: {e}"))?;
            let traces = Json::parse(&body).map_err(|e| format!("/debug/traces: {e}"))?;
            if let Some(trace) = traces.get("traces").and_then(Json::as_arr).and_then(|t| t.first())
            {
                self.s.server_solve_us.push(field(trace, &["phases_us", "solve"]));
            }
        }
        Ok(Sample {
            step: step.clone(),
            at: started.saturating_duration_since(self.origin),
            latency,
            responses,
        })
    }

    /// One request of a step: returns its `http.parse` and
    /// `service.handle` times in µs, and the server's request id when the
    /// server computed (not cached) the answer.  Only the `first` request
    /// of a step replays the solver and executor calls: replaying all 32
    /// of a pipelined burst would time 32 solves of cache hits.
    #[allow(clippy::too_many_arguments)]
    fn request(
        &mut self,
        op: usize,
        root: usize,
        path: &str,
        body: &str,
        id: Option<usize>,
        served: &(u16, String),
        first: bool,
    ) -> Result<(f64, f64, Option<String>), String> {
        let mut buf = request_bytes(path, body);
        let t = Instant::now();
        let request = match Parser::new().advance(&mut buf) {
            ParseStep::Complete(frame) => frame.to_request(&buf),
            other => return Err(format!("the parser rejected a generated request: {other:?}")),
        };
        let parse = t.elapsed();
        self.span(op, Some(root), "http.parse", t, parse);
        self.s.parse_ns.push(parse.as_secs_f64() * 1e9);

        let t = Instant::now();
        let response = self.twin.handle(&request);
        let handle = t.elapsed();
        let handle_span = self.span(op, Some(root), "service.handle", t, handle);
        self.s.handle_us.push(us(handle));
        if !response.is_success() {
            return Err(format!(
                "the twin answered {}: {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            ));
        }

        if id.is_some() {
            self.s.reads += 1;
            if response.body.starts_with(br#"{"cached":true"#) {
                self.s.twin_hits += 1;
            }
            let tj = Instant::now();
            let parsed = Json::parse(body).map_err(|e| format!("request body: {e}"))?;
            let json = tj.elapsed();
            std::hint::black_box(&parsed);
            self.span(op, Some(handle_span), "json.parse", tj, json);
            self.s.json_us.push(us(json));
        }

        // The twin's phase record of this request, laid out back to back
        // from the handle's start.
        let rid = response
            .headers
            .iter()
            .find(|(name, _)| *name == "X-Request-Id")
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        let mut solve_span = handle_span;
        for trace in self.twin.traces().for_request(&rid) {
            let mut at = t;
            for phase in Phase::ALL {
                let d = trace.phase(phase);
                let span =
                    self.span(op, Some(handle_span), &format!("phase.{}", phase.name()), at, d);
                at += d;
                if phase == Phase::Solve {
                    solve_span = span;
                }
            }
        }
        let mut server_rid = None;
        if let (Some(id), true) = (id, first) {
            let answer = Json::parse(&served.1).ok();
            if answer.as_ref().and_then(|j| j.get("cached")).and_then(Json::as_bool) == Some(false)
            {
                server_rid = answer
                    .as_ref()
                    .and_then(|j| j.get("trace"))
                    .and_then(Json::as_str)
                    .map(str::to_string);
            }
            let center: Option<Vec<f64>> = answer
                .as_ref()
                .and_then(|j| j.get("answer"))
                .and_then(|a| a.get("center"))
                .and_then(Json::as_arr)
                .map(|c| c.iter().filter_map(Json::as_f64).collect());
            self.deferred.push((op, solve_span, id, center));
            if self.spec.kind == Kind::LineUpdate {
                // The next write changes the dataset: replay at this version.
                self.replay_deferred()?;
            }
        }
        Ok((parse.as_secs_f64() * 1e6, us(handle), server_rid))
    }

    /// Replays the layers below the service for the reads recorded so far.
    /// On datasets that do not change this runs after the traced
    /// operations, so the heavy in-process solves do not sit between two
    /// client calls and slow the next one.
    fn replay_deferred(&mut self) -> Result<(), String> {
        let deferred = std::mem::take(&mut self.deferred);
        let every = deferred.len().div_ceil(MAX_REPLAYS).max(1);
        for (op, parent, id, center) in deferred.into_iter().step_by(every) {
            let query = &self.spec.pool[id];
            let name = self.spec.datasets[query.dataset].name;
            let dataset = self.twin.catalog().get(name).ok_or("the twin lost a dataset")?;
            match dataset.as_ref() {
                Dataset::Line(core) => {
                    self.read_layers(op, parent, id, core, query.line(), query.shape.line(), center)
                }
                Dataset::Planar(core) => self.read_layers(
                    op,
                    parent,
                    id,
                    core,
                    query.planar(),
                    query.shape.planar(),
                    center,
                ),
            }
        }
        Ok(())
    }

    /// The read's layers below the service: cache probe, instance check,
    /// the solver itself (plus its sweep or kernel filter), and the
    /// executor's phases.
    #[allow(clippy::too_many_arguments)]
    fn read_layers<const D: usize>(
        &mut self,
        op: usize,
        parent: usize,
        id: usize,
        core: &DatasetCore<D>,
        query: BatchQuery<D>,
        shape: RangeShape<D>,
        center: Option<Vec<f64>>,
    ) {
        let spec_query = &self.spec.pool[id];
        let view = core.versioned().view();
        let key = CacheKey::for_query(core.epoch(), view.version(), &query);
        let t = Instant::now();
        std::hint::black_box(self.twin.cache().get(&key));
        self.s.cache_lookup_us.push(us(t.elapsed()));

        let index = view.index();
        let descriptor = self
            .registry
            .descriptors()
            .into_iter()
            .find(|d| d.name == spec_query.solver && d.problem == spec_query.problem)
            .expect("pool queries name registered solvers");
        let (elapsed, candidates, points) = if descriptor.dynamic {
            // The server answers `dynamic-ball` from the dataset's resident
            // tracker, not from a fresh solve.
            let radius = shape.ball_radius().expect("dynamic reads are balls");
            let config = self.registry.config().sampling;
            let t = Instant::now();
            std::hint::black_box(core.versioned().dynamic_ball_best(radius, &config));
            (t.elapsed(), None, view.point_count())
        } else {
            match spec_query.problem {
                ProblemKind::Weighted => {
                    let t = Instant::now();
                    let base = WeightedInstance::from_shared(index.shared_points(), shape);
                    self.s.instance_us.push(us(t.elapsed()));
                    let solver =
                        self.registry.weighted::<D>(&spec_query.solver).expect("registered");
                    let t = Instant::now();
                    let report = solver.solve_all(&base, &[shape], &index, 2).pop();
                    let elapsed = t.elapsed();
                    let candidates =
                        report.and_then(|r| r.ok()).and_then(|r| r.stats.candidates_examined);
                    (elapsed, candidates, index.points().len())
                }
                ProblemKind::Colored => {
                    let t = Instant::now();
                    let base = ColoredInstance::from_shared(index.shared_sites(), shape);
                    self.s.instance_us.push(us(t.elapsed()));
                    let solver =
                        self.registry.colored::<D>(&spec_query.solver).expect("registered");
                    let t = Instant::now();
                    let report = solver.solve_all(&base, &[shape], &index, 2).pop();
                    let elapsed = t.elapsed();
                    let candidates =
                        report.and_then(|r| r.ok()).and_then(|r| r.stats.candidates_examined);
                    (elapsed, candidates, index.sites().len())
                }
            }
        };
        let solver_name = format!("solver.{}", spec_query.solver);
        let solver_span =
            self.span(op, Some(parent), &solver_name, Instant::now() - elapsed, elapsed);
        self.s.solver_ms.push(elapsed.as_secs_f64() * 1e3);
        self.s.solver_ns_per_point.push(elapsed.as_secs_f64() * 1e9 / points.max(1) as f64);
        self.s.candidates.push(candidates.unwrap_or(0) as f64);
        self.s
            .per_solver_ms
            .entry(spec_query.solver.clone())
            .or_default()
            .push(elapsed.as_secs_f64() * 1e3);

        let radius = shape.ball_radius();
        if D == 1 {
            if let Some(r) = radius {
                let line = index.sorted_line();
                let t = Instant::now();
                std::hint::black_box(line.max_interval(2.0 * r));
                let d = t.elapsed();
                self.span(op, Some(solver_span), "solver.sweep", t, d);
                self.s
                    .per_solver_ms
                    .entry("sweep (SortedLine::max_interval)".into())
                    .or_default()
                    .push(d.as_secs_f64() * 1e3);
            }
        }
        if let (Some(r), Some(center)) = (radius, center) {
            if D == 2 {
                let grid = match spec_query.problem {
                    ProblemKind::Weighted => index.point_grid(r),
                    ProblemKind::Colored => index.site_grid(r),
                };
                let t = Instant::now();
                std::hint::black_box(grid.for_each_within(&to_point::<D>(&center), r, |_| {}));
                self.span(op, Some(solver_span), "kernels.filter", t, t.elapsed());
            }
            self.s.kernel_queries.push((spec_query.dataset, spec_query.problem, r, center));
        }

        if descriptor.dynamic {
            // Tracker answers bypass the executor's plan and certify phases.
            return;
        }
        let executor = BatchExecutor::with_config(
            &self.registry,
            ExecutorConfig { threads: None, certify: true, deadline: None, degraded: false },
        );
        let mut recorder = TraceRecorder::new();
        std::hint::black_box(executor.execute_versioned_traced(
            core.versioned(),
            &[query],
            &mut recorder,
        ));
        for trace in recorder.take() {
            self.s.plan_us.push(us(trace.phase(Phase::Plan)));
            self.s.solve_us.push(us(trace.phase(Phase::Solve)));
            self.s.certify_us.push(us(trace.phase(Phase::Certify)));
        }
    }

    /// Applies a write to the private copy, timing the catalog call, then
    /// times deriving the new version's index — the merge the next read
    /// pays (the sorted line too, on 1-D data).  The service's
    /// `index_build` phase does not see this merge: it runs in
    /// `VersionedView::index`, before the executor snapshots its build
    /// counters.
    fn write_private(&mut self, write: &Write) -> Result<(), String> {
        let t = Instant::now();
        let applied = if write.insert {
            self.private.insert_csv(&write.body)
        } else {
            self.private.delete_csv(&write.body)
        };
        self.s.apply_us.push(us(t.elapsed()));
        applied.map_err(|e| format!("private write: {e}"))?;
        let t = Instant::now();
        match self.private.as_ref() {
            Dataset::Line(core) => {
                std::hint::black_box(core.versioned().view().index().sorted_line().len());
            }
            Dataset::Planar(core) => {
                std::hint::black_box(core.versioned().view().index());
            }
        }
        self.s.merge_us.push(us(t.elapsed()));
        Ok(())
    }
}

/// Probe writes for workloads that do not write: 16 records into the
/// first dataset, then the same records deleted.
fn probe_writes(spec: &Spec, rounds: usize) -> Vec<Write> {
    let dataset = &spec.datasets[0];
    let mut writes = Vec::new();
    for round in 0..rounds {
        let records: Vec<(f64, f64)> = (0..WRITE_RECORDS)
            .map(|k| {
                mrs_bench::serve::line_update_record(spec.seed ^ 0x9_0BE, (round * 64 + k) as u64)
            })
            .collect();
        let row = |&(x, w): &(f64, f64)| {
            if dataset.dim == 1 {
                (format!("{x},{w}\n"), format!("{x}\n"))
            } else {
                // A planar record inside the dataset's extent.
                let y = w * 30.0;
                (format!("{},{y},{w},7\n", x / 10.0), format!("{},{y}\n", x / 10.0))
            }
        };
        let (inserts, deletes): (String, String) = records.iter().map(row).unzip();
        let base = format!("/datasets/{}", dataset.name);
        writes.push(Write {
            insert: true,
            records: records.clone(),
            path: format!("{base}/insert"),
            body: inserts,
        });
        writes.push(Write {
            insert: false,
            records,
            path: format!("{base}/delete"),
            body: deletes,
        });
    }
    writes
}

/// Forced compactions of a private copy of the first dataset (a compaction
/// threshold near 0, so every write compacts): the median time of one, in
/// ms.
fn compaction_probe(spec: &Spec, writes: &[Write]) -> f64 {
    fn run<const D: usize>(
        dataset: VersionedDataset<D>,
        inserts: Vec<Vec<mrs_core::engine::Mutation<D>>>,
    ) -> f64 {
        let dataset = dataset.with_compaction_alpha(1e-9);
        let mut times = Vec::new();
        for mutations in inserts {
            let before = dataset.compaction_time();
            dataset.apply(&mutations);
            times.push((dataset.compaction_time() - before).as_secs_f64() * 1e3);
        }
        median(&times)
    }
    let inserts = writes.iter().filter(|w| w.insert).take(3);
    match Parsed::of(spec.datasets[0].dim, &spec.datasets[0].csv) {
        Parsed::Line(points) => run(
            VersionedDataset::new(points, Vec::new()),
            inserts
                .map(|w| input::parse_line_inserts_csv(&w.body).expect("probe rows parse"))
                .collect(),
        ),
        Parsed::Planar(points, sites) => run(
            VersionedDataset::new(points, sites),
            inserts
                .map(|w| input::parse_planar_inserts_csv(&w.body).expect("probe rows parse"))
                .collect(),
        ),
    }
}

/// `HashGrid::for_each_within` over every ball-shaped read's center and
/// radius, on the twin's resident grids (at most eight radii per dataset),
/// repeated for at least 0.2 s.  Returns candidates/s, the sieve's reject
/// ratio and candidates per hit.
fn kernel_probe(tracer: &Tracer<'_>) -> (f64, f64, f64) {
    fn probe<const D: usize>(
        core: &DatasetCore<D>,
        queries: &[(ProblemKind, f64, Vec<f64>)],
    ) -> (usize, usize, usize, Duration) {
        let index = core.versioned().view().index();
        let mut radii: Vec<f64> = Vec::new();
        let mut work = Vec::new();
        for (problem, r, center) in queries {
            if !radii.contains(r) {
                if radii.len() == 8 {
                    continue;
                }
                radii.push(*r);
            }
            let grid = match problem {
                ProblemKind::Weighted => index.point_grid(*r),
                ProblemKind::Colored => index.site_grid(*r),
            };
            work.push((grid, *r, to_point::<D>(center)));
        }
        let (mut candidates, mut rejected, mut hits) = (0, 0, 0);
        let start = Instant::now();
        while !work.is_empty() && start.elapsed() < Duration::from_millis(200) {
            for (grid, r, center) in &work {
                let stats = grid.for_each_within(center, *r, |_| hits += 1);
                candidates += stats.candidates;
                rejected += stats.sieve_rejected;
            }
        }
        (candidates, rejected, hits, start.elapsed())
    }
    let (mut candidates, mut rejected, mut hits, mut time) = (0, 0, 0, Duration::ZERO);
    for (d, dataset) in tracer.spec.datasets.iter().enumerate() {
        let queries: Vec<(ProblemKind, f64, Vec<f64>)> = tracer
            .s
            .kernel_queries
            .iter()
            .filter(|q| q.0 == d)
            .map(|q| (q.1, q.2, q.3.clone()))
            .collect();
        let Some(twin) = tracer.twin.catalog().get(dataset.name) else { continue };
        let (c, r, h, t) = match twin.as_ref() {
            Dataset::Line(core) => probe(core, &queries),
            Dataset::Planar(core) => probe(core, &queries),
        };
        candidates += c;
        rejected += r;
        hits += h;
        time += t;
    }
    let candidates = candidates as f64;
    (
        candidates / time.as_secs_f64().max(1e-9),
        rejected as f64 / candidates.max(1.0),
        candidates / (hits as f64).max(1.0),
    )
}

/// One `auto` probe: the router against every capable exact solver on the
/// largest shape of each (dataset, problem, shape class) the workload
/// sends, all on the twin's resident index.
struct AutoProbe {
    label: String,
    auto_us: f64,
    route_us: f64,
    choice: String,
    fastest_us: f64,
    fastest: String,
}

fn auto_probe(tracer: &Tracer<'_>) -> Vec<AutoProbe> {
    fn time_solver<const D: usize>(
        registry: &Registry,
        core: &DatasetCore<D>,
        name: &str,
        problem: ProblemKind,
        shape: RangeShape<D>,
    ) -> Option<(f64, f64, String)> {
        let index = core.versioned().view().index();
        let t = Instant::now();
        let (inner, choice) = match problem {
            ProblemKind::Weighted => {
                let solver = registry.weighted::<D>(name)?;
                let base = WeightedInstance::from_shared(index.shared_points(), shape);
                let report = solver.solve_all(&base, &[shape], &index, 2).pop()?.ok()?;
                (report.stats.elapsed, report.stats.auto_choice)
            }
            ProblemKind::Colored => {
                let solver = registry.colored::<D>(name)?;
                let base = ColoredInstance::from_shared(index.shared_sites(), shape);
                let report = solver.solve_all(&base, &[shape], &index, 2).pop()?.ok()?;
                (report.stats.elapsed, report.stats.auto_choice)
            }
        };
        let total = us(t.elapsed());
        Some((total, total - us(inner), choice.unwrap_or(name).to_string()))
    }
    fn probe<const D: usize>(
        registry: &Registry,
        core: &DatasetCore<D>,
        label: String,
        problem: ProblemKind,
        shape: RangeShape<D>,
    ) -> Option<AutoProbe> {
        let (auto_us, route_us, choice) = time_solver(registry, core, "auto", problem, shape)?;
        let mut fastest = (f64::INFINITY, String::new());
        for d in registry.descriptors() {
            // Exact solvers only: an approximate solver's first call per
            // radius builds a sample-set family and `dynamic-ball`'s builds
            // its tracker, costs the service pays once, in set-up.
            if d.name == "auto"
                || d.guarantee != GuaranteeClass::Exact
                || !d.supports(problem, shape.class(), D)
            {
                continue;
            }
            if let Some((t, _, _)) = time_solver(registry, core, d.name, problem, shape) {
                if t < fastest.0 {
                    fastest = (t, d.name.to_string());
                }
            }
        }
        fastest.0.is_finite().then_some(AutoProbe {
            label,
            auto_us,
            route_us,
            choice,
            fastest_us: fastest.0,
            fastest: fastest.1,
        })
    }
    let mut largest: BTreeMap<(usize, bool, bool), usize> = BTreeMap::new();
    for (id, q) in tracer.spec.pool.iter().enumerate() {
        let key = (q.dataset, q.problem == ProblemKind::Colored, q.shape.radius().is_none());
        let best = largest.entry(key).or_insert(id);
        if q.shape.size() > tracer.spec.pool[*best].shape.size() {
            *best = id;
        }
    }
    let mut probes = Vec::new();
    for ((d, _, _), id) in largest {
        let q = &tracer.spec.pool[id];
        let name = tracer.spec.datasets[d].name;
        let label = format!(
            "{name}:{}:{:?}",
            if q.problem == ProblemKind::Colored { "colored" } else { "weighted" },
            q.shape
        );
        let Some(dataset) = tracer.twin.catalog().get(name) else { continue };
        let probe = match dataset.as_ref() {
            Dataset::Line(core) => probe(&tracer.registry, core, label, q.problem, q.shape.line()),
            Dataset::Planar(core) => {
                probe(&tracer.registry, core, label, q.problem, q.shape.planar())
            }
        };
        probes.extend(probe);
    }
    probes
}

/// Writes the spans (with self times) and the per-solver and `auto`
/// breakdowns.
fn write_spans(args: &Args, tracer: &Tracer<'_>, probes: &[AutoProbe]) -> Result<String, String> {
    let mut child_time = vec![0.0; tracer.spans.len()];
    for span in &tracer.spans {
        if let Some(parent) = span.parent {
            child_time[parent] += span.dur_us;
        }
    }
    let spans: Vec<Json> = tracer
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::Obj(vec![
                ("id".into(), Json::num(i as f64)),
                ("op".into(), Json::num(s.op as f64)),
                ("parent".into(), s.parent.map_or(Json::Null, |p| Json::num(p as f64))),
                ("name".into(), Json::str(s.name.clone())),
                ("start_us".into(), Json::num(s.start_us)),
                ("dur_us".into(), Json::num(s.dur_us)),
                ("self_us".into(), Json::num((s.dur_us - child_time[i]).max(0.0))),
            ])
        })
        .collect();
    let solvers: Vec<(String, Json)> = tracer
        .s
        .per_solver_ms
        .iter()
        .map(|(name, ms)| {
            (
                name.clone(),
                Json::Obj(vec![
                    ("calls".into(), Json::num(ms.len() as f64)),
                    ("p50_ms".into(), Json::num(median(ms))),
                ]),
            )
        })
        .collect();
    let autos: Vec<Json> = probes
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("shape".into(), Json::str(p.label.clone())),
                ("choice".into(), Json::str(p.choice.clone())),
                ("auto_us".into(), Json::num(p.auto_us)),
                ("route_us".into(), Json::num(p.route_us)),
                ("fastest".into(), Json::str(p.fastest.clone())),
                ("fastest_us".into(), Json::num(p.fastest_us)),
                ("regret".into(), Json::num(p.auto_us / p.fastest_us)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("workload".into(), Json::str(args.kind.name())),
        ("seed".into(), Json::num(args.seed as f64)),
        ("solvers".into(), Json::Obj(solvers)),
        ("auto".into(), Json::Arr(autos)),
        ("spans".into(), Json::Arr(spans)),
    ]);
    std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("{SPANS_DIR}: {e}"))?;
    let path = std::path::Path::new(SPANS_DIR).join(format!(
        "spans-{}-{}.json",
        args.kind.name(),
        args.seed
    ));
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let registry = registry(args.seed);
    let spec = Spec::new(args.kind, args.seed, args.sizes, &registry);
    let mut checker = Checker::new(&spec, static_references(&spec, &registry));
    let server = Server::boot(&args.server, args.seed)?;
    let mut client = server.connect()?;
    set_up(&mut client, &spec, &mut checker)?;
    let setup_failures = checker.failures.len();
    checker.corrupt = args.corrupt_reference;

    // The twin: the same configuration, the same uploads and warm-ups.
    let twin =
        Service::new(ServerConfig { threads: 2, seed: Some(args.seed), ..ServerConfig::default() });
    let first = &spec.datasets[0];
    let private = Catalog::new();
    let private = if first.dim == 1 {
        private.load_line_csv(first.name, &first.csv)
    } else {
        private.load_planar_csv(first.name, &first.csv)
    }
    .map_err(|e| format!("private copy: {e}"))?;
    let mut tracer = Tracer {
        spec: &spec,
        registry,
        twin,
        private,
        origin: Instant::now(),
        spans: Vec::new(),
        s: Samples::default(),
        deferred: Vec::new(),
    };
    for dataset in &spec.datasets {
        tracer.twin_post(&dataset.upload_path(), &dataset.csv)?;
    }
    for &id in &spec.warmup {
        tracer.twin_post("/query", &spec.pool[id].body)?;
    }

    // Traced operations, then untraced ones continuing the same stream.
    let mut stream = spec.stream();
    let mut samples = Vec::new();
    let cache_before = tracer.twin.cache().counters();
    let window = Duration::from_secs_f64(args.seconds * TRACED_SHARE);
    let started = Instant::now();
    while started.elapsed() < window && samples.len() < MAX_TRACED_STEPS {
        let step = stream.next_step();
        samples.push(tracer.step(&mut client, samples.len(), &step)?);
    }
    let cache_after = tracer.twin.cache().counters();
    tracer.replay_deferred()?;

    let before = stats(&mut client)?;
    let (untraced, _) = drive(
        &mut client,
        &spec,
        &mut stream,
        Duration::from_secs_f64(args.seconds * UNTRACED_SHARE),
    )?;
    let after = stats(&mut client)?;
    let untraced_ops: usize = untraced.iter().map(|s| s.step.ops()).sum();
    let untraced_client_us: Vec<f64> = untraced.iter().map(|s| us(s.latency)).collect();
    samples.extend(untraced);

    // Probes.
    let mut floor = Vec::new();
    for _ in 0..300 {
        let t = Instant::now();
        let (status, _) = client.get("/healthz").map_err(|e| format!("/healthz: {e}"))?;
        floor.push(us(t.elapsed()));
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
    }
    let wire_floor_us = median(&floor);
    let healthz = [PipelineRequest::get("/healthz"); BURST];
    let mut burst_floor = Vec::new();
    for _ in 0..100 {
        let t = Instant::now();
        let answers = client.pipeline(&healthz).map_err(|e| format!("/healthz burst: {e}"))?;
        burst_floor.push(us(t.elapsed()));
        if answers.iter().any(|(status, _, _)| *status != 200) {
            return Err("a /healthz burst was refused".into());
        }
    }
    let burst_floor_us = median(&burst_floor);
    let mut healthz_handle = Vec::new();
    let probe = Request {
        method: "GET".into(),
        target: "/healthz".into(),
        headers: Vec::new(),
        body: Vec::new(),
    };
    for _ in 0..300 {
        let t = Instant::now();
        std::hint::black_box(tracer.twin.handle(&probe));
        healthz_handle.push(us(t.elapsed()));
    }
    let healthz_us = median(&healthz_handle);
    let probes = auto_probe(&tracer);
    let (candidates_per_s, sieve_ratio, candidates_per_hit) = kernel_probe(&tracer);
    let writes = probe_writes(&spec, 3);
    let compaction_ms = compaction_probe(&spec, &writes);
    let invalidations_before = tracer.twin.cache().counters().invalidations;
    let writes_before = tracer.s.twin_writes;
    if tracer.s.apply_us.is_empty() {
        // A workload without writes: time probe writes on the private copy,
        // and count what they invalidate in the twin's cache.
        for write in &writes {
            tracer.write_private(write)?;
            tracer.twin_post(&write.path, &write.body)?;
            tracer.s.twin_writes += 1;
        }
    }
    let invalidations = if writes_before > 0 {
        (cache_after.invalidations - cache_before.invalidations) as f64 / writes_before as f64
    } else {
        (tracer.twin.cache().counters().invalidations - invalidations_before) as f64
            / (tracer.s.twin_writes - writes_before).max(1) as f64
    };
    let compactions = match tracer.private.as_ref() {
        Dataset::Line(core) => core.versioned().compactions(),
        Dataset::Planar(core) => core.versioned().compactions(),
    };
    drop(client);
    drop(server);

    let mut failed = 0;
    let mut attempted = 0;
    for sample in &samples {
        failed += checker.check_step(&sample.step, &sample.responses);
        attempted += sample.step.ops();
    }

    let s = &tracer.s;
    let floor_us = median(&s.floor_us);
    let model: Vec<f64> =
        s.model_us.iter().map(|&(m, k)| m + floor_us - k as f64 * healthz_us).collect();
    let client_p50 = median(&s.client_us);
    let reconcile = client_p50 / median(&model).max(1e-9);
    let unattributed = s.client_us.iter().zip(&model).map(|(c, m)| c - m).sum::<f64>()
        / s.client_us.iter().sum::<f64>().max(1e-9);
    let overhead = client_p50 / median(&untraced_client_us).max(1e-9) - 1.0;
    let regret = probes.iter().map(|p| p.auto_us).sum::<f64>()
        / probes.iter().map(|p| p.fastest_us).sum::<f64>().max(1e-9);
    let route_us = median(&probes.iter().map(|p| p.route_us).collect::<Vec<_>>());
    let delta = |path: &[&str]| field(&after, path) - field(&before, path);
    let per_op = |v: f64| v / untraced_ops.max(1) as f64;

    let reconcile_ok = (1.0 / RECONCILE_TOLERANCE..=RECONCILE_TOLERANCE).contains(&reconcile);
    if !reconcile_ok {
        eprintln!(
            "perfbench: FAILED reconciliation: client p50 {client_p50:.1} µs vs modelled {:.1} µs \
             (ratio {reconcile:.3}, tolerance {RECONCILE_TOLERANCE}x)",
            median(&model)
        );
    }
    let spans_path = write_spans(args, &tracer, &probes)?;
    let crosscheck = format!(
        "server solve p50 {:.1} µs over {} misses",
        median(&s.server_solve_us),
        s.server_solve_us.len()
    );
    let mut metrics = vec![
        Metric::new("geom.kernels.candidates_per_s", candidates_per_s, "1/s"),
        Metric::new("geom.kernels.sieve_reject_ratio", sieve_ratio, "ratio"),
        Metric::new("geom.grid.candidates_per_hit", candidates_per_hit, "ratio"),
        Metric::new("solver.ms", median(&s.solver_ms), "ms")
            .noted(format!("n={}", s.solver_ms.len())),
        Metric::new("solver.ns_per_point", median(&s.solver_ns_per_point), "ns"),
        Metric::new("solver.candidates_per_query", mean(&s.candidates), "count"),
        Metric::new("auto.route_us", route_us, "us")
            .noted(format!("{} probe shape(s)", probes.len())),
        Metric::new("auto.regret", regret, "ratio"),
        Metric::new("executor.plan_us", median(&s.plan_us), "us"),
        Metric::new("executor.solve_us", median(&s.solve_us), "us").noted(crosscheck),
        Metric::new("executor.certify_us", median(&s.certify_us), "us"),
        Metric::new("executor.instance_check_us", median(&s.instance_us), "us"),
        Metric::new(
            "index.builds_per_op",
            per_op(dataset_sum(&after, "index_builds") - dataset_sum(&before, "index_builds")),
            "count",
        ),
        Metric::new("versioned.apply_us", median(&s.apply_us), "us")
            .noted(format!("n={}", s.apply_us.len())),
        Metric::new("versioned.compaction_ms", compaction_ms, "ms"),
        Metric::new("versioned.compactions", compactions as f64, "count"),
        Metric::new("versioned.merge_us", median(&s.merge_us), "us")
            .noted(format!("n={}", s.merge_us.len())),
        Metric::new("service.handle_us", median(&s.handle_us), "us")
            .noted(format!("n={}", s.handle_us.len())),
        Metric::new("service.cache_lookup_us", median(&s.cache_lookup_us), "us"),
        Metric::new("service.render_us", render_p50(&tracer), "us"),
        Metric::new("cache.hit_rate", s.twin_hits as f64 / s.reads.max(1) as f64, "ratio"),
        Metric::new("cache.invalidations_per_write", invalidations, "ratio"),
        Metric::new("json.parse_us", median(&s.json_us), "us"),
        Metric::new("http.parse_ns", median(&s.parse_ns), "ns"),
        Metric::new("runtime.wire_floor_us", wire_floor_us, "us"),
        Metric::new("runtime.burst_floor_us", burst_floor_us, "us")
            .noted(format!("{BURST} pipelined /healthz")),
        Metric::new("reactor.wakeups_per_op", per_op(delta(&["reactor", "wakeups"])), "ratio"),
        Metric::new(
            "reactor.readiness_per_op",
            per_op(delta(&["reactor", "readiness_events"])),
            "ratio",
        ),
        Metric::new(
            "reactor.bytes_out_per_op",
            per_op(delta(&["reactor", "coalesced_write_bytes"])),
            "B",
        ),
        Metric::new("reactor.depth_hw", field(&after, &["reactor", "max_pipeline_depth"]), "count"),
        Metric::new("trace.unattributed_share", unattributed, "ratio"),
        Metric::new("trace.overhead_share", overhead, "ratio"),
        Metric::new("trace.reconcile_ratio", reconcile, "ratio")
            .noted(format!("client p50 / modelled p50; tolerance {RECONCILE_TOLERANCE}x")),
    ];
    metrics.sort_by_key(|m| m.name);
    eprintln!("perfbench: spans written to {spans_path}");
    for p in &probes {
        eprintln!(
            "perfbench: auto on {}: {:.0} µs via {} (route {:.0} µs) vs {:.0} µs via {} (regret {:.2})",
            p.label, p.auto_us, p.choice, p.route_us, p.fastest_us, p.fastest, p.auto_us / p.fastest_us
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        other_failures: setup_failures + usize::from(!reconcile_ok),
        metrics,
        printed_only: Vec::new(),
    })
}

/// The render phase over every trace the twin retained (its warm-up
/// misses included, so a workload served from the cache still has one).
fn render_p50(tracer: &Tracer<'_>) -> f64 {
    let renders: Vec<f64> =
        tracer.twin.traces().snapshot().iter().map(|t| us(t.phase(Phase::Render))).collect();
    median(&renders)
}
