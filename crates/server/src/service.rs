//! The service layer: configuration, shared state, routing, and the
//! endpoint handlers.
//!
//! Request flow for a query:
//!
//! 1. resolve the dataset in the [`Catalog`] (404 if absent);
//! 2. look each query up in the [`AnswerCache`] under
//!    `(epoch, solver, shape)` — hits return the stored rendered answer;
//! 3. misses become one batch over the dataset's current version, answered
//!    by [`BatchExecutor::execute_versioned_traced`] against the
//!    catalog-resident [`SharedIndex`](mrs_core::engine::SharedIndex) and
//!    delta overlay, so index structures are built at most once per
//!    dataset generation;
//! 4. computed answers are rendered to JSON once, stored in the cache, and
//!    merged with the hits in request order.
//!
//! Handlers record into `Metrics`; [`crate::metrics`] renders `/stats`,
//! `/metrics` and the dataset summaries from its one metric table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use mrs_core::engine::{
    BatchCapability, BatchExecutor, BatchQuery, BatchStats, DimSupport, EngineConfig, EngineError,
    EngineResult, ExecutorConfig, GuaranteeClass, LatencySummary, Phase, ProblemKind, QueryTrace,
    RangeShape, Registry, ShapeClass, SolverDescriptor, SolverReport, TraceRecorder,
    WeightedInstance, WeightedSolver,
};
use mrs_core::Placement;

use crate::cache::{AnswerCache, CacheKey};
use crate::catalog::{Catalog, Dataset, DatasetCore};
use crate::http::{Request, Response};
use crate::json::Json;
pub use crate::metrics::latency_json;
use crate::metrics::{dataset_json, Counter, Endpoint, Metrics, Scrape};
use crate::trace::{trace_json, TraceRing};

/// Server configuration.  [`ServerConfig::default`] is ready for local use.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, `HOST:PORT` (port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads; `0` picks `min(available_parallelism, 8)`.
    pub threads: usize,
    /// Approximation parameter handed to the approximate solvers.
    pub eps: f64,
    /// Seed for the randomized solvers.  `Some` makes every answer
    /// deterministic (solvers are constructed per lookup from the seeded
    /// config), which the end-to-end tests rely on; `None` leaves them
    /// entropy-seeded.
    pub seed: Option<u64>,
    /// Shards of the answer cache.
    pub cache_shards: usize,
    /// Total capacity of the answer cache, in entries.
    pub cache_capacity: usize,
    /// Re-certify every computed answer against the resident index.
    pub certify: bool,
    /// Slow-query threshold: an executed query whose phases sum past this
    /// gets one structured line on stderr (`None` disables the log).
    pub slow_query: Option<Duration>,
    /// Default per-request compute deadline for `/query` and `/batch`
    /// (`--request-timeout-ms`).  A request's `X-Deadline-Ms` header
    /// overrides it per call; `None` disables the default.
    pub request_timeout: Option<Duration>,
    /// Most live connections the reactor holds, idle keep-alives
    /// included; a connection arriving at the limit is shed with a `503` +
    /// `Retry-After`.  It caps connections and queues nothing; the name
    /// stays because `/stats` and `serve_loadgen --chaos` read it.
    pub queue_capacity: usize,
    /// Global limit on concurrently-handled `/query` + `/batch` requests;
    /// requests past it are shed with a `503` + `Retry-After`.
    pub max_inflight: usize,
    /// Per-dataset limit on concurrently-handled query requests (`0`
    /// derives `max_inflight / 2`, floored at 1).
    pub max_inflight_per_dataset: usize,
    /// Overload watermark in `[0, 1]`: once global in-flight reaches this
    /// fraction of `max_inflight`, new queries run in degradation mode (the
    /// `auto` router restricts to predicted-cheap solvers).  `>= 1.0`
    /// disables degradation.
    pub overload_watermark: f64,
    /// Keep-alive window for idle connections (the reactor evicts idle
    /// connections past it).
    pub keep_alive: Duration,
    /// Registers the test-only `chaos-panic` solver (always panics) so the
    /// fault-injection harness can exercise panic isolation end to end.
    pub chaos_solver: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7070".to_string(),
            threads: 0,
            eps: 0.25,
            seed: None,
            cache_shards: 8,
            cache_capacity: 4096,
            certify: true,
            slow_query: None,
            request_timeout: None,
            queue_capacity: 1024,
            max_inflight: 256,
            max_inflight_per_dataset: 0,
            overload_watermark: 0.75,
            keep_alive: Duration::from_secs(30),
            chaos_solver: false,
        }
    }
}

impl ServerConfig {
    /// The worker-pool size this configuration resolves to.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
        }
    }

    /// The per-dataset in-flight limit this configuration resolves to.
    pub fn resolved_max_inflight_per_dataset(&self) -> usize {
        if self.max_inflight_per_dataset > 0 {
            self.max_inflight_per_dataset
        } else {
            (self.max_inflight / 2).max(1)
        }
    }
}

/// The full workspace registry under `config` (re-exported from
/// [`mrs_batched::engine::full_registry`], where the wiring lives so every
/// consumer — CLI, service, benchmarks — dispatches the same solver set).
pub use mrs_batched::engine::full_registry;

/// Shared, thread-safe service state: every worker holds an `Arc<Service>`.
pub struct Service {
    config: ServerConfig,
    registry: Registry,
    catalog: Catalog,
    cache: AnswerCache,
    metrics: Metrics,
    traces: TraceRing,
    next_request_id: AtomicU64,
    shutdown: AtomicBool,
    local_addr: OnceLock<std::net::SocketAddr>,
    dataset_inflight: Mutex<HashMap<String, Arc<AtomicU64>>>,
}

/// The test-only always-panicking solver behind `--chaos-solver`: the
/// fault-injection harness queries it to prove a worker survives a handler
/// panic (the client sees a well-formed `500`, `/stats` counts it, and the
/// pool keeps serving).  Registered *externally* — never part of the default
/// registry, so `maxrs solvers` output is untouched without the flag.
struct ChaosPanicSolver;

impl ChaosPanicSolver {
    const DESCRIPTOR: SolverDescriptor = SolverDescriptor {
        name: "chaos-panic",
        problem: ProblemKind::Weighted,
        shape: ShapeClass::Any,
        dims: DimSupport::Any,
        guarantee: GuaranteeClass::HalfMinusEps,
        dynamic: false,
        batch: BatchCapability::Independent,
        negative_weights: true,
        reference: "test-only always-panicking solver (fault-injection harness)",
    };
}

impl<const D: usize> WeightedSolver<D> for ChaosPanicSolver {
    fn descriptor(&self) -> &SolverDescriptor {
        &Self::DESCRIPTOR
    }

    fn solve(&self, _instance: &WeightedInstance<D>) -> EngineResult<SolverReport<Placement<D>>> {
        panic!("chaos-panic solver fired (fault injection)");
    }
}

/// A parsed query before the target dataset's dimension is known.
struct QuerySpec {
    solver: String,
    problem: ProblemKind,
    shape: ShapeSpec,
}

/// A query shape before dimension resolution.
#[derive(Clone, Copy)]
enum ShapeSpec {
    /// A ball of the given radius (`{"interval": L}` arrives as `L/2`).
    Ball(f64),
    /// A planar box of the given extents.
    Box(f64, f64),
}

impl QuerySpec {
    /// The concrete 2-D query, for planar datasets.
    fn to_planar(&self) -> Result<BatchQuery<2>, String> {
        let shape = match self.shape {
            ShapeSpec::Ball(radius) => RangeShape::<2>::ball(radius),
            ShapeSpec::Box(w, h) => RangeShape::rect(w, h),
        };
        Ok(self.query(shape))
    }

    /// The concrete 1-D query, for line datasets (box shapes are planar-only).
    fn to_line(&self) -> Result<BatchQuery<1>, String> {
        let shape = match self.shape {
            ShapeSpec::Ball(radius) => RangeShape::<1>::ball(radius),
            ShapeSpec::Box(..) => {
                return Err("box queries need a planar (2-D) dataset".to_string());
            }
        };
        Ok(self.query(shape))
    }

    fn query<const D: usize>(&self, shape: RangeShape<D>) -> BatchQuery<D> {
        match self.problem {
            ProblemKind::Weighted => BatchQuery::weighted(self.solver.clone(), shape),
            ProblemKind::Colored => BatchQuery::colored(self.solver.clone(), shape),
        }
    }
}

/// How one query of a request was answered.
enum Outcome {
    /// Served from the answer cache.
    Hit(Arc<str>),
    /// Computed by the engine this request.
    Computed(Arc<str>),
    /// A typed engine failure: failed dispatch (unknown solver,
    /// shape/dimension mismatch, ...) or an exceeded deadline.
    Failed(EngineError),
}

/// RAII guard for one slot of the global in-flight window; dropping it
/// releases the slot even when the handler panics.
struct InflightPermit<'s> {
    metrics: &'s Metrics,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.metrics.sub(Counter::Inflight, 1);
    }
}

/// RAII guard for one slot of a dataset's in-flight window.
struct DatasetPermit {
    counter: Arc<AtomicU64>,
}

impl Drop for DatasetPermit {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The merged result of answering a list of queries.
struct Answered {
    outcomes: Vec<Outcome>,
    cache_hits: usize,
    executed: usize,
    stats: Option<BatchStats>,
    latency: LatencySummary,
}

impl Service {
    /// A service with the given configuration and an empty catalog.
    pub fn new(config: ServerConfig) -> Self {
        let mut engine_config = EngineConfig::practical(config.eps);
        if let Some(seed) = config.seed {
            engine_config = engine_config.with_seed(seed);
        }
        let mut registry = full_registry(engine_config);
        if config.chaos_solver {
            registry.register_weighted::<2>(Arc::new(ChaosPanicSolver));
            registry.register_weighted::<1>(Arc::new(ChaosPanicSolver));
        }
        Self {
            registry,
            catalog: Catalog::new(),
            cache: AnswerCache::new(config.cache_shards, config.cache_capacity),
            metrics: Metrics::new(),
            traces: TraceRing::default(),
            next_request_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            local_addr: OnceLock::new(),
            dataset_inflight: Mutex::new(HashMap::new()),
            config,
        }
    }

    /// The dataset catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The answer cache.
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// The server's metrics.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The ring of recent query traces (`GET /debug/traces`).
    pub fn traces(&self) -> &TraceRing {
        &self.traces
    }

    /// The configuration the service runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// `true` once shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (idempotent).  The reactor observes the flag; see
    /// [`crate::runtime::ServerHandle`].
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the reactor's `epoll_wait` awake.  A wildcard bind
        // (0.0.0.0 / ::) is not connectable on every platform, so aim the
        // poke at the loopback of the same family instead.
        if let Some(addr) = self.local_addr.get() {
            let mut target = *addr;
            if target.ip().is_unspecified() {
                target.set_ip(match target {
                    std::net::SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    std::net::SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = std::net::TcpStream::connect(target);
        }
    }

    /// Records the bound address (runtime calls this once after binding).
    pub(crate) fn set_local_addr(&self, addr: std::net::SocketAddr) {
        let _ = self.local_addr.set(addr);
    }

    /// Routes one request to its handler and measures it into the metrics.
    /// Every response — success or error — carries an `X-Request-Id`
    /// header; executed queries key their `/debug/traces` entries by it.
    pub fn handle(&self, request: &Request) -> Response {
        let started = Instant::now();
        let rid = format!("r-{:06}", self.next_request_id.fetch_add(1, Ordering::Relaxed));
        let endpoint = Endpoint::of(&request.target);
        // Admission: the compute endpoints hold a global in-flight permit
        // for their whole handling window; past the limit they shed with a
        // well-formed 503 + Retry-After instead of queueing unboundedly.
        let compute = matches!(endpoint, Endpoint::Query | Endpoint::Batch);
        let _permit = if compute {
            match self.admit_global() {
                Ok(permit) => Some(permit),
                Err(response) => {
                    self.metrics.record(endpoint, started.elapsed(), false);
                    return response.with_header("X-Request-Id", rid);
                }
            }
        } else {
            None
        };
        let response =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.route(request, &rid)))
                .unwrap_or_else(|_| {
                    self.metrics.add(Counter::Panics, 1);
                    Response::json(500, r#"{"error":"internal panic while handling the request"}"#)
                });
        self.metrics.record(endpoint, started.elapsed(), response.is_success());
        response.with_header("X-Request-Id", rid)
    }

    /// Takes one slot of the global in-flight window, or builds the 503 the
    /// request is shed with.
    fn admit_global(&self) -> Result<InflightPermit<'_>, Response> {
        // Increment first and roll back past the limit, as `admit_dataset`
        // does: checking before incrementing lets two racing requests both
        // see room.
        let before = self.metrics.add(Counter::Inflight, 1);
        let max = self.config.max_inflight as u64;
        if max > 0 && before >= max {
            self.metrics.sub(Counter::Inflight, 1);
            self.metrics.add(Counter::Shed, 1);
            return Err(self.shed_response("server is at its in-flight request limit"));
        }
        Ok(InflightPermit { metrics: &self.metrics })
    }

    /// Takes one slot of `dataset`'s in-flight window, or builds the 503
    /// the request is shed with.
    fn admit_dataset(&self, dataset: &str) -> Result<DatasetPermit, Response> {
        let limit = self.config.resolved_max_inflight_per_dataset() as u64;
        let counter = {
            let mut map =
                self.dataset_inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(map.entry(dataset.to_string()).or_default())
        };
        // Optimistic increment with rollback: contention on one dataset
        // never blocks queries against the others.
        if counter.fetch_add(1, Ordering::AcqRel) >= limit {
            counter.fetch_sub(1, Ordering::AcqRel);
            self.metrics.add(Counter::Shed, 1);
            return Err(self
                .shed_response(&format!("dataset `{dataset}` is at its in-flight request limit")));
        }
        Ok(DatasetPermit { counter })
    }

    /// The well-formed shed response: `503` + `Retry-After` derived from
    /// the query endpoint's p99 scaled by the current in-flight depth —
    /// roughly how long the backlog needs to drain — clamped to `[1, 60]`
    /// seconds.
    pub(crate) fn shed_response(&self, message: &str) -> Response {
        let p99 = self.metrics.endpoint_latency(Endpoint::Query).quantile(0.99).as_secs_f64();
        let depth = self.metrics.get(Counter::Inflight).max(1) as f64;
        let retry_after = (p99 * depth).ceil().clamp(1.0, 60.0) as u64;
        error_response(503, message).with_header("Retry-After", retry_after.to_string())
    }

    /// `true` once global in-flight load crosses the overload watermark:
    /// new queries then run in degradation mode.
    fn overloaded(&self) -> bool {
        let max = self.config.max_inflight as f64;
        let watermark = self.config.overload_watermark;
        max > 0.0
            && watermark < 1.0
            && self.metrics.get(Counter::Inflight) as f64 >= watermark * max
    }

    /// The compute deadline for one request: the `X-Deadline-Ms` header
    /// when present (and parseable), else the configured default.
    fn request_deadline(&self, request: &Request) -> Option<Instant> {
        let timeout = match request.header("x-deadline-ms").map(str::trim) {
            Some(raw) => raw.parse::<u64>().ok().map(Duration::from_millis),
            None => self.config.request_timeout,
        };
        timeout.map(|t| Instant::now() + t)
    }

    fn route(&self, request: &Request, rid: &str) -> Response {
        let path = request.target.split('?').next().unwrap_or("");
        match (request.method.as_str(), path) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/solvers") => self.solvers(),
            ("GET", "/stats") => self.stats_endpoint(),
            ("GET", "/metrics") => self.metrics_endpoint(),
            ("GET", "/debug/traces") => self.debug_traces(request),
            ("GET", "/datasets") => self.list_datasets(),
            ("POST", "/query") => self.query(request, rid),
            ("POST", "/batch") => self.batch(request, rid),
            ("POST", "/shutdown") => {
                self.request_shutdown();
                Response::json(200, r#"{"status":"shutting down"}"#)
            }
            ("POST", p) if p.starts_with("/datasets/") => {
                let rest = &p["/datasets/".len()..];
                match rest.split_once('/') {
                    None => self.upload_dataset(rest, request),
                    Some((name, action @ ("insert" | "delete"))) => {
                        self.mutate_dataset(name, action, request)
                    }
                    Some(_) => error_response(404, "no such endpoint"),
                }
            }
            ("GET" | "POST", _) => error_response(404, "no such endpoint"),
            _ => error_response(405, "method not allowed"),
        }
    }

    fn healthz(&self) -> Response {
        let body = Json::Obj(vec![
            ("status".into(), Json::str("ok")),
            ("uptime_us".into(), Json::num(self.metrics.uptime().as_micros() as f64)),
            ("datasets".into(), Json::num(self.catalog.len() as f64)),
        ]);
        Response::json(200, body.render())
    }

    fn solvers(&self) -> Response {
        let solvers: Vec<Json> = self
            .registry
            .descriptors()
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("name".into(), Json::str(d.name)),
                    (
                        "problem".into(),
                        Json::str(match d.problem {
                            ProblemKind::Weighted => "weighted",
                            ProblemKind::Colored => "colored",
                        }),
                    ),
                    ("shape".into(), Json::str(d.shape.to_string())),
                    (
                        "dims".into(),
                        match d.dims {
                            DimSupport::Any => Json::str("any"),
                            DimSupport::Fixed(n) => Json::num(n as f64),
                        },
                    ),
                    (
                        "guarantee".into(),
                        Json::str(match d.guarantee {
                            GuaranteeClass::Exact => "exact",
                            GuaranteeClass::HalfMinusEps => "half-minus-eps",
                            GuaranteeClass::OneMinusEps => "one-minus-eps",
                        }),
                    ),
                    (
                        "batch".into(),
                        Json::str(match d.batch {
                            BatchCapability::Independent => "independent",
                            BatchCapability::IndexShared => "index-shared",
                        }),
                    ),
                    ("updates".into(), Json::str(if d.dynamic { "incremental" } else { "static" })),
                    ("reference".into(), Json::str(d.reference)),
                ])
            })
            .collect();
        Response::json(200, Json::Obj(vec![("solvers".into(), Json::Arr(solvers))]).render())
    }

    fn list_datasets(&self) -> Response {
        let datasets: Vec<Json> = self.catalog.datasets().iter().map(|d| dataset_json(d)).collect();
        Response::json(200, Json::Obj(vec![("datasets".into(), Json::Arr(datasets))]).render())
    }

    fn upload_dataset(&self, name: &str, request: &Request) -> Response {
        let Some(csv) = request.body_text() else {
            return error_response(400, "dataset body must be UTF-8 CSV text");
        };
        let loaded = match query_param(&request.target, "dim") {
            None | Some("2") => self.catalog.load_planar_csv(name, csv),
            Some("1") => self.catalog.load_line_csv(name, csv),
            Some(other) => {
                return error_response(400, &format!("unsupported dataset dim `{other}`"));
            }
        };
        match loaded {
            Ok(dataset) => Response::json(
                200,
                Json::Obj(vec![("dataset".into(), dataset_json(&dataset))]).render(),
            ),
            Err(e) => error_response(400, &e.to_string()),
        }
    }

    /// `POST /datasets/{name}/insert|delete`: applies a mutation body (the
    /// dataset's own CSV record shape for inserts, bare coordinates for
    /// deletes) as one version bump, then purges the answer cache entries
    /// of that dataset's older versions — fine-grained invalidation, no
    /// catalog-wide epoch bump.
    fn mutate_dataset(&self, name: &str, action: &str, request: &Request) -> Response {
        let Some(dataset) = self.catalog.get(name) else {
            return error_response(404, &format!("no dataset is named `{name}`"));
        };
        let Some(csv) = request.body_text() else {
            return error_response(400, "mutation body must be UTF-8 CSV text");
        };
        let applied = match action {
            "insert" => dataset.insert_csv(csv),
            _ => dataset.delete_csv(csv),
        };
        match applied {
            Ok(report) => {
                let invalidated =
                    self.cache.invalidate_dataset_below(dataset.epoch(), report.version);
                let body = Json::Obj(vec![
                    (
                        "mutated".into(),
                        Json::Obj(vec![
                            ("action".into(), Json::str(action)),
                            ("inserted".into(), Json::num(report.outcome.inserted as f64)),
                            ("deleted".into(), Json::num(report.outcome.deleted as f64)),
                            ("missed".into(), Json::num(report.outcome.missed as f64)),
                            ("version".into(), Json::num(report.version as f64)),
                            ("compacted".into(), Json::Bool(report.compacted)),
                            ("cache_invalidated".into(), Json::num(invalidated as f64)),
                        ]),
                    ),
                    ("dataset".into(), dataset_json(&dataset)),
                ]);
                Response::json(200, body.render())
            }
            Err(e) => error_response(400, &e.to_string()),
        }
    }

    /// One reading of everything `/stats` and `/metrics` render.
    fn scrape(&self) -> Scrape<'_> {
        Scrape::new(&self.metrics, self.cache.counters(), self.catalog.datasets(), &self.config)
    }

    /// `GET /stats`: the metric table as JSON (see [`crate::metrics`]).
    fn stats_endpoint(&self) -> Response {
        Response::json(200, self.scrape().stats_json().render())
    }

    /// `GET /metrics`: the metric table in Prometheus text exposition
    /// format (see [`crate::metrics`]).
    fn metrics_endpoint(&self) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: self.scrape().exposition().into_bytes(),
        }
    }

    /// `GET /debug/traces[?id=r-000042]`: the retained phase-timed traces,
    /// oldest first, optionally filtered to one request id.
    fn debug_traces(&self, request: &Request) -> Response {
        let traces = match query_param(&request.target, "id") {
            Some(id) => self.traces.for_request(id),
            None => self.traces.snapshot(),
        };
        let body = Json::Obj(vec![
            ("capacity".into(), Json::num(self.traces.capacity() as f64)),
            ("traces".into(), Json::Arr(traces.iter().map(trace_json).collect())),
        ]);
        Response::json(200, body.render())
    }

    /// Parses one query object — `{"solver": "...", "shape": {"ball": R} |
    /// {"box": [W, H]} | {"interval": L}}` — into a dimension-agnostic spec.
    /// The problem kind (weighted vs colored) comes from the solver's
    /// registry descriptor (`descriptors` is hoisted by the caller so a
    /// batch resolves the listing once, not per query); the spec becomes a
    /// concrete [`BatchQuery`] only once the target dataset's dimension is
    /// known.
    fn parse_query_spec(
        &self,
        descriptors: &[mrs_core::engine::SolverDescriptor],
        value: &Json,
    ) -> Result<QuerySpec, String> {
        let solver = value
            .get("solver")
            .and_then(Json::as_str)
            .ok_or("query needs a `solver` name".to_string())?;
        let shape = value.get("shape").ok_or("query needs a `shape`".to_string())?;
        let positive = |what: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(format!("{what} must be positive, got {v}"))
            }
        };
        let shape = if let Some(radius) = shape.get("ball").and_then(Json::as_f64) {
            let radius = positive("ball radius", radius)?;
            if !(2.0 * radius).is_finite() {
                return Err(format!("ball radius {radius} is too large: its diameter overflows"));
            }
            ShapeSpec::Ball(radius)
        } else if let Some(length) = shape.get("interval").and_then(Json::as_f64) {
            ShapeSpec::Ball(positive("interval length", length)? / 2.0)
        } else if let Some(extents) = shape.get("box").and_then(Json::as_arr) {
            let [Some(w), Some(h)] =
                [extents.first().and_then(Json::as_f64), extents.get(1).and_then(Json::as_f64)]
            else {
                return Err("`box` must be an array of two numbers".to_string());
            };
            ShapeSpec::Box(positive("box width", w)?, positive("box height", h)?)
        } else {
            return Err(
                "`shape` must be {\"ball\": R}, {\"box\": [W, H]} or {\"interval\": L}".to_string()
            );
        };
        // One name can serve both problem kinds (the `auto` router does);
        // an explicit `"problem"` field picks the side, otherwise the first
        // registered descriptor under that name wins.
        let kinds = "\"weighted\" or \"colored\"";
        let problem = match optional_field(value, "problem", kinds, Json::as_str)? {
            None => None,
            Some("weighted") => Some(ProblemKind::Weighted),
            Some("colored") => Some(ProblemKind::Colored),
            Some(other) => return Err(format!("`problem` must be {kinds}, got `{other}`")),
        };
        let descriptor = descriptors
            .iter()
            .find(|d| d.name == solver && problem.is_none_or(|p| d.problem == p))
            .ok_or_else(|| match problem {
                None => format!("no registered solver is named `{solver}`"),
                Some(p) => format!(
                    "no registered {} solver is named `{solver}`",
                    match p {
                        ProblemKind::Weighted => "weighted",
                        ProblemKind::Colored => "colored",
                    }
                ),
            })?;
        Ok(QuerySpec { solver: solver.to_string(), problem: descriptor.problem, shape })
    }

    /// Answers queries against a dataset of any supported dimension: cache
    /// lookups first (keyed by the dataset's epoch *and* current version),
    /// then one engine batch over the misses at the dataset's current
    /// version — every computed answer is certified against, stamped with,
    /// and cached under exactly the version it was computed at.
    ///
    /// Every executed (non-cache-hit) query leaves one phase-timed
    /// [`QueryTrace`] in the [`TraceRing`], keyed by `rid` — the same id
    /// the response's `X-Request-Id` header carries — with the service-side
    /// cache-probe and render phases stitched onto the engine's
    /// plan/build/solve/certify phases.
    fn answer<const D: usize>(
        &self,
        dataset: &DatasetCore<D>,
        queries: &[BatchQuery<D>],
        use_cache: bool,
        rid: &str,
        deadline: Option<Instant>,
        degraded: bool,
    ) -> Answered {
        let epoch = dataset.epoch();
        let version = dataset.versioned().version();
        let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(queries.len());
        outcomes.resize_with(queries.len(), || None);
        let mut misses: Vec<BatchQuery<D>> = Vec::new();
        let mut miss_positions: Vec<usize> = Vec::new();
        let mut miss_probe: Vec<Duration> = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            let probe_start = Instant::now();
            if use_cache {
                if let Some(rendered) = self.cache.get(&CacheKey::for_query(epoch, version, query))
                {
                    outcomes[i] = Some(Outcome::Hit(rendered));
                    continue;
                }
            }
            miss_positions.push(i);
            miss_probe.push(if use_cache { probe_start.elapsed() } else { Duration::ZERO });
            misses.push(query.clone());
        }

        let mut stats = None;
        let mut latency = LatencySummary::default();
        if !miss_positions.is_empty() {
            // The executor certifies per answer against the version's delta
            // overlay, so the flag rendered (and cached) here is per answer
            // — one contract violation in a batch cannot mislabel its
            // neighbors, and certifying after a mutation rebuilds nothing.
            let executor = BatchExecutor::with_config(
                &self.registry,
                ExecutorConfig { threads: None, certify: self.config.certify, deadline, degraded },
            );
            if degraded {
                self.metrics.add(Counter::Degraded, 1);
            }
            let mut recorder = TraceRecorder::new();
            let report =
                executor.execute_versioned_traced(dataset.versioned(), &misses, &mut recorder);
            let version = report.version;
            let mut render_times = vec![Duration::ZERO; misses.len()];
            for (slot, &i) in miss_positions.iter().enumerate() {
                let (answer, certified) = (&report.answers[slot], report.certified[slot]);
                outcomes[i] = Some(match answer.error() {
                    Some(e) => {
                        if matches!(e, EngineError::DeadlineExceeded { .. }) {
                            self.metrics.add(Counter::DeadlineExceeded, 1);
                        }
                        Outcome::Failed(e.clone())
                    }
                    None => {
                        let flag = certified == Some(true);
                        let render_start = Instant::now();
                        let rendered: Arc<str> = Arc::from(render_answer(answer, flag, version));
                        render_times[slot] = render_start.elapsed();
                        // Never cache a contract violation: it must stay
                        // loud, not be replayed from the LRU.
                        if use_cache && certified != Some(false) {
                            self.cache.insert(
                                CacheKey::for_query(epoch, version, &queries[i]),
                                Arc::clone(&rendered),
                            );
                        }
                        Outcome::Computed(rendered)
                    }
                });
            }
            latency = report.per_query_latency();
            let batch_stats = report.stats;
            self.metrics.add(Counter::CandidatesExamined, batch_stats.candidates_examined as u64);
            self.metrics.add(Counter::GridCellsVisited, batch_stats.grid_cells_visited as u64);
            self.metrics.add(Counter::SieveRejected, batch_stats.sieve_rejected as u64);
            // Work sums are rounded to whole units; the accuracy signal they
            // carry is far coarser.
            let (predicted, actual) =
                (batch_stats.auto_predicted_work, batch_stats.auto_actual_work);
            self.metrics.add(Counter::AutoPredictedWork, predicted.round() as u64);
            self.metrics.add(Counter::AutoActualWork, actual.round() as u64);
            stats = Some(batch_stats);

            // Stamp, account and retain the traces: `trace.query` comes
            // back as the position in the batch, which is the miss slot.
            for mut trace in recorder.take() {
                let slot = trace.query;
                trace.id = rid.to_string();
                trace.dataset = dataset.name().to_string();
                trace.query = miss_positions.get(slot).copied().unwrap_or(slot);
                trace.set_phase(
                    Phase::CacheLookup,
                    miss_probe.get(slot).copied().unwrap_or(Duration::ZERO),
                );
                trace.set_phase(
                    Phase::Render,
                    render_times.get(slot).copied().unwrap_or(Duration::ZERO),
                );
                self.metrics.record_trace(&trace);
                if let Some(threshold) = self.config.slow_query {
                    if trace.phase_total() >= threshold {
                        eprintln!("{}", slow_query_line(&trace));
                    }
                }
                self.traces.push(trace);
            }
        }
        dataset.count_requests(queries.len() as u64);

        let executed = miss_positions.len();
        Answered {
            outcomes: outcomes.into_iter().map(|o| o.expect("every query answered")).collect(),
            cache_hits: queries.len() - executed,
            executed,
            stats,
            latency,
        }
    }

    fn query(&self, request: &Request, rid: &str) -> Response {
        let body = match parse_body(request) {
            Ok(v) => v,
            Err(resp) => return *resp,
        };
        let Some(dataset_name) = body.get("dataset").and_then(Json::as_str) else {
            return error_response(400, "query needs a `dataset` name");
        };
        let Some(dataset) = self.catalog.get(dataset_name) else {
            return error_response(404, &format!("no dataset is named `{dataset_name}`"));
        };
        let spec = match self.parse_query_spec(&self.registry.descriptors(), &body) {
            Ok(spec) => spec,
            Err(message) => return error_response(400, &message),
        };
        let use_cache = match cache_flag(&body) {
            Ok(use_cache) => use_cache,
            Err(message) => return error_response(400, &message),
        };
        let _dataset_permit = match self.admit_dataset(dataset_name) {
            Ok(permit) => permit,
            Err(response) => return response,
        };
        let deadline = self.request_deadline(request);
        let degraded = self.overloaded();
        let answered = match dataset.as_ref() {
            Dataset::Planar(core) => match spec.to_planar() {
                Ok(query) => self.answer(
                    core,
                    std::slice::from_ref(&query),
                    use_cache,
                    rid,
                    deadline,
                    degraded,
                ),
                Err(message) => return error_response(400, &message),
            },
            Dataset::Line(core) => match spec.to_line() {
                Ok(query) => self.answer(
                    core,
                    std::slice::from_ref(&query),
                    use_cache,
                    rid,
                    deadline,
                    degraded,
                ),
                Err(message) => return error_response(400, &message),
            },
        };
        match &answered.outcomes[0] {
            Outcome::Failed(error @ EngineError::DeadlineExceeded { .. }) => {
                error_response(504, &error.to_string())
            }
            Outcome::Failed(error) => error_response(422, &error.to_string()),
            Outcome::Hit(rendered) => Response::json(
                200,
                format!("{{\"cached\":true,\"trace\":\"{rid}\",\"answer\":{rendered}}}"),
            ),
            Outcome::Computed(rendered) => Response::json(
                200,
                format!("{{\"cached\":false,\"trace\":\"{rid}\",\"answer\":{rendered}}}"),
            ),
        }
    }

    fn batch(&self, request: &Request, rid: &str) -> Response {
        let body = match parse_body(request) {
            Ok(v) => v,
            Err(resp) => return *resp,
        };
        let Some(dataset_name) = body.get("dataset").and_then(Json::as_str) else {
            return error_response(400, "batch needs a `dataset` name");
        };
        let Some(dataset) = self.catalog.get(dataset_name) else {
            return error_response(404, &format!("no dataset is named `{dataset_name}`"));
        };
        let Some(raw_queries) = body.get("queries").and_then(Json::as_arr) else {
            return error_response(400, "batch needs a `queries` array");
        };
        let descriptors = self.registry.descriptors();
        let mut specs = Vec::with_capacity(raw_queries.len());
        for (i, raw) in raw_queries.iter().enumerate() {
            match self.parse_query_spec(&descriptors, raw) {
                Ok(spec) => specs.push(spec),
                Err(message) => return error_response(400, &format!("query {i}: {message}")),
            }
        }
        let use_cache = match cache_flag(&body) {
            Ok(use_cache) => use_cache,
            Err(message) => return error_response(400, &message),
        };
        let queries_len = specs.len();
        let _dataset_permit = match self.admit_dataset(dataset_name) {
            Ok(permit) => permit,
            Err(response) => return response,
        };
        let deadline = self.request_deadline(request);
        let degraded = self.overloaded();
        let answered = match dataset.as_ref() {
            Dataset::Planar(core) => {
                let mut queries = Vec::with_capacity(specs.len());
                for (i, spec) in specs.iter().enumerate() {
                    match spec.to_planar() {
                        Ok(query) => queries.push(query),
                        Err(message) => {
                            return error_response(400, &format!("query {i}: {message}"));
                        }
                    }
                }
                self.answer(core, &queries, use_cache, rid, deadline, degraded)
            }
            Dataset::Line(core) => {
                let mut queries = Vec::with_capacity(specs.len());
                for (i, spec) in specs.iter().enumerate() {
                    match spec.to_line() {
                        Ok(query) => queries.push(query),
                        Err(message) => {
                            return error_response(400, &format!("query {i}: {message}"));
                        }
                    }
                }
                self.answer(core, &queries, use_cache, rid, deadline, degraded)
            }
        };

        let mut body = String::from("{\"answers\":[");
        let mut failed = 0usize;
        for (i, outcome) in answered.outcomes.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            match outcome {
                Outcome::Hit(rendered) => {
                    body.push_str(&format!(
                        "{{\"cached\":true,\"trace\":\"{rid}\",\"answer\":{rendered}}}"
                    ));
                }
                Outcome::Computed(rendered) => {
                    body.push_str(&format!(
                        "{{\"cached\":false,\"trace\":\"{rid}\",\"answer\":{rendered}}}"
                    ));
                }
                Outcome::Failed(error) => {
                    failed += 1;
                    let mut fields = vec![("error".into(), Json::str(error.to_string()))];
                    if matches!(error, EngineError::DeadlineExceeded { .. }) {
                        fields.push(("deadline_exceeded".into(), Json::Bool(true)));
                    }
                    body.push_str(&Json::Obj(fields).render());
                }
            }
        }
        body.push_str("],\"stats\":");
        let mut stats = vec![
            ("queries".to_string(), Json::num(queries_len as f64)),
            ("failed".to_string(), Json::num(failed as f64)),
            ("cache_hits".to_string(), Json::num(answered.cache_hits as f64)),
            ("executed".to_string(), Json::num(answered.executed as f64)),
            ("latency".to_string(), latency_json(&answered.latency)),
        ];
        if let Some(batch_stats) = &answered.stats {
            stats.extend([
                ("certified".to_string(), Json::num(batch_stats.certified as f64)),
                ("certify_failures".to_string(), Json::num(batch_stats.certify_failures as f64)),
                ("index_builds".to_string(), Json::num(batch_stats.index_builds as f64)),
                ("threads".to_string(), Json::num(batch_stats.threads as f64)),
                ("wall_us".to_string(), Json::num(batch_stats.wall.as_micros() as f64)),
            ]);
        }
        body.push_str(&Json::Obj(stats).render());
        body.push('}');
        Response::json(200, body)
    }
}

/// Renders one successful engine answer as a JSON object string.  The
/// center is an array of `D` coordinates; `version` stamps the dataset
/// version the answer was computed (and certified) at, so clients of a
/// mutable dataset can detect stale reads.
fn render_answer<const D: usize>(
    answer: &mrs_core::engine::BatchAnswer<D>,
    certified: bool,
    version: u64,
) -> String {
    let center_of =
        |center: &mrs_geom::Point<D>| Json::Arr((0..D).map(|i| Json::num(center[i])).collect());
    // Answers routed by the `auto` meta-solver carry their routing record:
    // the solver it picked plus the predicted and actual work.
    let auto_of = |stats: &mrs_core::engine::SolveStats| {
        stats.auto_choice.map(|choice| {
            Json::Obj(vec![
                ("choice".into(), Json::str(choice)),
                ("predicted_work".into(), Json::num(stats.auto_predicted_work.unwrap_or(0.0))),
                ("actual_work".into(), Json::num(stats.auto_actual_work.unwrap_or(0.0))),
            ])
        })
    };
    match answer {
        mrs_core::engine::BatchAnswer::Weighted(report) => {
            let mut fields = vec![
                ("kind".into(), Json::str("weighted")),
                ("solver".into(), Json::str(report.solver)),
                ("center".into(), center_of(&report.placement.center)),
                ("value".into(), Json::num(report.placement.value)),
                ("guarantee".into(), Json::str(report.guarantee.to_string())),
                ("certified".into(), Json::Bool(certified)),
                ("version".into(), Json::num(version as f64)),
                ("solve_us".into(), Json::num(report.stats.elapsed.as_micros() as f64)),
            ];
            if let Some(auto) = auto_of(&report.stats) {
                fields.push(("auto".into(), auto));
            }
            Json::Obj(fields).render()
        }
        mrs_core::engine::BatchAnswer::Colored(report) => {
            let mut fields = vec![
                ("kind".into(), Json::str("colored")),
                ("solver".into(), Json::str(report.solver)),
                ("center".into(), center_of(&report.placement.center)),
                ("distinct".into(), Json::num(report.placement.distinct as f64)),
                ("guarantee".into(), Json::str(report.guarantee.to_string())),
                ("certified".into(), Json::Bool(certified)),
                ("version".into(), Json::num(version as f64)),
                ("solve_us".into(), Json::num(report.stats.elapsed.as_micros() as f64)),
            ];
            if let Some(auto) = auto_of(&report.stats) {
                fields.push(("auto".into(), auto));
            }
            Json::Obj(fields).render()
        }
        mrs_core::engine::BatchAnswer::Failed(_) => {
            unreachable!("render_answer is only called on successful answers")
        }
    }
}

/// The value of one `?name=value` query parameter of a request target.
fn query_param<'t>(target: &'t str, name: &str) -> Option<&'t str> {
    let (_, query) = target.split_once('?')?;
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=')?;
        (key == name).then_some(value)
    })
}

/// The one structured stderr line the slow-query log emits per offending
/// query: `key=value` pairs, grep- and cut-friendly.
fn slow_query_line(trace: &QueryTrace) -> String {
    let mut line = format!(
        "slow-query trace={} dataset={} query={} solver={}",
        trace.id, trace.dataset, trace.query, trace.solver
    );
    if let Some(choice) = trace.routed {
        line.push_str(&format!(" routed={choice}"));
    }
    line.push_str(&format!(" total_us={}", trace.phase_total().as_micros()));
    for phase in Phase::ALL {
        line.push_str(&format!(" {}_us={}", phase.name(), trace.phase(phase).as_micros()));
    }
    line.push_str(&format!(
        " ok={} candidates={} cells={}",
        trace.ok, trace.candidates_examined, trace.grid_cells_visited
    ));
    line
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, Json::Obj(vec![("error".into(), Json::str(message))]).render())
}

/// Reads an optional request field: absent is `None`, and a present value
/// `as_type` does not accept is an error naming the field, so a mistyped
/// field is refused instead of being read as absent.
fn optional_field<'a, T>(
    body: &'a Json,
    field: &str,
    expected: &str,
    as_type: fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    body.get(field)
        .map(|value| as_type(value).ok_or_else(|| format!("`{field}` must be {expected}")))
        .transpose()
}

/// The `"cache"` flag of a `/query` or `/batch` body: on unless it is
/// `false`.
fn cache_flag(body: &Json) -> Result<bool, String> {
    Ok(optional_field(body, "cache", "true or false", Json::as_bool)?.unwrap_or(true))
}

fn parse_body(request: &Request) -> Result<Json, Box<Response>> {
    let Some(text) = request.body_text() else {
        return Err(Box::new(error_response(400, "request body must be UTF-8 JSON")));
    };
    Json::parse(text).map_err(|e| Box::new(error_response(400, &e.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Service {
        Service::new(ServerConfig { seed: Some(42), ..ServerConfig::default() })
    }

    fn post(target: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            target: target.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(target: &str) -> Request {
        Request { method: "GET".into(), target: target.into(), headers: Vec::new(), body: vec![] }
    }

    const CSV: &str = "0,0,1,0\n0.4,0,1,1\n0,0.4,1,2\n9,9,2,0\n";

    #[test]
    fn health_solvers_and_dataset_lifecycle() {
        let service = service();
        let health = service.handle(&get("/healthz"));
        assert_eq!(health.status, 200);
        let listing = service.handle(&get("/solvers"));
        let parsed = Json::parse(std::str::from_utf8(&listing.body).unwrap()).unwrap();
        let names: Vec<&str> = parsed
            .get("solvers")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"exact-disk-2d"), "{names:?}");
        assert!(names.contains(&"batched-interval-1d"), "{names:?}");

        assert_eq!(service.handle(&post("/datasets/demo", CSV)).status, 200);
        let listed = service.handle(&get("/datasets"));
        assert!(std::str::from_utf8(&listed.body).unwrap().contains("\"demo\""));
        // Bad CSV and bad names are clean 400s.
        assert_eq!(service.handle(&post("/datasets/demo", "zap\n")).status, 400);
        assert_eq!(service.handle(&post("/datasets/bad name", CSV)).status, 400);
        // Unknown routes 404, wrong methods 405.
        assert_eq!(service.handle(&get("/frob")).status, 404);
        let del = Request {
            method: "DELETE".into(),
            target: "/query".into(),
            headers: vec![],
            body: vec![],
        };
        assert_eq!(service.handle(&del).status, 405);
    }

    #[test]
    fn query_computes_then_hits_the_cache() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        let body = r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        let first = service.handle(&post("/query", body));
        assert_eq!(first.status, 200, "{:?}", String::from_utf8_lossy(&first.body));
        let parsed = Json::parse(std::str::from_utf8(&first.body).unwrap()).unwrap();
        assert_eq!(parsed.get("cached").unwrap().as_bool(), Some(false));
        let answer = parsed.get("answer").unwrap();
        assert_eq!(answer.get("value").unwrap().as_f64(), Some(3.0));
        assert_eq!(answer.get("certified").unwrap().as_bool(), Some(true));

        let second = service.handle(&post("/query", body));
        let parsed = Json::parse(std::str::from_utf8(&second.body).unwrap()).unwrap();
        assert_eq!(parsed.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("answer").unwrap().get("value").unwrap().as_f64(), Some(3.0));
        assert_eq!(service.cache().counters().hits, 1);

        // cache:false bypasses the cache (the warm-index measurement path).
        let bypass =
            r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0},"cache":false}"#;
        let third = service.handle(&post("/query", bypass));
        let parsed = Json::parse(std::str::from_utf8(&third.body).unwrap()).unwrap();
        assert_eq!(parsed.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(service.cache().counters().hits, 1, "bypass must not touch the cache");

        // Reloading the dataset bumps the epoch: the old entry cannot match.
        service.handle(&post("/datasets/demo", CSV));
        let fourth = service.handle(&post("/query", body));
        let parsed = Json::parse(std::str::from_utf8(&fourth.body).unwrap()).unwrap();
        assert_eq!(parsed.get("cached").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn query_error_paths_are_typed_statuses() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        // Unknown dataset → 404; unknown solver / malformed shape → 400;
        // well-formed but undispatchable → 422.
        let cases = [
            (r#"{"dataset":"nope","solver":"exact-disk-2d","shape":{"ball":1}}"#, 404),
            (r#"{"dataset":"demo","solver":"frob","shape":{"ball":1}}"#, 400),
            (r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":-1}}"#, 400),
            (r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"box":[1]}}"#, 400),
            (r#"{"dataset":"demo","solver":"exact-disk-2d"}"#, 400),
            (r#"not json"#, 400),
            (r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"box":[1,1]}}"#, 422),
            (r#"{"dataset":"demo","solver":"batched-interval-1d","shape":{"ball":1}}"#, 422),
        ];
        for (body, status) in cases {
            let response = service.handle(&post("/query", body));
            assert_eq!(
                response.status,
                status,
                "{body} → {}",
                String::from_utf8_lossy(&response.body)
            );
        }
    }

    /// A field that is present but of the wrong type is a 400 naming it on
    /// both query endpoints: `"cache":"false"` or `"cache":0` must not
    /// silently read as "use the cache", nor `"problem":7` as no problem
    /// kind.  The refused requests leave the cache counters where they were.
    #[test]
    fn wrongly_typed_fields_are_400s_naming_the_field() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        let warm = r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        assert_eq!(service.handle(&post("/query", warm)).status, 200);
        let cache_counters = || {
            let stats = service.handle(&get("/stats"));
            let stats = Json::parse(std::str::from_utf8(&stats.body).unwrap()).unwrap();
            stats.get("cache").unwrap().clone()
        };
        let before = cache_counters();
        let query = r#""solver":"exact-disk-2d","shape":{"ball":1.0}"#;
        let cases = [
            ("/query", format!(r#"{{"dataset":"demo",{query},"cache":"false"}}"#), "`cache`"),
            ("/query", format!(r#"{{"dataset":"demo",{query},"cache":0}}"#), "`cache`"),
            ("/query", format!(r#"{{"dataset":"demo",{query},"problem":7}}"#), "`problem`"),
            (
                "/batch",
                format!(r#"{{"dataset":"demo","queries":[{{{query}}}],"cache":0}}"#),
                "`cache`",
            ),
            (
                "/batch",
                format!(r#"{{"dataset":"demo","queries":[{{{query},"problem":7}}]}}"#),
                "`problem`",
            ),
        ];
        for (target, body, field) in cases {
            let response = service.handle(&post(target, &body));
            let text = String::from_utf8_lossy(&response.body);
            assert_eq!(response.status, 400, "{target} {body} → {text}");
            assert!(text.contains(field), "{target} {body} → {text}");
        }
        assert_eq!(cache_counters(), before, "a refused request must not touch the cache");
    }

    #[test]
    fn batch_merges_hits_and_misses_in_order() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        // Warm the cache with one query.
        service.handle(&post(
            "/query",
            r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#,
        ));
        let body = r#"{"dataset":"demo","queries":[
            {"solver":"exact-disk-2d","shape":{"ball":1.0}},
            {"solver":"exact-rect-2d","shape":{"box":[1.0,1.0]}},
            {"solver":"output-sensitive-colored-disk","shape":{"ball":1.0}},
            {"solver":"exact-disk-2d","shape":{"ball":0.1}}
        ]}"#;
        let response = service.handle(&post("/batch", body));
        assert_eq!(response.status, 200);
        let parsed = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let answers = parsed.get("answers").unwrap().as_arr().unwrap();
        assert_eq!(answers.len(), 4);
        assert_eq!(answers[0].get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(answers[1].get("cached").unwrap().as_bool(), Some(false));
        let a = |i: usize| answers[i].get("answer").unwrap();
        assert_eq!(a(0).get("value").unwrap().as_f64(), Some(3.0));
        assert_eq!(a(1).get("value").unwrap().as_f64(), Some(3.0));
        assert_eq!(a(2).get("distinct").unwrap().as_f64(), Some(3.0));
        assert_eq!(a(3).get("value").unwrap().as_f64(), Some(2.0));
        let stats = parsed.get("stats").unwrap();
        assert_eq!(stats.get("queries").unwrap().as_f64(), Some(4.0));
        assert_eq!(stats.get("cache_hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("executed").unwrap().as_f64(), Some(3.0));
        assert_eq!(stats.get("certified").unwrap().as_f64(), Some(3.0));
        assert_eq!(stats.get("certify_failures").unwrap().as_f64(), Some(0.0));

        // A second identical batch is served fully from cache.
        let again = service.handle(&post("/batch", body));
        let parsed = Json::parse(std::str::from_utf8(&again.body).unwrap()).unwrap();
        let stats = parsed.get("stats").unwrap();
        assert_eq!(stats.get("cache_hits").unwrap().as_f64(), Some(4.0));
        assert_eq!(stats.get("executed").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn mutations_bump_versions_and_invalidate_fine_grained() {
        let service = service();
        // A base big enough that a few mutations stay below the compaction
        // threshold.
        let csv: String = (0..40).map(|i| format!("{},{},1,{}\n", i, i, i % 4)).collect();
        service.handle(&post("/datasets/demo", &csv));
        service.handle(&post("/datasets/other", &csv));

        // Warm the cache on both datasets.
        let q = |name: &str| {
            format!(r#"{{"dataset":"{name}","solver":"exact-disk-2d","shape":{{"ball":1.0}}}}"#)
        };
        let first = service.handle(&post("/query", &q("demo")));
        let parsed = Json::parse(std::str::from_utf8(&first.body).unwrap()).unwrap();
        assert_eq!(parsed.get("answer").unwrap().get("version").unwrap().as_f64(), Some(1.0));
        service.handle(&post("/query", &q("other")));
        assert_eq!(service.cache().counters().entries, 2);

        // Mutate `demo`: a cluster of three points lands at (0.2, 0.2).
        let mutate =
            service.handle(&post("/datasets/demo/insert", "0.2,0.2,5\n0.3,0.2,5\n0.2,0.3,5,9\n"));
        assert_eq!(mutate.status, 200, "{:?}", String::from_utf8_lossy(&mutate.body));
        let parsed = Json::parse(std::str::from_utf8(&mutate.body).unwrap()).unwrap();
        let mutated = parsed.get("mutated").unwrap();
        assert_eq!(mutated.get("inserted").unwrap().as_f64(), Some(3.0));
        assert_eq!(mutated.get("version").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            mutated.get("cache_invalidated").unwrap().as_f64(),
            Some(1.0),
            "only demo's stale entry is purged, not other's"
        );
        assert_eq!(parsed.get("dataset").unwrap().get("version").unwrap().as_f64(), Some(2.0));

        // The same query now recomputes at version 2 and sees the new mass.
        let after = service.handle(&post("/query", &q("demo")));
        let parsed = Json::parse(std::str::from_utf8(&after.body).unwrap()).unwrap();
        assert_eq!(
            parsed.get("cached").unwrap().as_bool(),
            Some(false),
            "stale answers never replay"
        );
        let answer = parsed.get("answer").unwrap();
        assert_eq!(answer.get("version").unwrap().as_f64(), Some(2.0));
        assert_eq!(answer.get("certified").unwrap().as_bool(), Some(true));
        assert!(
            answer.get("value").unwrap().as_f64().unwrap() >= 17.0,
            "the inserted cluster wins"
        );
        // `other` still serves its version-1 cache entry.
        let other = service.handle(&post("/query", &q("other")));
        let parsed = Json::parse(std::str::from_utf8(&other.body).unwrap()).unwrap();
        assert_eq!(parsed.get("cached").unwrap().as_bool(), Some(true));

        // Deletes remove the cluster again; a repeated delete misses.
        let del = service.handle(&post("/datasets/demo/delete", "0.2,0.2\n0.3,0.2\n0.2,0.3\n"));
        let parsed = Json::parse(std::str::from_utf8(&del.body).unwrap()).unwrap();
        assert_eq!(parsed.get("mutated").unwrap().get("deleted").unwrap().as_f64(), Some(3.0));
        let del = service.handle(&post("/datasets/demo/delete", "0.2,0.2\n"));
        let parsed = Json::parse(std::str::from_utf8(&del.body).unwrap()).unwrap();
        assert_eq!(parsed.get("mutated").unwrap().get("missed").unwrap().as_f64(), Some(1.0));

        // Error paths: unknown dataset 404, bad body 400, bad action 404.
        assert_eq!(service.handle(&post("/datasets/nope/insert", "1,1\n")).status, 404);
        assert_eq!(service.handle(&post("/datasets/demo/insert", "zap\n")).status, 400);
        assert_eq!(service.handle(&post("/datasets/demo/insert", "# empty\n")).status, 400);
        assert_eq!(service.handle(&post("/datasets/demo/frob", "1,1\n")).status, 404);

        // /stats surfaces version, delta, compactions and invalidations.
        let stats = service.handle(&get("/stats"));
        let parsed = Json::parse(std::str::from_utf8(&stats.body).unwrap()).unwrap();
        let datasets = parsed.get("datasets").unwrap().as_arr().unwrap();
        let demo =
            datasets.iter().find(|d| d.get("name").and_then(Json::as_str) == Some("demo")).unwrap();
        assert_eq!(demo.get("version").unwrap().as_f64(), Some(4.0));
        assert!(demo.get("delta").unwrap().as_f64().is_some());
        assert!(demo.get("compactions").unwrap().as_f64().is_some());
        let cache = parsed.get("cache").unwrap();
        assert!(cache.get("invalidations").unwrap().as_f64().unwrap() >= 1.0);
        let endpoints = parsed.get("endpoints").unwrap().as_arr().unwrap();
        let mutate_track = endpoints
            .iter()
            .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("mutate"))
            .expect("mutate endpoint is tracked");
        assert!(mutate_track.get("requests").unwrap().as_f64().unwrap() >= 6.0);
    }

    #[test]
    fn dynamic_ball_queries_follow_mutations_without_rebuilds() {
        let service = service();
        let csv: String = (0..30).map(|i| format!("{},0\n", 0.02 * i as f64)).collect();
        service.handle(&post("/datasets/demo", &csv));
        let q = r#"{"dataset":"demo","solver":"dynamic-ball","shape":{"ball":1.0},"cache":false}"#;
        let first = service.handle(&post("/query", q));
        assert_eq!(first.status, 200, "{:?}", String::from_utf8_lossy(&first.body));
        let parsed = Json::parse(std::str::from_utf8(&first.body).unwrap()).unwrap();
        let v1 = parsed.get("answer").unwrap().get("value").unwrap().as_f64().unwrap();
        assert_eq!(v1, 30.0);
        // Insert a far, heavier cluster: the maintained tracker must follow.
        let body: String = (0..8).map(|i| format!("{},50,10\n", 50.0 + 0.01 * i as f64)).collect();
        service.handle(&post("/datasets/demo/insert", &body));
        let second = service.handle(&post("/query", q));
        let parsed = Json::parse(std::str::from_utf8(&second.body).unwrap()).unwrap();
        let answer = parsed.get("answer").unwrap();
        assert_eq!(answer.get("value").unwrap().as_f64(), Some(80.0));
        assert_eq!(answer.get("version").unwrap().as_f64(), Some(2.0));
        assert_eq!(answer.get("certified").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn stats_aggregate_index_work_counters() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        let examined = || service.metrics().get(Counter::CandidatesExamined);
        assert_eq!(examined(), 0);
        let body =
            r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0},"cache":false}"#;
        assert_eq!(service.handle(&post("/query", body)).status, 200);
        let after_one = examined();
        assert!(after_one > 0, "the disk sweep must report grid work");
        assert!(service.metrics().get(Counter::GridCellsVisited) > 0);
        // The counters surface on /stats under `work`.
        let response = service.handle(&get("/stats"));
        let parsed = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let work = parsed.get("work").expect("stats carries work counters");
        assert_eq!(work.get("candidates_examined").and_then(Json::as_f64), Some(after_one as f64));
        // The first cached query computes (work doubles); its repeat is a
        // cache hit, executes nothing, and adds nothing.
        let cached = r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        service.handle(&post("/query", cached));
        assert_eq!(examined(), 2 * after_one);
        service.handle(&post("/query", cached));
        assert_eq!(examined(), 2 * after_one);
    }

    #[test]
    fn resident_index_is_built_once_across_requests() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        let body =
            r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0},"cache":false}"#;
        service.handle(&post("/query", body));
        let builds_after_first = service.catalog().get("demo").unwrap().index_builds();
        for _ in 0..10 {
            assert_eq!(service.handle(&post("/query", body)).status, 200);
        }
        let dataset = service.catalog().get("demo").unwrap();
        assert_eq!(
            dataset.index_builds(),
            builds_after_first,
            "the resident index must be built exactly once"
        );
        assert_eq!(dataset.requests(), 11);
    }

    #[test]
    fn every_response_carries_a_request_id_and_answers_echo_it() {
        let service = service();
        let health = service.handle(&get("/healthz"));
        let rid_of = |response: &Response| {
            response
                .headers
                .iter()
                .find(|(name, _)| *name == "X-Request-Id")
                .map(|(_, value)| value.clone())
                .expect("every response is stamped")
        };
        assert_eq!(rid_of(&health), "r-000001");
        // Errors are stamped too.
        assert_eq!(rid_of(&service.handle(&get("/frob"))), "r-000002");

        service.handle(&post("/datasets/demo", CSV));
        let body = r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        let computed = service.handle(&post("/query", body));
        let rid = rid_of(&computed);
        let parsed = Json::parse(std::str::from_utf8(&computed.body).unwrap()).unwrap();
        assert_eq!(parsed.get("trace").and_then(Json::as_str), Some(rid.as_str()));
        // Cache hits echo their own request's id, not the computing one's.
        let hit = service.handle(&post("/query", body));
        let parsed = Json::parse(std::str::from_utf8(&hit.body).unwrap()).unwrap();
        assert_eq!(parsed.get("trace").and_then(Json::as_str), Some(rid_of(&hit).as_str()));
    }

    #[test]
    fn executed_queries_leave_retrievable_traces() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        let body = r#"{"dataset":"demo","queries":[
            {"solver":"exact-disk-2d","shape":{"ball":1.0}},
            {"solver":"auto","shape":{"ball":0.7}}
        ]}"#;
        let response = service.handle(&post("/batch", body));
        assert_eq!(response.status, 200);
        let rid = response
            .headers
            .iter()
            .find(|(name, _)| *name == "X-Request-Id")
            .map(|(_, value)| value.clone())
            .unwrap();

        // Both executed queries left one trace each under the request id.
        let traces = service.handle(&get(&format!("/debug/traces?id={rid}")));
        let parsed = Json::parse(std::str::from_utf8(&traces.body).unwrap()).unwrap();
        let listed = parsed.get("traces").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), 2, "one trace per executed query");
        for (i, trace) in listed.iter().enumerate() {
            assert_eq!(trace.get("trace").and_then(Json::as_str), Some(rid.as_str()));
            assert_eq!(trace.get("dataset").and_then(Json::as_str), Some("demo"));
            assert_eq!(trace.get("query").and_then(Json::as_f64), Some(i as f64));
            assert_eq!(trace.get("ok").and_then(Json::as_bool), Some(true));
            let phases = trace.get("phases_us").unwrap();
            assert!(phases.get("solve").and_then(Json::as_f64).is_some());
        }
        assert_eq!(listed[1].get("solver").and_then(Json::as_str), Some("auto"));
        assert!(listed[1].get("routed").and_then(Json::as_str).is_some());

        // Cache hits execute nothing and leave no trace.
        let before = service.traces().snapshot().len();
        service.handle(&post("/batch", body));
        assert_eq!(service.traces().snapshot().len(), before);

        // Per-solver and per-dataset histograms got the samples.
        let metrics = service.handle(&get("/metrics"));
        let text = std::str::from_utf8(&metrics.body).unwrap();
        assert!(text.contains("maxrs_solver_duration_seconds_count{solver=\"auto\"} 1"), "{text}");
        assert!(text.contains("maxrs_solver_duration_seconds_count{solver=\"exact-disk-2d\"} 1"));
        assert!(text.contains("maxrs_dataset_query_duration_seconds_count{dataset=\"demo\"} 2"));
        assert!(text.contains("maxrs_auto_picks_total{choice=\""), "{text}");
    }

    #[test]
    fn metrics_serve_prometheus_text() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        let q = r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        service.handle(&post("/query", q));
        service.handle(&post("/query", q)); // cache hit
        let response = service.handle(&get("/metrics"));
        assert_eq!(response.status, 200);
        assert!(response.content_type.starts_with("text/plain"));
        let text = std::str::from_utf8(&response.body).unwrap();
        assert!(text.contains("# TYPE maxrs_request_duration_seconds histogram"));
        assert!(text.contains("maxrs_requests_total{endpoint=\"query\"} 2"));
        assert!(text.contains("maxrs_solver_duration_seconds_count{solver=\"exact-disk-2d\"} 1"));
        assert!(text.contains("maxrs_dataset_query_duration_seconds_count{dataset=\"demo\"} 1"));
        assert!(text.contains("maxrs_cache_hits_total 1"));
        assert!(text.contains("maxrs_dataset_points{dataset=\"demo\"} 4"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn stats_latency_reports_p99_and_slow_query_lines_format() {
        let service = service();
        service.handle(&get("/healthz"));
        let stats = service.handle(&get("/stats"));
        let parsed = Json::parse(std::str::from_utf8(&stats.body).unwrap()).unwrap();
        let endpoints = parsed.get("endpoints").unwrap().as_arr().unwrap();
        for endpoint in endpoints {
            assert!(
                endpoint.get("latency").unwrap().get("p99_us").is_some(),
                "every endpoint latency carries p99_us"
            );
        }

        let mut trace = QueryTrace {
            id: "r-000007".into(),
            dataset: "demo".into(),
            query: 3,
            solver: "auto".into(),
            routed: Some("exact-disk-2d"),
            ok: true,
            ..QueryTrace::default()
        };
        trace.set_phase(Phase::Solve, Duration::from_micros(1500));
        let line = slow_query_line(&trace);
        assert!(line.starts_with("slow-query trace=r-000007 dataset=demo query=3 solver=auto"));
        assert!(line.contains("routed=exact-disk-2d"));
        assert!(line.contains("total_us=1500"));
        assert!(line.contains("solve_us=1500"));
    }

    #[test]
    fn line_datasets_serve_interval_queries_off_the_resident_line() {
        let service = service();
        // 1-D upload: x[,weight] records, `?dim=1`.
        let csv = "0\n1\n1.5\n2\n10,4\n";
        let response = service.handle(&post("/datasets/ticks?dim=1", csv));
        assert_eq!(response.status, 200, "{:?}", String::from_utf8_lossy(&response.body));
        let parsed = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(parsed.get("dataset").unwrap().get("dim").unwrap().as_f64(), Some(1.0));

        // The Theorem 1.3 batched solver answers off the resident sorted
        // line; `{"interval": L}` sugar is a ball of radius L/2.
        let body = r#"{"dataset":"ticks","solver":"batched-interval-1d","shape":{"interval":2.0},"cache":false}"#;
        let first = service.handle(&post("/query", body));
        assert_eq!(first.status, 200, "{:?}", String::from_utf8_lossy(&first.body));
        let parsed = Json::parse(std::str::from_utf8(&first.body).unwrap()).unwrap();
        let answer = parsed.get("answer").unwrap();
        // Points 0,1,1.5,2 fit in one length-2 interval: weight 4.
        assert_eq!(answer.get("value").unwrap().as_f64(), Some(4.0));
        assert_eq!(answer.get("certified").unwrap().as_bool(), Some(true));
        assert_eq!(answer.get("center").unwrap().as_arr().unwrap().len(), 1);

        // Warm repeats must not rebuild the sorted line / Fenwick tree.
        let builds = service.catalog().get("ticks").unwrap().index_builds();
        for _ in 0..5 {
            assert_eq!(service.handle(&post("/query", body)).status, 200);
        }
        assert_eq!(service.catalog().get("ticks").unwrap().index_builds(), builds);

        // The independent exact 1-D solver agrees.
        let exact = r#"{"dataset":"ticks","solver":"exact-interval-1d","shape":{"ball":1.0}}"#;
        let response = service.handle(&post("/query", exact));
        let parsed = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(parsed.get("answer").unwrap().get("value").unwrap().as_f64(), Some(4.0));

        // Box queries need a planar dataset; planar-only solvers fail typed.
        let boxy = r#"{"dataset":"ticks","solver":"exact-rect-2d","shape":{"box":[1,1]}}"#;
        assert_eq!(service.handle(&post("/query", boxy)).status, 400);
        let wrong_dim = r#"{"dataset":"ticks","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        assert_eq!(service.handle(&post("/query", wrong_dim)).status, 422);
        // And a bad dim parameter is a clean 400.
        assert_eq!(service.handle(&post("/datasets/x?dim=7", csv)).status, 400);
    }

    fn post_with_header(target: &str, body: &str, name: &str, value: &str) -> Request {
        Request {
            method: "POST".into(),
            target: target.into(),
            headers: vec![(name.to_string(), value.to_string())],
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn expired_deadlines_return_typed_504_and_never_cache() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        let body = r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        // `X-Deadline-Ms: 0` is expired by the time the executor runs.
        let timed_out = service.handle(&post_with_header("/query", body, "x-deadline-ms", "0"));
        assert_eq!(timed_out.status, 504, "{:?}", String::from_utf8_lossy(&timed_out.body));
        let text = std::str::from_utf8(&timed_out.body).unwrap();
        assert!(text.contains("exceeded its deadline"), "{text}");
        assert_eq!(service.metrics().get(Counter::DeadlineExceeded), 1);
        // The expired answer must not have been cached: the same query
        // without a deadline computes fresh.
        let fresh = service.handle(&post("/query", body));
        assert_eq!(fresh.status, 200);
        let parsed = Json::parse(std::str::from_utf8(&fresh.body).unwrap()).unwrap();
        assert_eq!(parsed.get("cached").unwrap().as_bool(), Some(false));

        // The configured default applies when no header is present...
        let strict = Service::new(ServerConfig {
            seed: Some(42),
            request_timeout: Some(Duration::ZERO),
            ..ServerConfig::default()
        });
        strict.handle(&post("/datasets/demo", CSV));
        assert_eq!(strict.handle(&post("/query", body)).status, 504);
        // ...and a generous header overrides the strict default.
        let relaxed = strict.handle(&post_with_header("/query", body, "x-deadline-ms", "60000"));
        assert_eq!(relaxed.status, 200, "{:?}", String::from_utf8_lossy(&relaxed.body));

        // Batch deadline failures are per-answer error objects, flagged.
        let batch = r#"{"dataset":"demo","queries":[
            {"solver":"exact-disk-2d","shape":{"ball":1.0}}
        ],"cache":false}"#;
        let response = strict.handle(&post("/batch", batch));
        assert_eq!(response.status, 200);
        let parsed = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let answers = parsed.get("answers").unwrap().as_arr().unwrap();
        assert_eq!(answers[0].get("deadline_exceeded").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("stats").unwrap().get("failed").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn dynamic_ball_tracker_reads_honour_expired_deadlines() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        let body = r#"{"dataset":"demo","solver":"dynamic-ball","shape":{"ball":1.0}}"#;
        let timed_out = service.handle(&post_with_header("/query", body, "x-deadline-ms", "0"));
        assert_eq!(timed_out.status, 504, "{:?}", String::from_utf8_lossy(&timed_out.body));
        assert_eq!(service.metrics().get(Counter::DeadlineExceeded), 1);
        // The late tracker answer was neither served nor cached.
        let fresh = service.handle(&post("/query", body));
        assert_eq!(fresh.status, 200);
        let parsed = Json::parse(std::str::from_utf8(&fresh.body).unwrap()).unwrap();
        assert_eq!(parsed.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(parsed.get("answer").unwrap().get("certified").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn non_finite_mutation_bodies_are_refused_without_a_version_bump() {
        let service = service();
        service.handle(&post("/datasets/demo", CSV));
        service.handle(&post("/datasets/ticks?dim=1", "0\n1,2\n"));
        let bodies = [
            ("/datasets/demo/insert", "nan,0\n"),
            ("/datasets/demo/insert", "0,inf,1\n"),
            ("/datasets/demo/insert", "0,0,1e999\n"),
            ("/datasets/demo/delete", "nan,0\n"),
            ("/datasets/ticks/insert", "1e999\n"),
            ("/datasets/ticks/insert", "0,nan\n"),
            ("/datasets/ticks/delete", "-inf\n"),
        ];
        for (target, body) in bodies {
            let response = service.handle(&post(target, body));
            assert_eq!(response.status, 400, "{target} {body:?}");
        }
        for name in ["demo", "ticks"] {
            assert_eq!(service.catalog().get(name).unwrap().version(), 1, "{name}");
        }
    }

    #[test]
    fn panicking_solver_yields_well_formed_500_and_the_worker_survives() {
        let service = Service::new(ServerConfig {
            seed: Some(42),
            chaos_solver: true,
            ..ServerConfig::default()
        });
        service.handle(&post("/datasets/demo", CSV));
        let chaos = r#"{"dataset":"demo","solver":"chaos-panic","shape":{"ball":1.0}}"#;
        let response = service.handle(&post("/query", chaos));
        assert_eq!(response.status, 500);
        let parsed = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert!(parsed.get("error").and_then(Json::as_str).is_some(), "500s carry a JSON error");
        assert_eq!(service.metrics().get(Counter::Panics), 1);
        // The service keeps answering after the panic, and the in-flight
        // permit was released on the unwind path.
        assert_eq!(service.metrics().get(Counter::Inflight), 0);
        let body = r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        assert_eq!(service.handle(&post("/query", body)).status, 200);
    }

    #[test]
    fn saturated_inflight_window_sheds_with_retry_after() {
        let service = Service::new(ServerConfig {
            seed: Some(42),
            max_inflight: 1,
            ..ServerConfig::default()
        });
        service.handle(&post("/datasets/demo", CSV));
        let body = r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        // Occupy the only slot, as a concurrent in-flight request would.
        service.metrics().add(Counter::Inflight, 1);
        let shed = service.handle(&post("/query", body));
        assert_eq!(shed.status, 503, "{:?}", String::from_utf8_lossy(&shed.body));
        let retry_after = shed
            .headers
            .iter()
            .find(|(name, _)| *name == "Retry-After")
            .map(|(_, value)| value.parse::<u64>().unwrap())
            .expect("every shed carries Retry-After");
        assert!((1..=60).contains(&retry_after), "{retry_after}");
        assert_eq!(service.metrics().get(Counter::Shed), 1);
        // Shed responses are well-formed JSON errors.
        let parsed = Json::parse(std::str::from_utf8(&shed.body).unwrap()).unwrap();
        assert!(parsed.get("error").and_then(Json::as_str).is_some());
        // Non-compute endpoints are never shed.
        assert_eq!(service.handle(&get("/healthz")).status, 200);
        assert_eq!(service.handle(&get("/stats")).status, 200);
        // Releasing the slot restores service.
        service.metrics().sub(Counter::Inflight, 1);
        assert_eq!(service.handle(&post("/query", body)).status, 200);
        // /stats surfaces the overload block.
        let stats = service.handle(&get("/stats"));
        let parsed = Json::parse(std::str::from_utf8(&stats.body).unwrap()).unwrap();
        let overload = parsed.get("overload").expect("stats carries overload counters");
        assert_eq!(overload.get("shed").unwrap().as_f64(), Some(1.0));
        assert_eq!(overload.get("max_inflight").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn global_admission_never_holds_more_permits_than_the_limit() {
        // Eight threads race for a one-slot window; `held` counts the
        // permits held at once, which the gauge alone cannot show (a
        // rejected admission raises it briefly before rolling back).
        let service = Service::new(ServerConfig { max_inflight: 1, ..ServerConfig::default() });
        let held = AtomicU64::new(0);
        let most = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..500_000 {
                        if let Ok(permit) = service.admit_global() {
                            most.fetch_max(
                                held.fetch_add(1, Ordering::SeqCst) + 1,
                                Ordering::SeqCst,
                            );
                            held.fetch_sub(1, Ordering::SeqCst);
                            drop(permit);
                        }
                    }
                });
            }
        });
        assert_eq!(most.load(Ordering::SeqCst), 1, "two requests held the only in-flight slot");
    }

    #[test]
    fn saturated_dataset_window_sheds_but_leaves_other_datasets_alone() {
        let service = Service::new(ServerConfig {
            seed: Some(42),
            max_inflight: 64,
            max_inflight_per_dataset: 1,
            ..ServerConfig::default()
        });
        service.handle(&post("/datasets/demo", CSV));
        service.handle(&post("/datasets/other", CSV));
        // Occupy demo's only slot, as a concurrent request would.
        service
            .dataset_inflight
            .lock()
            .unwrap()
            .entry("demo".to_string())
            .or_default()
            .fetch_add(1, Ordering::AcqRel);
        let demo = r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        let other = r#"{"dataset":"other","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
        assert_eq!(service.handle(&post("/query", demo)).status, 503);
        assert_eq!(service.handle(&post("/query", other)).status, 200);
        assert_eq!(service.metrics().get(Counter::Shed), 1);
    }

    #[test]
    fn overload_watermark_degrades_auto_routing() {
        let service = Service::new(ServerConfig {
            seed: Some(42),
            max_inflight: 2,
            overload_watermark: 0.5,
            ..ServerConfig::default()
        });
        service.handle(&post("/datasets/demo", CSV));
        // One synthetic in-flight request + this one = 2 >= 0.5 * 2.
        service.metrics().add(Counter::Inflight, 1);
        let body = r#"{"dataset":"demo","solver":"auto","shape":{"ball":1.0},"cache":false}"#;
        let response = service.handle(&post("/query", body));
        assert_eq!(response.status, 200, "{:?}", String::from_utf8_lossy(&response.body));
        service.metrics().sub(Counter::Inflight, 1);
        assert!(service.metrics().get(Counter::Degraded) >= 1, "the degraded solve is counted");
        // The auto router was restricted to non-exact solvers.
        let parsed = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        let choice = parsed
            .get("answer")
            .unwrap()
            .get("auto")
            .expect("auto answers carry their routing record")
            .get("choice")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let listing = service.handle(&get("/solvers"));
        let parsed = Json::parse(std::str::from_utf8(&listing.body).unwrap()).unwrap();
        let guarantee = parsed
            .get("solvers")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(choice.as_str()))
            .unwrap()
            .get("guarantee")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_ne!(guarantee, "exact", "degraded routing avoids exact-tier solvers: {choice}");
        // The solve's trace is stamped degraded.
        let traces = service.traces().snapshot();
        assert!(traces.last().is_some_and(|t| t.degraded), "the trace records degradation");
    }
}
