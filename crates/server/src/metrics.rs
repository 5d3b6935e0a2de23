//! Server metrics: their storage, one declaration table, and the two views
//! rendered from it, `GET /stats` (JSON) and `GET /metrics` (Prometheus
//! text exposition).
//!
//! Every metric is declared once, as one entry of `METRICS`: where its
//! value comes from (a server counter or gauge, an endpoint, a run-time
//! labeled series, the answer cache, the configuration or a dataset), its
//! `/stats` location (group and key), and its Prometheus family (name,
//! `TYPE`, `HELP`).  Both renderers walk that table, so the two views
//! cannot drift apart.
//!
//! Recording is lock-free: counters and gauges are one array of atomics
//! indexed by `Counter`; latencies feed log-linear atomic [`Histogram`]s
//! (~1% relative error, cumulative since startup, so p99/p999 are real tail
//! quantiles); run-time labeled series take a read lock only to find (or,
//! once per label, insert) the label's cell.
//!
//! The exposition follows the Prometheus
//! [text format](https://prometheus.io/docs/instrumenting/exposition_formats/):
//! durations in seconds, label values escaped, and histograms as cumulative
//! `_bucket{le="..."}` series on the [`LE_BOUNDS_NS`] ladder, monotone by
//! construction ([`Histogram::cumulative_le`]) and ending in `le="+Inf"`
//! equal to `_count`.  Per-endpoint series render **all** endpoints always;
//! per-solver and per-dataset series appear once the label is observed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use mrs_core::engine::{Histogram, LatencySummary, Phase, QueryTrace};

use crate::cache::CacheCounters;
use crate::catalog::Dataset;
use crate::json::Json;
use crate::service::ServerConfig;

/// The endpoints the service tracks individually.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`.
    Healthz,
    /// `GET /solvers`.
    Solvers,
    /// `GET /datasets` and `POST /datasets/{name}`.
    Datasets,
    /// `POST /datasets/{name}/insert` and `POST /datasets/{name}/delete`.
    Mutate,
    /// `POST /query`.
    Query,
    /// `POST /batch`.
    Batch,
    /// `GET /stats`.
    Stats,
    /// Everything else: `/metrics`, `/debug/traces`, `/shutdown`, 404s and
    /// bad requests.
    Other,
}

/// All tracked endpoints, in `/stats` rendering order.
pub const ENDPOINTS: [Endpoint; 8] = [
    Endpoint::Healthz,
    Endpoint::Solvers,
    Endpoint::Datasets,
    Endpoint::Mutate,
    Endpoint::Query,
    Endpoint::Batch,
    Endpoint::Stats,
    Endpoint::Other,
];

impl Endpoint {
    /// The label used in `/stats`.
    pub fn name(&self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Solvers => "solvers",
            Endpoint::Datasets => "datasets",
            Endpoint::Mutate => "mutate",
            Endpoint::Query => "query",
            Endpoint::Batch => "batch",
            Endpoint::Stats => "stats",
            Endpoint::Other => "other",
        }
    }

    /// Classifies a request target path.
    pub fn of(target: &str) -> Endpoint {
        let path = target.split('?').next().unwrap_or(target);
        match path {
            "/healthz" => Endpoint::Healthz,
            "/solvers" => Endpoint::Solvers,
            "/query" => Endpoint::Query,
            "/batch" => Endpoint::Batch,
            "/stats" => Endpoint::Stats,
            // A mutation is /datasets/{name}/insert|delete with a non-empty
            // name; a dataset literally *named* "insert" uploads via
            // /datasets/insert (one segment) and stays under Datasets.
            p if p
                .strip_prefix("/datasets/")
                .and_then(|rest| rest.split_once('/'))
                .is_some_and(|(name, action)| {
                    !name.is_empty() && matches!(action, "insert" | "delete")
                }) =>
            {
                Endpoint::Mutate
            }
            p if p == "/datasets" || p.starts_with("/datasets/") => Endpoint::Datasets,
            _ => Endpoint::Other,
        }
    }

    /// The endpoint's slot in [`ENDPOINTS`] (const: the record hot path
    /// must not scan the table).  The variants are declared in that order.
    pub const fn index(&self) -> usize {
        *self as usize
    }
}

/// The server-wide counters and gauges: fixed slots of one atomic array.
/// Each slot is declared — help text, `/stats` key — by its entry in
/// [`METRICS`].
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    CandidatesExamined,
    GridCellsVisited,
    SieveRejected,
    AutoPredictedWork,
    AutoActualWork,
    Shed,
    DeadlineExceeded,
    Panics,
    Degraded,
    Inflight,
    Wakeups,
    ReadinessEvents,
    Accepted,
    Closed,
    MaxPipelineDepth,
    CoalescedWriteBytes,
    // Keep last: `COUNTERS` counts up to it.
    SpuriousWakeups,
}

const COUNTERS: usize = Counter::SpuriousWakeups as usize + 1;

/// Errors and a latency histogram for one endpoint.  The request count is
/// the histogram's sample count — every handled request records exactly one
/// latency.
#[derive(Default)]
struct EndpointTrack {
    errors: AtomicU64,
    latency: Histogram,
}

/// Cells keyed by a label value only known at run time (a solver, dataset
/// or `auto` choice).  Recording takes a read lock to find the label's cell;
/// only a label's first sample takes the write lock.
#[derive(Default)]
struct Labeled<T> {
    map: RwLock<BTreeMap<String, Arc<T>>>,
}

impl<T: Default> Labeled<T> {
    /// Records into `label`'s cell, inserting it on first use.
    fn with<R>(&self, label: &str, record: impl FnOnce(&T) -> R) -> R {
        if let Some(cell) = self.map.read().expect("labeled series poisoned").get(label) {
            return record(cell);
        }
        let mut map = self.map.write().expect("labeled series poisoned");
        record(map.entry(label.to_string()).or_default())
    }

    /// The labels and their cells, sorted by label.
    fn snapshot(&self) -> Vec<(String, Arc<T>)> {
        let map = self.map.read().expect("labeled series poisoned");
        map.iter().map(|(label, cell)| (label.clone(), Arc::clone(cell))).collect()
    }
}

/// The server's metric storage: uptime, the counter array, one track per
/// endpoint, and the run-time labeled series each executed query's trace
/// feeds.  Everything it holds is rendered through [`METRICS`].
pub(crate) struct Metrics {
    started: Instant,
    counters: [AtomicU64; COUNTERS],
    endpoints: [EndpointTrack; ENDPOINTS.len()],
    solver_time: Labeled<Histogram>,
    dataset_time: Labeled<Histogram>,
    auto_choices: Labeled<AtomicU64>,
}

impl Metrics {
    /// Fresh metrics; uptime starts now.
    pub(crate) fn new() -> Self {
        Self {
            started: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            endpoints: Default::default(),
            solver_time: Labeled::default(),
            dataset_time: Labeled::default(),
            auto_choices: Labeled::default(),
        }
    }

    /// Adds `n` to a counter or gauge and returns its value before the add.
    pub(crate) fn add(&self, counter: Counter, n: u64) -> u64 {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed)
    }

    /// Takes `n` back off a gauge.
    pub(crate) fn sub(&self, gauge: Counter, n: u64) {
        self.counters[gauge as usize].fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises a high-water mark to at least `n`.
    pub(crate) fn raise(&self, mark: Counter, n: u64) {
        self.counters[mark as usize].fetch_max(n, Ordering::Relaxed);
    }

    /// The current value of a counter or gauge.
    pub(crate) fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Records one handled request (lock-free).
    pub(crate) fn record(&self, endpoint: Endpoint, elapsed: Duration, ok: bool) {
        let track = &self.endpoints[endpoint.index()];
        if !ok {
            track.errors.fetch_add(1, Ordering::Relaxed);
        }
        track.latency.record(elapsed);
    }

    /// Records one executed query's trace: its solve time under the solver's
    /// registry name (`auto` records under `auto`), its end-to-end time
    /// under its dataset, and the solver `auto` routed it to.
    pub(crate) fn record_trace(&self, trace: &QueryTrace) {
        self.solver_time.with(&trace.solver, |hist| hist.record(trace.phase(Phase::Solve)));
        self.dataset_time.with(&trace.dataset, |hist| hist.record(trace.phase_total()));
        if let Some(choice) = trace.routed {
            self.auto_choices.with(choice, |picks| picks.fetch_add(1, Ordering::Relaxed));
        }
    }

    /// The latency histogram of one endpoint.
    pub(crate) fn endpoint_latency(&self, endpoint: Endpoint) -> &Histogram {
        &self.endpoints[endpoint.index()].latency
    }

    /// Time since the server started.
    pub(crate) fn uptime(&self) -> Duration {
        self.started.elapsed()
    }
}

/// One reading of a metric.
#[derive(Clone, Copy)]
enum Value<'a> {
    /// A count or gauge.
    Int(u64),
    /// A ratio or a setting.
    Float(f64),
    /// A duration: whole microseconds in `/stats`, seconds in `/metrics`.
    Time(Duration),
    /// A name that identifies a `/stats` row; never a sample.
    Text(&'a str),
    /// A latency histogram: a summary in `/stats`, bucket series in
    /// `/metrics`.
    Hist(&'a Histogram),
}

/// Where a metric's value comes from.
#[derive(Clone, Copy)]
enum Source {
    /// A server counter or gauge.
    Slot(Counter),
    /// Any other server-wide reading of a scrape: uptime, request totals,
    /// the answer cache or the configuration.
    Read(fn(&Scrape<'_>) -> Value<'static>),
    /// One reading per endpoint, for every endpoint (label `endpoint`).
    PerEndpoint(for<'a> fn(Endpoint, &'a EndpointTrack) -> Value<'a>),
    /// One reading per resident dataset (label `dataset`).
    PerDataset(for<'a> fn(&'a Dataset) -> Value<'a>),
    /// One histogram per run-time value of the named label.
    Timings(&'static str, fn(&Metrics) -> &Labeled<Histogram>),
    /// One count per run-time value of the named label; `/stats` shows the
    /// sum.
    Counts(&'static str, fn(&Metrics) -> &Labeled<AtomicU64>),
}

/// One metric's declaration: its source, its `/stats` location and its
/// Prometheus family.
struct Metric {
    source: Source,
    /// `/stats` group and key.  The group `""` is the top level; a
    /// per-endpoint or per-dataset group is an array of rows.
    stats: Option<(&'static str, &'static str)>,
    /// Prometheus family name and `TYPE`.
    family: Option<(&'static str, &'static str)>,
    /// The family's `HELP` text.
    help: &'static str,
}

impl Metric {
    /// A value `/stats` shows at `group.key` and `/metrics` does not.
    const fn stat(group: &'static str, key: &'static str, source: Source) -> Self {
        Metric { source, stats: Some((group, key)), family: None, help: "" }
    }

    const fn counter(name: &'static str, source: Source) -> Self {
        Metric { source, stats: None, family: Some((name, "counter")), help: "" }
    }

    const fn gauge(name: &'static str, source: Source) -> Self {
        Metric { source, stats: None, family: Some((name, "gauge")), help: "" }
    }

    const fn histogram(name: &'static str, source: Source) -> Self {
        Metric { source, stats: None, family: Some((name, "histogram")), help: "" }
    }

    const fn help(self, help: &'static str) -> Self {
        Metric { help, ..self }
    }

    /// Also shows the value in `/stats` at `group.key`.
    const fn at(self, group: &'static str, key: &'static str) -> Self {
        Metric { stats: Some((group, key)), ..self }
    }
}

/// Every server metric, in `/stats` order.  A new server-wide counter is a
/// [`Counter`] slot, one entry here, and the line that records it.
static METRICS: &[Metric] = {
    use Counter::*;
    use Source::*;
    use Value::*;
    &[
        Metric::gauge("maxrs_uptime_seconds", Read(|s| Time(s.uptime)))
            .help("Seconds since the server started.")
            .at("", "uptime_us"),
        Metric::stat("", "requests", Read(|s| Int(s.requests))),
        Metric::stat("", "requests_per_sec", Read(|s| Float(s.requests_per_sec()))),
        Metric::counter("maxrs_work_candidates_examined_total", Slot(CandidatesExamined))
            .help("Candidate points examined through spatial-index queries.")
            .at("work", "candidates_examined"),
        Metric::counter("maxrs_work_grid_cells_visited_total", Slot(GridCellsVisited))
            .help("Spatial-index grid cells visited.")
            .at("work", "grid_cells_visited"),
        Metric::counter("maxrs_work_sieve_rejected_total", Slot(SieveRejected))
            .help("Candidates the widened f32 sieve rejected before exact verification.")
            .at("work", "sieve_rejected"),
        Metric::counter("maxrs_auto_picks_total", Counts("choice", |m| &m.auto_choices))
            .help("Queries routed by the auto meta-solver, by chosen solver.")
            .at("auto", "picks"),
        Metric::counter("maxrs_auto_predicted_work_total", Slot(AutoPredictedWork))
            .help("Work units the auto cost model predicted for its picks.")
            .at("auto", "predicted_work"),
        Metric::counter("maxrs_auto_actual_work_total", Slot(AutoActualWork))
            .help("Work units the auto picks actually performed.")
            .at("auto", "actual_work"),
        Metric::counter("maxrs_shed_total", Slot(Shed))
            .help("Requests shed by admission control with a 503 + Retry-After.")
            .at("overload", "shed"),
        Metric::counter("maxrs_deadline_exceeded_total", Slot(DeadlineExceeded))
            .help("Queries that exceeded their compute deadline (typed 504s).")
            .at("overload", "deadline_exceeded"),
        Metric::counter("maxrs_panics_total", Slot(Panics))
            .help("Handler panics caught and converted to well-formed 500s.")
            .at("overload", "panics"),
        Metric::counter("maxrs_degraded_total", Slot(Degraded))
            .help("Executed requests solved in overload degradation mode.")
            .at("overload", "degraded"),
        Metric::gauge("maxrs_inflight", Slot(Inflight))
            .help("Compute requests (query/batch) currently being handled.")
            .at("overload", "inflight"),
        Metric::stat("overload", "max_inflight", Read(|s| Int(s.config.max_inflight as u64))),
        Metric::stat("overload", "queue_capacity", Read(|s| Int(s.config.queue_capacity as u64))),
        Metric::stat(
            "overload",
            "overload_watermark",
            Read(|s| Float(s.config.overload_watermark)),
        ),
        Metric::stat("reactor", "runtime", Read(|_| Text("epoll"))),
        Metric::counter("maxrs_reactor_wakeups_total", Slot(Wakeups))
            .help("epoll_wait returns that carried at least one readiness event.")
            .at("reactor", "wakeups"),
        Metric::counter("maxrs_reactor_readiness_events_total", Slot(ReadinessEvents))
            .help("Readiness events delivered across all reactor wakeups.")
            .at("reactor", "readiness_events"),
        Metric::counter("maxrs_reactor_connections_accepted_total", Slot(Accepted))
            .help("Connections accepted and registered by the reactor.")
            .at("reactor", "accepted"),
        Metric::counter("maxrs_reactor_connections_closed_total", Slot(Closed))
            .help("Reactor connections closed (clean, error, eviction, or shutdown).")
            .at("reactor", "closed"),
        Metric::gauge("maxrs_reactor_max_pipeline_depth", Slot(MaxPipelineDepth))
            .help("Highest unanswered pipelined request count seen on one connection.")
            .at("reactor", "max_pipeline_depth"),
        Metric::counter("maxrs_reactor_coalesced_write_bytes_total", Slot(CoalescedWriteBytes))
            .help("Bytes written as part of multi-response coalesced writes.")
            .at("reactor", "coalesced_write_bytes"),
        Metric::counter("maxrs_reactor_spurious_wakeups_total", Slot(SpuriousWakeups))
            .help("Readiness events that carried no work (stale tokens, empty eventfd edges).")
            .at("reactor", "spurious_wakeups"),
        Metric::stat("endpoints", "endpoint", PerEndpoint(|e, _| Text(e.name()))),
        Metric::counter("maxrs_requests_total", PerEndpoint(|_, t| Int(t.latency.count())))
            .help("Requests handled, by endpoint (includes errors).")
            .at("endpoints", "requests"),
        Metric::counter(
            "maxrs_request_errors_total",
            PerEndpoint(|_, t| Int(t.errors.load(Ordering::Relaxed))),
        )
        .help("Non-2xx responses, by endpoint.")
        .at("endpoints", "errors"),
        Metric::stat("endpoints", "total_us", PerEndpoint(|_, t| Time(t.latency.sum()))),
        Metric::histogram("maxrs_request_duration_seconds", PerEndpoint(|_, t| Hist(&t.latency)))
            .help("End-to-end request handling time, by endpoint.")
            .at("endpoints", "latency"),
        Metric::counter("maxrs_cache_hits_total", Read(|s| Int(s.cache.hits)))
            .help("Answer-cache lookups that hit.")
            .at("cache", "hits"),
        Metric::counter("maxrs_cache_misses_total", Read(|s| Int(s.cache.misses)))
            .help("Answer-cache lookups that missed.")
            .at("cache", "misses"),
        Metric::counter("maxrs_cache_evictions_total", Read(|s| Int(s.cache.evictions)))
            .help("Answer-cache entries evicted to make room.")
            .at("cache", "evictions"),
        Metric::counter("maxrs_cache_invalidations_total", Read(|s| Int(s.cache.invalidations)))
            .help("Answer-cache entries purged by dataset version invalidation.")
            .at("cache", "invalidations"),
        Metric::gauge("maxrs_cache_entries", Read(|s| Int(s.cache.entries as u64)))
            .help("Live answer-cache entries.")
            .at("cache", "entries"),
        Metric::gauge("maxrs_cache_capacity", Read(|s| Int(s.cache.capacity as u64)))
            .help("Answer-cache capacity (entries).")
            .at("cache", "capacity"),
        Metric::stat("cache", "hit_rate", Read(|s| Float(s.cache.hit_rate()))),
        Metric::stat("datasets", "name", PerDataset(|d| Text(d.name()))),
        Metric::gauge("maxrs_dataset_dim", PerDataset(|d| Int(d.dim() as u64)))
            .help("Ambient dimension of each resident dataset.")
            .at("datasets", "dim"),
        Metric::gauge("maxrs_dataset_epoch", PerDataset(|d| Int(d.epoch())))
            .help("Load epoch of each resident dataset (a reload takes a new one).")
            .at("datasets", "epoch"),
        Metric::gauge("maxrs_dataset_version", PerDataset(|d| Int(d.version())))
            .help("Current dataset version (bumps on every mutation).")
            .at("datasets", "version"),
        Metric::gauge("maxrs_dataset_delta", PerDataset(|d| Int(d.delta_size() as u64)))
            .help("Delta-overlay entries (live inserts plus tombstones) per dataset.")
            .at("datasets", "delta"),
        Metric::counter(
            "maxrs_dataset_compactions_total",
            PerDataset(|d| Int(d.compactions() as u64)),
        )
        .help("Delta-overlay compactions per dataset.")
        .at("datasets", "compactions"),
        Metric::counter(
            "maxrs_dataset_compaction_seconds_total",
            PerDataset(|d| Time(d.compaction_time())),
        )
        .help("Wall time spent materializing compacted generations, per dataset.")
        .at("datasets", "compaction_time_us"),
        Metric::gauge("maxrs_dataset_points", PerDataset(|d| Int(d.point_count() as u64)))
            .help("Live points per resident dataset.")
            .at("datasets", "points"),
        Metric::gauge("maxrs_dataset_sites", PerDataset(|d| Int(d.site_count() as u64)))
            .help("Live colored sites per resident dataset.")
            .at("datasets", "sites"),
        Metric::counter("maxrs_dataset_requests_total", PerDataset(|d| Int(d.requests())))
            .help("Queries answered per dataset, cache hits included.")
            .at("datasets", "requests"),
        Metric::counter(
            "maxrs_dataset_index_builds_total",
            PerDataset(|d| Int(d.index_builds() as u64)),
        )
        .help("Index structures built, per dataset.")
        .at("datasets", "index_builds"),
        Metric::counter(
            "maxrs_dataset_index_build_seconds_total",
            PerDataset(|d| Time(d.index_build_time())),
        )
        .help("Wall time spent building index structures, per dataset.")
        .at("datasets", "index_build_time_us"),
        Metric::histogram("maxrs_solver_duration_seconds", Timings("solver", |m| &m.solver_time))
            .help("Per-query solve time, by solver registry name."),
        Metric::histogram(
            "maxrs_dataset_query_duration_seconds",
            Timings("dataset", |m| &m.dataset_time),
        )
        .help("Per-query end-to-end time for executed (non-cache-hit) queries, by dataset."),
    ]
};

/// One reading of everything the two views render: the server's metrics,
/// the answer cache's counters, the resident datasets and the configured
/// limits.
pub(crate) struct Scrape<'a> {
    metrics: &'a Metrics,
    uptime: Duration,
    requests: u64,
    cache: CacheCounters,
    datasets: Vec<Arc<Dataset>>,
    config: &'a ServerConfig,
}

impl<'a> Scrape<'a> {
    /// Reads the uptime and request total once, so both views of this
    /// scrape agree on them.
    pub(crate) fn new(
        metrics: &'a Metrics,
        cache: CacheCounters,
        datasets: Vec<Arc<Dataset>>,
        config: &'a ServerConfig,
    ) -> Self {
        let requests = metrics.endpoints.iter().map(|track| track.latency.count()).sum();
        Scrape { metrics, uptime: metrics.uptime(), requests, cache, datasets, config }
    }

    fn requests_per_sec(&self) -> f64 {
        if self.uptime.is_zero() {
            0.0
        } else {
            self.requests as f64 / self.uptime.as_secs_f64()
        }
    }

    /// The one value of a server-wide source (`None` for per-row sources
    /// and for timings, which have no server-wide total).
    fn reading(&self, source: Source) -> Option<Value<'static>> {
        match source {
            Source::Slot(counter) => Some(Value::Int(self.metrics.get(counter))),
            Source::Read(read) => Some(read(self)),
            Source::Counts(_, series) => {
                let counts = series(self.metrics).snapshot();
                Some(Value::Int(counts.iter().map(|(_, n)| n.load(Ordering::Relaxed)).sum()))
            }
            Source::PerEndpoint(_) | Source::PerDataset(_) | Source::Timings(..) => None,
        }
    }

    /// `GET /stats`: every metric with a `/stats` location, as one JSON
    /// object.  A group renders whole at its first entry.
    pub(crate) fn stats_json(&self) -> Json {
        let mut top: Vec<(String, Json)> = Vec::new();
        for metric in METRICS {
            let Some((group, key)) = metric.stats else { continue };
            let (name, value) = match metric.source {
                _ if top.iter().any(|(rendered, _)| rendered == group) => continue,
                Source::PerEndpoint(_) => {
                    (group, Json::Arr(ENDPOINTS.iter().map(|&e| self.endpoint_json(e)).collect()))
                }
                Source::PerDataset(_) => {
                    (group, Json::Arr(self.datasets.iter().map(|d| dataset_json(d)).collect()))
                }
                source if group.is_empty() => match self.reading(source) {
                    Some(value) => (key, value.json()),
                    None => continue,
                },
                _ => {
                    let in_group = |m: &Metric| m.stats.is_some_and(|(g, _)| g == group);
                    (group, row(|m| if in_group(m) { self.reading(m.source) } else { None }))
                }
            };
            top.push((name.to_string(), value));
        }
        Json::Obj(top)
    }

    fn endpoint_json(&self, endpoint: Endpoint) -> Json {
        let track = &self.metrics.endpoints[endpoint.index()];
        row(|metric| match metric.source {
            Source::PerEndpoint(read) => Some(read(endpoint, track)),
            _ => None,
        })
    }

    /// `GET /metrics`: every metric with a Prometheus family, in the text
    /// exposition format.
    pub(crate) fn exposition(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        for metric in METRICS {
            let Some((name, kind)) = metric.family else { continue };
            let _ = writeln!(out, "# HELP {name} {}", metric.help);
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let label = |key: &str, value: &str| format!("{key}=\"{}\"", escape_label(value));
            let mut emit = |labels: &str, value: Value<'_>| value.sample(&mut out, name, labels);
            match metric.source {
                Source::PerEndpoint(read) => {
                    for endpoint in ENDPOINTS {
                        let track = &self.metrics.endpoints[endpoint.index()];
                        emit(&label("endpoint", endpoint.name()), read(endpoint, track));
                    }
                }
                Source::PerDataset(read) => {
                    for dataset in &self.datasets {
                        emit(&label("dataset", dataset.name()), read(dataset));
                    }
                }
                Source::Timings(key, series) => {
                    for (value, hist) in series(self.metrics).snapshot() {
                        emit(&label(key, &value), Value::Hist(&hist));
                    }
                }
                Source::Counts(key, series) => {
                    for (value, n) in series(self.metrics).snapshot() {
                        emit(&label(key, &value), Value::Int(n.load(Ordering::Relaxed)));
                    }
                }
                source => {
                    if let Some(value) = self.reading(source) {
                        emit("", value);
                    }
                }
            }
        }
        out
    }
}

/// A dataset's `/stats` row, which `/datasets`, uploads and mutation
/// responses print as its summary.
pub(crate) fn dataset_json(dataset: &Dataset) -> Json {
    row(|metric| match metric.source {
        Source::PerDataset(read) => Some(read(dataset)),
        _ => None,
    })
}

/// A `/stats` object: the key and value of every entry `pick` reads, in
/// table order.
fn row<'a>(pick: impl Fn(&Metric) -> Option<Value<'a>>) -> Json {
    Json::Obj(
        METRICS
            .iter()
            .filter_map(|metric| Some((metric.stats?.1.to_string(), pick(metric)?.json())))
            .collect(),
    )
}

impl Value<'_> {
    /// The value as `/stats` shows it.
    fn json(self) -> Json {
        match self {
            Value::Int(n) => Json::num(n as f64),
            Value::Float(x) => Json::num(x),
            Value::Time(d) => Json::num(d.as_micros() as f64),
            Value::Text(text) => Json::str(text),
            Value::Hist(hist) => latency_json(&hist.summary()),
        }
    }

    /// Writes the value's samples of family `name` under `labels` (as
    /// `key="value"` pairs, or empty).
    fn sample(self, out: &mut String, name: &str, labels: &str) {
        let value = match self {
            Value::Int(n) => n.to_string(),
            Value::Float(x) => x.to_string(),
            Value::Time(d) => fmt_secs(d),
            Value::Text(_) => return,
            Value::Hist(hist) => return histogram_series(out, name, labels, hist),
        };
        let braced = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
        let _ = writeln!(out, "{name}{braced} {value}");
    }
}

/// A [`LatencySummary`] as a JSON object (microsecond fields).
pub fn latency_json(summary: &LatencySummary) -> Json {
    let us = |d: Duration| Json::num(d.as_secs_f64() * 1e6);
    Json::Obj(vec![
        ("count".into(), Json::num(summary.count as f64)),
        ("min_us".into(), us(summary.min)),
        ("mean_us".into(), us(summary.mean)),
        ("p50_us".into(), us(summary.p50)),
        ("p95_us".into(), us(summary.p95)),
        ("p99_us".into(), us(summary.p99)),
        ("max_us".into(), us(summary.max)),
    ])
}

/// The `le` upper bounds (in nanoseconds) every exported duration histogram
/// uses: a {1, 2.5, 5} ladder per decade from 10 µs to 10 s.  Wide enough
/// that p999 of a slow solve still lands in a finite bucket, coarse enough
/// that one scrape stays small.
pub const LE_BOUNDS_NS: [u64; 19] = [
    10_000, // 10 µs
    25_000,
    50_000,
    100_000, // 100 µs
    250_000,
    500_000,
    1_000_000, // 1 ms
    2_500_000,
    5_000_000,
    10_000_000, // 10 ms
    25_000_000,
    50_000_000,
    100_000_000, // 100 ms
    250_000_000,
    500_000_000,
    1_000_000_000, // 1 s
    2_500_000_000,
    5_000_000_000,
    10_000_000_000, // 10 s
];

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn fmt_secs(d: Duration) -> String {
    format!("{:.9}", d.as_secs_f64())
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders one histogram as a cumulative `_bucket`/`_sum`/`_count` series
/// under `name{labels}` (pass `labels` as `key="value"` pairs, or empty).
fn histogram_series(out: &mut String, name: &str, labels: &str, hist: &Histogram) {
    let cumulative = hist.cumulative_le(&LE_BOUNDS_NS);
    let sep = if labels.is_empty() { "" } else { "," };
    for (bound, le_count) in LE_BOUNDS_NS.iter().zip(&cumulative) {
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {le_count}",
            trim_float(secs(*bound))
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", hist.count());
    Value::Time(hist.sum()).sample(out, &format!("{name}_sum"), labels);
    Value::Int(hist.count()).sample(out, &format!("{name}_count"), labels);
}

/// Renders a float bound without a trailing `.0` noise tail (`0.01`, `2.5`,
/// `10`) — stable text for the exposition parser and for humans.
fn trim_float(v: f64) -> String {
    let mut s = format!("{v:.9}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both views of `metrics` with no cache traffic, no datasets and the
    /// default limits.
    fn views(metrics: &Metrics) -> (Json, String) {
        let config = ServerConfig::default();
        let scrape = Scrape::new(metrics, CacheCounters::default(), Vec::new(), &config);
        (scrape.stats_json(), scrape.exposition())
    }

    fn endpoint_row(stats: &Json, name: &str) -> Json {
        let rows = stats.get("endpoints").and_then(Json::as_arr).expect("endpoint rows");
        let row = rows.iter().find(|row| row.get("endpoint").and_then(Json::as_str) == Some(name));
        row.expect("every endpoint is tracked").clone()
    }

    fn num(json: &Json, path: &[&str]) -> f64 {
        let mut node = json;
        for key in path {
            node = node.get(key).unwrap_or_else(|| panic!("missing {key} in {path:?}"));
        }
        node.as_f64().expect("a number")
    }

    #[test]
    fn classifies_targets() {
        assert_eq!(Endpoint::of("/healthz"), Endpoint::Healthz);
        assert_eq!(Endpoint::of("/datasets"), Endpoint::Datasets);
        assert_eq!(Endpoint::of("/datasets/taxi"), Endpoint::Datasets);
        assert_eq!(Endpoint::of("/datasets/taxi/insert"), Endpoint::Mutate);
        assert_eq!(Endpoint::of("/datasets/taxi/delete"), Endpoint::Mutate);
        // A dataset literally named "insert" is an upload, not a mutation.
        assert_eq!(Endpoint::of("/datasets/insert"), Endpoint::Datasets);
        assert_eq!(Endpoint::of("/datasets/taxi/frob"), Endpoint::Datasets);
        assert_eq!(Endpoint::of("/query?x=1"), Endpoint::Query);
        assert_eq!(Endpoint::of("/batch"), Endpoint::Batch);
        assert_eq!(Endpoint::of("/nope"), Endpoint::Other);
    }

    #[test]
    fn records_and_snapshots() {
        let metrics = Metrics::new();
        metrics.record(Endpoint::Query, Duration::from_micros(100), true);
        metrics.record(Endpoint::Query, Duration::from_micros(300), true);
        metrics.record(Endpoint::Query, Duration::from_micros(200), false);
        let (stats, _) = views(&metrics);
        let query = endpoint_row(&stats, "query");
        assert_eq!(num(&query, &["requests"]), 3.0);
        assert_eq!(num(&query, &["errors"]), 1.0);
        assert_eq!(num(&query, &["total_us"]), 600.0);
        assert_eq!(num(&query, &["latency", "count"]), 3.0);
        // Histogram-backed quantiles are bucket midpoints, within ~1%.
        let p50 = num(&query, &["latency", "p50_us"]);
        assert!((p50 - 200.0).abs() / 200.0 < 0.01, "p50 {p50} ≉ 200 µs");
        assert_eq!(num(&query, &["latency", "min_us"]), 100.0);
        assert_eq!(num(&query, &["latency", "max_us"]), 300.0);
        assert_eq!(num(&stats, &["requests"]), 3.0);
        assert!(num(&stats, &["requests_per_sec"]) > 0.0);
    }

    #[test]
    fn latency_histograms_keep_every_sample() {
        // The old per-endpoint ring dropped everything past 512 samples;
        // the histogram is cumulative since startup and loses none.
        let metrics = Metrics::new();
        for i in 0..10_000u64 {
            metrics.record(Endpoint::Healthz, Duration::from_micros(i + 1), true);
        }
        let (stats, _) = views(&metrics);
        let healthz = endpoint_row(&stats, "healthz");
        assert_eq!(num(&healthz, &["requests"]), 10_000.0);
        assert_eq!(num(&healthz, &["latency", "count"]), 10_000.0);
        assert_eq!(num(&healthz, &["latency", "min_us"]), 1.0);
        assert_eq!(num(&healthz, &["latency", "max_us"]), 10_000.0);
        let p99 = num(&healthz, &["latency", "p99_us"]);
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.01, "p99 {p99} ≉ 9.9 ms");
    }

    #[test]
    fn labeled_histograms_track_solvers_datasets_and_auto_choices() {
        let metrics = Metrics::new();
        let trace = |solver: &str, routed: Option<&'static str>, solve_us: u64| {
            let mut trace = QueryTrace {
                solver: solver.into(),
                dataset: "taxi".into(),
                routed,
                ..QueryTrace::default()
            };
            trace.set_phase(Phase::Solve, Duration::from_micros(solve_us));
            metrics.record_trace(&trace);
        };
        trace("exact-disk-2d", None, 40);
        trace("auto", Some("exact-disk-2d"), 10);
        trace("exact-disk-2d", None, 60);
        trace("auto", Some("exact-disk-2d"), 10);
        trace("auto", Some("batched-interval-1d"), 10);

        let solvers = metrics.solver_time.snapshot();
        assert_eq!(
            solvers.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>(),
            vec!["auto", "exact-disk-2d"],
        );
        assert_eq!(solvers[1].1.count(), 2);
        assert_eq!(metrics.dataset_time.snapshot()[0].0, "taxi");
        let (stats, text) = views(&metrics);
        assert!(text.contains("maxrs_auto_picks_total{choice=\"batched-interval-1d\"} 1\n"));
        assert!(text.contains("maxrs_auto_picks_total{choice=\"exact-disk-2d\"} 2\n"));
        assert_eq!(num(&stats, &["auto", "picks"]), 3.0, "/stats shows the sum over choices");
    }

    #[test]
    fn endpoint_index_is_the_endpoints_position() {
        for (i, endpoint) in ENDPOINTS.iter().enumerate() {
            assert_eq!(endpoint.index(), i);
        }
    }

    #[test]
    fn every_counter_slot_is_declared_once_and_every_family_has_help() {
        let mut slots: Vec<usize> = METRICS
            .iter()
            .filter_map(|metric| match metric.source {
                Source::Slot(counter) => Some(counter as usize),
                _ => None,
            })
            .collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..COUNTERS).collect::<Vec<_>>());
        for metric in METRICS {
            assert!(metric.stats.is_some() || metric.family.is_some(), "a metric with no view");
            if let Some((name, _)) = metric.family {
                assert!(!metric.help.is_empty(), "{name} has no HELP");
            }
        }
    }

    #[test]
    fn renders_monotone_buckets_with_inf_equal_to_count() {
        let metrics = Metrics::new();
        for us in [50u64, 120, 900, 15_000, 400_000] {
            metrics.record(Endpoint::Query, Duration::from_micros(us), true);
        }
        let mut trace = QueryTrace { solver: "exact-disk-2d".into(), ..QueryTrace::default() };
        trace.set_phase(Phase::Solve, Duration::from_micros(80));
        metrics.record_trace(&trace);
        let config = ServerConfig::default();
        let cache = CacheCounters {
            hits: 3,
            misses: 5,
            evictions: 0,
            invalidations: 1,
            entries: 5,
            capacity: 64,
        };
        let text = Scrape::new(&metrics, cache, Vec::new(), &config).exposition();

        // Every endpoint label is present even before traffic touches it.
        for endpoint in ENDPOINTS {
            assert!(
                text.contains(&format!("maxrs_requests_total{{endpoint=\"{}\"}}", endpoint.name())),
                "endpoint {} missing",
                endpoint.name()
            );
        }
        assert!(text.contains("maxrs_cache_hits_total 3"));
        assert!(text.contains("maxrs_solver_duration_seconds_bucket{solver=\"exact-disk-2d\","));

        // The query-endpoint bucket series is monotone and ends at count.
        let prefix = "maxrs_request_duration_seconds_bucket{endpoint=\"query\",le=\"";
        let mut last = 0u64;
        let mut inf = None;
        for line in text.lines().filter(|l| l.starts_with(prefix)) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "bucket series must be monotone: {line}");
            last = value;
            if line.contains("le=\"+Inf\"") {
                inf = Some(value);
            }
        }
        assert_eq!(inf, Some(5), "+Inf bucket equals the sample count");
        assert!(text.contains("maxrs_request_duration_seconds_count{endpoint=\"query\"} 5"));
    }

    #[test]
    fn bounds_render_without_noise() {
        assert_eq!(trim_float(secs(10_000)), "0.00001");
        assert_eq!(trim_float(secs(2_500_000)), "0.0025");
        assert_eq!(trim_float(secs(10_000_000_000)), "10");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
