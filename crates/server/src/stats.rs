//! Per-endpoint request counters and latency tracking for `/stats` and
//! `/metrics`.
//!
//! Everything on the record path is lock-free: counters are atomics and
//! latencies feed one [`Histogram`] per endpoint (log-linear atomic
//! buckets, ~1% relative error, cumulative since startup — so p99/p999 are
//! real tail quantiles, not a sliding-window artifact).  Histograms are
//! summarized on demand into the same [`LatencySummary`] the `maxrs batch`
//! CLI prints — one stats vocabulary across the whole workspace — and
//! walked bucket-wise by the `/metrics` Prometheus renderer.  Per-solver
//! and per-dataset latency series live in [`LabeledHistograms`] maps that
//! take a read lock only to find (or, once per label, insert) the `Arc`'d
//! histogram.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mrs_core::engine::{Histogram, LatencySummary};

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
    /// Everything else (404s, bad requests, `/shutdown`).
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
    /// must not scan the table).
    pub const fn index(&self) -> usize {
        match self {
            Endpoint::Healthz => 0,
            Endpoint::Solvers => 1,
            Endpoint::Datasets => 2,
            Endpoint::Mutate => 3,
            Endpoint::Query => 4,
            Endpoint::Batch => 5,
            Endpoint::Stats => 6,
            Endpoint::Other => 7,
        }
    }
}

/// Counters and a latency histogram for one endpoint.  The request count is
/// the histogram's sample count — every handled request records exactly one
/// latency.
#[derive(Default)]
struct EndpointTrack {
    errors: AtomicU64,
    latency: Histogram,
}

/// A point-in-time view of one endpoint's counters.
#[derive(Clone, Debug, PartialEq)]
pub struct EndpointSnapshot {
    /// The endpoint label.
    pub name: &'static str,
    /// Requests answered (including errors).
    pub requests: u64,
    /// Responses with non-2xx statuses.
    pub errors: u64,
    /// Total handling time across all requests.
    pub total: Duration,
    /// Latency summary over every request since startup (histogram-backed:
    /// count/min/max/mean exact, quantiles within ~1%).
    pub latency: LatencySummary,
}

/// A point-in-time view of the epoll reactor's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorSnapshot {
    /// `epoll_wait` returns that carried at least one readiness event.
    pub wakeups: u64,
    /// Total readiness events delivered across all wakeups.
    pub readiness_events: u64,
    /// Connections accepted and registered with the reactor.
    pub accepted: u64,
    /// Connections closed (clean, error, eviction, or shutdown).
    pub closed: u64,
    /// Highest number of unanswered pipelined requests observed on one
    /// connection.
    pub max_pipeline_depth: u64,
    /// Bytes written as part of multi-response coalesced writes.
    pub coalesced_write_bytes: u64,
    /// Readiness events that carried no work (stale connection tokens,
    /// empty eventfd edges).
    pub spurious_wakeups: u64,
}

/// A family of latency histograms keyed by a runtime label (solver or
/// dataset name).  Recording takes a read lock to find the label's `Arc`'d
/// histogram (insertion, once per label, takes the write lock); the
/// histogram update itself is lock-free.
#[derive(Default)]
pub struct LabeledHistograms {
    map: RwLock<HashMap<String, Arc<Histogram>>>,
}

impl LabeledHistograms {
    /// Records one sample under `label`.
    pub fn record(&self, label: &str, sample: Duration) {
        if let Some(hist) = self.map.read().expect("labeled histograms poisoned").get(label) {
            hist.record(sample);
            return;
        }
        let mut map = self.map.write().expect("labeled histograms poisoned");
        map.entry(label.to_string()).or_default().record(sample);
    }

    /// The labels and their histograms, sorted by label.
    pub fn snapshot(&self) -> Vec<(String, Arc<Histogram>)> {
        let map = self.map.read().expect("labeled histograms poisoned");
        let mut entries: Vec<(String, Arc<Histogram>)> =
            map.iter().map(|(label, hist)| (label.clone(), Arc::clone(hist))).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

/// Server-wide statistics: uptime plus one track per endpoint, plus the
/// engine's wall-clock-free work counters aggregated over every executed
/// batch (cache hits execute nothing and so add nothing).
pub struct ServerStats {
    started: Instant,
    tracks: [EndpointTrack; ENDPOINTS.len()],
    solver_latency: LabeledHistograms,
    dataset_latency: LabeledHistograms,
    auto_choices: Mutex<BTreeMap<&'static str, u64>>,
    candidates_examined: AtomicU64,
    grid_cells_visited: AtomicU64,
    sieve_rejected: AtomicU64,
    auto_picks: AtomicU64,
    auto_predicted_work: AtomicU64,
    auto_actual_work: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    panics: AtomicU64,
    degraded: AtomicU64,
    inflight: AtomicU64,
    reactor_wakeups: AtomicU64,
    reactor_readiness_events: AtomicU64,
    reactor_accepted: AtomicU64,
    reactor_closed: AtomicU64,
    reactor_max_pipeline_depth: AtomicU64,
    reactor_coalesced_bytes: AtomicU64,
    reactor_spurious_wakeups: AtomicU64,
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStats {
    /// Fresh statistics; uptime starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            tracks: Default::default(),
            solver_latency: LabeledHistograms::default(),
            dataset_latency: LabeledHistograms::default(),
            auto_choices: Mutex::new(BTreeMap::new()),
            candidates_examined: AtomicU64::new(0),
            grid_cells_visited: AtomicU64::new(0),
            sieve_rejected: AtomicU64::new(0),
            auto_picks: AtomicU64::new(0),
            auto_predicted_work: AtomicU64::new(0),
            auto_actual_work: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            reactor_readiness_events: AtomicU64::new(0),
            reactor_accepted: AtomicU64::new(0),
            reactor_closed: AtomicU64::new(0),
            reactor_max_pipeline_depth: AtomicU64::new(0),
            reactor_coalesced_bytes: AtomicU64::new(0),
            reactor_spurious_wakeups: AtomicU64::new(0),
        }
    }

    /// Counts one `epoll_wait` return that carried `events` readiness
    /// events (timeout ticks with no events are not wakeups).
    pub fn record_reactor_wakeup(&self, events: u64) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
        self.reactor_readiness_events.fetch_add(events, Ordering::Relaxed);
    }

    /// Counts one connection accepted and registered by the reactor.
    pub fn record_reactor_accept(&self) {
        self.reactor_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one reactor connection closed (any reason: clean, error,
    /// eviction, shutdown).
    pub fn record_reactor_close(&self) {
        self.reactor_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the high-water mark of unanswered pipelined requests
    /// observed on a single connection.
    pub fn record_reactor_depth(&self, depth: u64) {
        self.reactor_max_pipeline_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Adds the size of one multi-response batch written as a single
    /// coalesced write (single-response batches do not count).
    pub fn record_reactor_coalesced(&self, bytes: u64) {
        self.reactor_coalesced_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counts one spurious readiness: an event for an already-closed
    /// connection, or an eventfd edge with nothing posted.
    pub fn record_reactor_spurious(&self) {
        self.reactor_spurious_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the reactor counters.
    pub fn reactor(&self) -> ReactorSnapshot {
        ReactorSnapshot {
            wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            readiness_events: self.reactor_readiness_events.load(Ordering::Relaxed),
            accepted: self.reactor_accepted.load(Ordering::Relaxed),
            closed: self.reactor_closed.load(Ordering::Relaxed),
            max_pipeline_depth: self.reactor_max_pipeline_depth.load(Ordering::Relaxed),
            coalesced_write_bytes: self.reactor_coalesced_bytes.load(Ordering::Relaxed),
            spurious_wakeups: self.reactor_spurious_wakeups.load(Ordering::Relaxed),
        }
    }

    /// Counts one connection or request shed by admission control (bounded
    /// queue full or an in-flight limit reached).
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections/requests shed by admission control since startup.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Counts one query that exceeded its deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries that exceeded their deadline since startup.
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Counts one handler panic caught and converted to a 500.
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Handler panics caught since startup (the workers survive every one).
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Counts one query answered in overload-degradation mode.
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries answered in overload-degradation mode since startup.
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Registers one request entering the in-flight window (gauge up).
    pub fn inflight_enter(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers one request leaving the in-flight window (gauge down).
    pub fn inflight_exit(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests currently in flight (between admission and response).
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Adds one executed batch's index-work counters (see
    /// `BatchStats::candidates_examined` / `grid_cells_visited` /
    /// `sieve_rejected`).
    pub fn record_work(
        &self,
        candidates_examined: usize,
        grid_cells_visited: usize,
        sieve_rejected: usize,
    ) {
        self.candidates_examined.fetch_add(candidates_examined as u64, Ordering::Relaxed);
        self.grid_cells_visited.fetch_add(grid_cells_visited as u64, Ordering::Relaxed);
        self.sieve_rejected.fetch_add(sieve_rejected as u64, Ordering::Relaxed);
    }

    /// Total candidates examined through spatial-index queries since startup.
    pub fn candidates_examined(&self) -> u64 {
        self.candidates_examined.load(Ordering::Relaxed)
    }

    /// Total spatial-index grid cells visited since startup.
    pub fn grid_cells_visited(&self) -> u64 {
        self.grid_cells_visited.load(Ordering::Relaxed)
    }

    /// Total candidates the widened f32 sieve rejected before the exact f64
    /// verify since startup (zero when the engine runs a pure-f64 kernel
    /// mode).
    pub fn sieve_rejected(&self) -> u64 {
        self.sieve_rejected.load(Ordering::Relaxed)
    }

    /// Adds one executed batch's `auto`-routing counters (see
    /// `BatchStats::auto_picks` and friends).  Work sums are rounded to
    /// whole units; the accuracy signal they carry is far coarser.
    pub fn record_auto(&self, picks: usize, predicted_work: f64, actual_work: f64) {
        if picks == 0 {
            return;
        }
        self.auto_picks.fetch_add(picks as u64, Ordering::Relaxed);
        self.auto_predicted_work.fetch_add(predicted_work.round() as u64, Ordering::Relaxed);
        self.auto_actual_work.fetch_add(actual_work.round() as u64, Ordering::Relaxed);
    }

    /// Queries the `auto` meta-solver routed since startup.
    pub fn auto_picks(&self) -> u64 {
        self.auto_picks.load(Ordering::Relaxed)
    }

    /// Total work the `auto` cost model predicted for its picks.
    pub fn auto_predicted_work(&self) -> u64 {
        self.auto_predicted_work.load(Ordering::Relaxed)
    }

    /// Total work the `auto` picks actually performed (the deterministic
    /// counter measure of `mrs_core::engine::cost::actual_work`).
    pub fn auto_actual_work(&self) -> u64 {
        self.auto_actual_work.load(Ordering::Relaxed)
    }

    /// Time since the server started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Records one handled request (lock-free).
    pub fn record(&self, endpoint: Endpoint, elapsed: Duration, ok: bool) {
        let track = &self.tracks[endpoint.index()];
        if !ok {
            track.errors.fetch_add(1, Ordering::Relaxed);
        }
        track.latency.record(elapsed);
    }

    /// Records one executed query's solver wall time under the solver's
    /// registry name (the `auto` meta-solver records under `auto`; its
    /// routing decision goes to [`Self::record_auto_choice`]).
    pub fn record_solver(&self, solver: &str, elapsed: Duration) {
        self.solver_latency.record(solver, elapsed);
    }

    /// Records one executed (non-cache-hit) query's end-to-end time under
    /// the dataset it ran against.
    pub fn record_dataset_query(&self, dataset: &str, elapsed: Duration) {
        self.dataset_latency.record(dataset, elapsed);
    }

    /// Counts one `auto` routing decision toward `choice`.
    pub fn record_auto_choice(&self, choice: &'static str) {
        *self
            .auto_choices
            .lock()
            .expect("auto-choice counters poisoned")
            .entry(choice)
            .or_insert(0) += 1;
    }

    /// Per-solver latency histograms, sorted by solver name.
    pub fn solver_histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.solver_latency.snapshot()
    }

    /// Per-dataset query-latency histograms, sorted by dataset name.
    pub fn dataset_histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.dataset_latency.snapshot()
    }

    /// `auto` routing decisions per chosen solver, sorted by choice.
    pub fn auto_choice_counts(&self) -> Vec<(&'static str, u64)> {
        self.auto_choices
            .lock()
            .expect("auto-choice counters poisoned")
            .iter()
            .map(|(&choice, &n)| (choice, n))
            .collect()
    }

    /// The latency histogram of one endpoint (for the `/metrics` renderer).
    pub fn endpoint_histogram(&self, endpoint: Endpoint) -> &Histogram {
        &self.tracks[endpoint.index()].latency
    }

    /// Point-in-time snapshots for every endpoint, in [`ENDPOINTS`] order.
    pub fn snapshots(&self) -> Vec<EndpointSnapshot> {
        ENDPOINTS
            .iter()
            .map(|endpoint| {
                let track = &self.tracks[endpoint.index()];
                EndpointSnapshot {
                    name: endpoint.name(),
                    requests: track.latency.count(),
                    errors: track.errors.load(Ordering::Relaxed),
                    total: track.latency.sum(),
                    latency: track.latency.summary(),
                }
            })
            .collect()
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.tracks.iter().map(|t| t.latency.count()).sum()
    }

    /// Requests per second of uptime, across all endpoints.
    pub fn requests_per_sec(&self) -> f64 {
        let secs = self.uptime().as_secs_f64();
        if secs > 0.0 {
            self.total_requests() as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let stats = ServerStats::new();
        stats.record(Endpoint::Query, Duration::from_micros(100), true);
        stats.record(Endpoint::Query, Duration::from_micros(300), true);
        stats.record(Endpoint::Query, Duration::from_micros(200), false);
        let snapshot = stats
            .snapshots()
            .into_iter()
            .find(|s| s.name == "query")
            .expect("query endpoint is tracked");
        assert_eq!(snapshot.requests, 3);
        assert_eq!(snapshot.errors, 1);
        assert_eq!(snapshot.total, Duration::from_micros(600));
        assert_eq!(snapshot.latency.count, 3);
        // Histogram-backed quantiles are bucket midpoints, within ~1%.
        let p50 = snapshot.latency.p50.as_nanos() as f64;
        assert!((p50 - 200_000.0).abs() / 200_000.0 < 0.01, "p50 {p50} ≉ 200 µs");
        assert_eq!(snapshot.latency.min, Duration::from_micros(100));
        assert_eq!(snapshot.latency.max, Duration::from_micros(300));
        assert_eq!(stats.total_requests(), 3);
        assert!(stats.requests_per_sec() > 0.0);
    }

    #[test]
    fn latency_histograms_keep_every_sample() {
        // The old per-endpoint ring dropped everything past 512 samples;
        // the histogram is cumulative since startup and loses none.
        let stats = ServerStats::new();
        for i in 0..10_000u64 {
            stats.record(Endpoint::Healthz, Duration::from_micros(i + 1), true);
        }
        let snapshot = &stats.snapshots()[Endpoint::Healthz.index()];
        assert_eq!(snapshot.requests, 10_000);
        assert_eq!(snapshot.latency.count, 10_000);
        assert_eq!(snapshot.latency.min, Duration::from_micros(1));
        assert_eq!(snapshot.latency.max, Duration::from_micros(10_000));
        let p99 = snapshot.latency.p99.as_nanos() as f64;
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.01, "p99 {p99} ≉ 9.9 ms");
    }

    #[test]
    fn labeled_histograms_track_solvers_datasets_and_auto_choices() {
        let stats = ServerStats::new();
        stats.record_solver("exact-disk-2d", Duration::from_micros(40));
        stats.record_solver("auto", Duration::from_micros(10));
        stats.record_solver("exact-disk-2d", Duration::from_micros(60));
        stats.record_dataset_query("taxi", Duration::from_micros(120));
        stats.record_auto_choice("exact-disk-2d");
        stats.record_auto_choice("exact-disk-2d");
        stats.record_auto_choice("batched-interval-1d");

        let solvers = stats.solver_histograms();
        assert_eq!(
            solvers.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>(),
            vec!["auto", "exact-disk-2d"],
        );
        assert_eq!(solvers[1].1.count(), 2);
        assert_eq!(stats.dataset_histograms()[0].0, "taxi");
        assert_eq!(
            stats.auto_choice_counts(),
            vec![("batched-interval-1d", 1), ("exact-disk-2d", 2)],
        );
    }

    #[test]
    fn endpoint_index_is_the_endpoints_position() {
        for (i, endpoint) in ENDPOINTS.iter().enumerate() {
            assert_eq!(endpoint.index(), i);
        }
    }
}
