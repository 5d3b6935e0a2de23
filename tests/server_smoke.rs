//! End-to-end smoke test of the `mrs_server` query service: boot a real
//! server on an ephemeral port, upload datasets over HTTP, and drive every
//! registered batch-capable solver through `/query` and `/batch`, checking
//! the answers against direct engine dispatch and the `/stats` counters
//! against the resident-index and answer-cache contracts.

use maxrs::geom::{ColoredSite, WeightedPoint};
use maxrs::server::full_registry;
use maxrs::server::{serve, Client, Json, ServerConfig};
use mrs_core::engine::{
    BatchExecutor, BatchQuery, BatchReport, DimSupport, EngineConfig, ProblemKind, RangeShape,
    Registry, ShapeClass, TraceRecorder, VersionedDataset,
};

/// The engine seed shared by the server and the direct-dispatch reference:
/// randomized solvers constructed from the same seeded config return
/// identical answers, so equality assertions hold even for the samplers.
const SEED: u64 = 20250727;

/// The planar dataset: a weighted cluster of three colored points near the
/// origin plus a heavier far point, the same shape the engine tests use.
const PLANAR_CSV: &str = "0,0,1,0\n0.4,0,1,1\n0,0.4,1,2\n9,9,2,0\n";

/// The 1-D dataset: four unit points packing into a length-2 interval plus
/// a heavy outlier.
const LINE_CSV: &str = "0\n1\n1.5\n2\n10,4\n";

fn boot() -> (maxrs::server::ServerHandle, Client) {
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        seed: Some(SEED),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (status, _) = client.post("/datasets/planar", PLANAR_CSV).expect("upload planar");
    assert_eq!(status, 200);
    let (status, _) = client.post("/datasets/ticks?dim=1", LINE_CSV).expect("upload line");
    assert_eq!(status, 200);
    (server, client)
}

fn parse(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("unparseable body: {e}: {body}"))
}

fn stat_of<'j>(stats: &'j Json, dataset: &str) -> &'j Json {
    stats
        .get("datasets")
        .and_then(Json::as_arr)
        .and_then(|all| all.iter().find(|d| d.get("name").and_then(Json::as_str) == Some(dataset)))
        .unwrap_or_else(|| panic!("dataset {dataset} missing from /stats"))
}

/// One query through the engine over a fresh dataset.
fn reference<const D: usize>(
    registry: &Registry,
    points: Vec<WeightedPoint<D>>,
    sites: Vec<ColoredSite<D>>,
    query: BatchQuery<D>,
) -> BatchReport<D> {
    let dataset = VersionedDataset::new(points, sites);
    BatchExecutor::new(registry).execute_versioned_traced(
        &dataset,
        &[query],
        &mut TraceRecorder::disabled(),
    )
}

/// Every solver the server can dispatch for the uploaded datasets answers
/// `/query`, and the answer matches direct (seeded) engine dispatch.
#[test]
fn every_dispatchable_solver_matches_direct_dispatch() {
    let (server, mut client) = boot();
    let registry = full_registry(EngineConfig::practical(0.25).with_seed(SEED));
    let planar_set = mrs_core::input::parse_point_set_csv(PLANAR_CSV).unwrap();
    let line_points = mrs_core::input::parse_line_csv(LINE_CSV).unwrap();

    let mut covered = 0;
    for descriptor in registry.descriptors() {
        // The query the descriptor admits: a unit ball or a unit box.
        let (shape_json, planar_shape) = match descriptor.shape {
            // `Any` routes per query (the auto solver); probe it with a ball.
            ShapeClass::Ball | ShapeClass::Any => (r#"{"ball":1.0}"#, RangeShape::<2>::ball(1.0)),
            ShapeClass::AxisBox => (r#"{"box":[1.0,1.0]}"#, RangeShape::rect(1.0, 1.0)),
        };
        let (dataset, supports) = match descriptor.dims {
            DimSupport::Fixed(1) => ("ticks", true),
            DimSupport::Fixed(2) => ("planar", true),
            DimSupport::Any => ("planar", true),
            DimSupport::Fixed(_) => ("planar", false),
        };
        if !supports || (dataset == "ticks" && descriptor.shape == ShapeClass::AxisBox) {
            continue;
        }
        // The problem field disambiguates names registered on both sides
        // (the auto router is); harmless for the single-problem solvers.
        let body = format!(
            r#"{{"dataset":"{dataset}","solver":"{}","problem":"{}","shape":{shape_json}}}"#,
            descriptor.name, descriptor.problem
        );
        let (status, response) = client.post("/query", &body).expect("query I/O");
        assert_eq!(status, 200, "{}: {response}", descriptor.name);
        let parsed = parse(&response);
        let answer = parsed.get("answer").expect("answer object");
        assert_eq!(
            answer.get("certified").and_then(Json::as_bool),
            Some(true),
            "{}: uncertified: {response}",
            descriptor.name
        );

        // Reference: the same query through a fresh seeded engine.
        match descriptor.problem {
            ProblemKind::Weighted => {
                let expected = if dataset == "ticks" {
                    let query = BatchQuery::weighted(descriptor.name, RangeShape::<1>::ball(1.0));
                    let report = reference(&registry, line_points.clone(), Vec::new(), query);
                    report.weighted(0).expect("reference answer").placement.value
                } else {
                    let query = BatchQuery::weighted(descriptor.name, planar_shape);
                    let report = reference(&registry, planar_set.points.clone(), Vec::new(), query);
                    report.weighted(0).expect("reference answer").placement.value
                };
                let got = answer.get("value").and_then(Json::as_f64).expect("value");
                assert!(
                    (got - expected).abs() < 1e-9,
                    "{}: served {got} vs direct {expected}",
                    descriptor.name
                );
            }
            ProblemKind::Colored => {
                let query = BatchQuery::colored(descriptor.name, planar_shape);
                let report = reference(&registry, Vec::new(), planar_set.sites.clone(), query);
                let expected = report.colored(0).expect("reference answer").placement.distinct;
                let got = answer.get("distinct").and_then(Json::as_f64).expect("distinct");
                assert_eq!(got as usize, expected, "{}", descriptor.name);
            }
        }
        covered += 1;
    }
    assert!(covered >= 10, "only {covered} solvers were exercised");
    server.shutdown();
}

/// Repeated queries hit the answer cache; `/stats` counters move; a dataset
/// reload (epoch bump) invalidates its cached answers.
#[test]
fn answer_cache_hits_and_epoch_invalidation() {
    let (server, mut client) = boot();
    let body = r#"{"dataset":"planar","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;

    let (_, first) = client.post("/query", body).expect("query I/O");
    assert_eq!(parse(&first).get("cached").and_then(Json::as_bool), Some(false));
    for _ in 0..3 {
        let (_, again) = client.post("/query", body).expect("query I/O");
        let parsed = parse(&again);
        assert_eq!(parsed.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("answer").and_then(|a| a.get("value")).and_then(Json::as_f64),
            Some(3.0)
        );
    }
    let (_, stats) = client.get("/stats").expect("stats I/O");
    let stats = parse(&stats);
    let cache = stats.get("cache").expect("cache counters");
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(3.0));
    assert!(cache.get("misses").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(1.0));

    // Reload: the epoch bumps, so the same query recomputes.
    let (status, _) = client.post("/datasets/planar", PLANAR_CSV).expect("re-upload");
    assert_eq!(status, 200);
    let (_, after) = client.post("/query", body).expect("query I/O");
    assert_eq!(
        parse(&after).get("cached").and_then(Json::as_bool),
        Some(false),
        "an epoch bump must invalidate cached answers"
    );
    server.shutdown();
}

/// The resident `SharedIndex` is built exactly once across many requests,
/// asserted through the `/stats` build counters (the acceptance criterion).
#[test]
fn resident_index_builds_exactly_once_across_requests() {
    let (server, mut client) = boot();
    // Interval queries against the 1-D dataset: the sorted event list (and
    // Fenwick certifier) build on the first request and never again.
    let body = r#"{"dataset":"ticks","solver":"batched-interval-1d","shape":{"interval":2.0},"cache":false}"#;
    let (status, response) = client.post("/query", body).expect("query I/O");
    assert_eq!(status, 200, "{response}");
    let (_, stats) = client.get("/stats").expect("stats I/O");
    let builds_after_first =
        stat_of(&parse(&stats), "ticks").get("index_builds").and_then(Json::as_f64).unwrap();
    assert!(builds_after_first >= 1.0, "the first query must build the index");

    for _ in 0..10 {
        let (status, _) = client.post("/query", body).expect("query I/O");
        assert_eq!(status, 200);
    }
    let (_, stats) = client.get("/stats").expect("stats I/O");
    let stats = parse(&stats);
    let ticks = stat_of(&stats, "ticks");
    assert_eq!(
        ticks.get("index_builds").and_then(Json::as_f64),
        Some(builds_after_first),
        "the resident index must be built exactly once"
    );
    assert_eq!(ticks.get("requests").and_then(Json::as_f64), Some(11.0));
    // Per-endpoint stats tracked the queries.
    let query_endpoint = stats
        .get("endpoints")
        .and_then(Json::as_arr)
        .and_then(|all| {
            all.iter().find(|e| e.get("endpoint").and_then(Json::as_str) == Some("query"))
        })
        .expect("query endpoint tracked");
    assert_eq!(query_endpoint.get("requests").and_then(Json::as_f64), Some(11.0));
    assert!(
        query_endpoint
            .get("latency")
            .and_then(|l| l.get("p95_us"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
    server.shutdown();
}

/// `/batch` answers a mixed batch in request order, reports cache hits, and
/// agrees with the equivalent single queries.
#[test]
fn batch_endpoint_merges_cache_hits_and_executions() {
    let (server, mut client) = boot();
    // Warm one query into the cache.
    let single = r#"{"dataset":"planar","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
    client.post("/query", single).expect("query I/O");

    let batch = r#"{"dataset":"planar","queries":[
        {"solver":"exact-disk-2d","shape":{"ball":1.0}},
        {"solver":"exact-rect-2d","shape":{"box":[1.0,1.0]}},
        {"solver":"output-sensitive-colored-disk","shape":{"ball":1.0}},
        {"solver":"exact-disk-2d","shape":{"ball":0.1}}
    ]}"#;
    let (status, response) = client.post("/batch", batch).expect("batch I/O");
    assert_eq!(status, 200, "{response}");
    let parsed = parse(&response);
    let answers = parsed.get("answers").and_then(Json::as_arr).expect("answers");
    assert_eq!(answers.len(), 4);
    assert_eq!(answers[0].get("cached").and_then(Json::as_bool), Some(true));
    let value = |i: usize, field: &str| {
        answers[i].get("answer").and_then(|a| a.get(field)).and_then(Json::as_f64)
    };
    assert_eq!(value(0, "value"), Some(3.0));
    assert_eq!(value(1, "value"), Some(3.0));
    assert_eq!(value(2, "distinct"), Some(3.0));
    assert_eq!(value(3, "value"), Some(2.0));
    let stats = parsed.get("stats").expect("batch stats");
    assert_eq!(stats.get("queries").and_then(Json::as_f64), Some(4.0));
    assert_eq!(stats.get("cache_hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("executed").and_then(Json::as_f64), Some(3.0));
    assert_eq!(stats.get("certified").and_then(Json::as_f64), Some(3.0));
    assert_eq!(stats.get("certify_failures").and_then(Json::as_f64), Some(0.0));
    server.shutdown();
}

/// Streaming updates over real TCP: mutation bodies bump versions, the
/// answer cache invalidates fine-grained, answers carry the version they
/// were computed at, and the incrementally maintained dynamic tracker
/// follows the stream.
#[test]
fn mutations_stream_through_versions_over_tcp() {
    let (server, mut client) = boot();
    let body = r#"{"dataset":"planar","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;

    // Prime the cache at version 1.
    let (_, first) = client.post("/query", body).expect("query I/O");
    let parsed = parse(&first);
    assert_eq!(
        parsed.get("answer").and_then(|a| a.get("version")).and_then(Json::as_f64),
        Some(1.0)
    );

    // Insert a heavy cluster near the origin: one request, one version.
    let (status, response) =
        client.post("/datasets/planar/insert", "0.2,0.2,4\n0.2,0.3,4,5\n").expect("insert I/O");
    assert_eq!(status, 200, "{response}");
    let mutated = parse(&response);
    assert_eq!(
        mutated.get("mutated").and_then(|m| m.get("version")).and_then(Json::as_f64),
        Some(2.0)
    );
    assert!(
        mutated.get("mutated").and_then(|m| m.get("cache_invalidated")).and_then(Json::as_f64)
            >= Some(1.0),
        "{response}"
    );

    // The repeated query recomputes at version 2 and sees the new mass
    // (3 + 4 + 4 = 11), certified through the delta overlay.
    let (_, after) = client.post("/query", body).expect("query I/O");
    let parsed = parse(&after);
    assert_eq!(parsed.get("cached").and_then(Json::as_bool), Some(false));
    let answer = parsed.get("answer").expect("answer");
    assert_eq!(answer.get("version").and_then(Json::as_f64), Some(2.0));
    assert_eq!(answer.get("value").and_then(Json::as_f64), Some(11.0));
    assert_eq!(answer.get("certified").and_then(Json::as_bool), Some(true));

    // The dynamic tracker answers the same contents incrementally.
    let dynamic =
        r#"{"dataset":"planar","solver":"dynamic-ball","shape":{"ball":1.0},"cache":false}"#;
    let (_, response) = client.post("/query", dynamic).expect("dynamic I/O");
    let answer = parse(&response);
    let answer = answer.get("answer").expect("answer");
    assert_eq!(answer.get("value").and_then(Json::as_f64), Some(11.0));
    assert_eq!(answer.get("certified").and_then(Json::as_bool), Some(true));

    // Delete the cluster again (version 3) and verify /stats counters.
    let (status, response) =
        client.post("/datasets/planar/delete", "0.2,0.2\n0.2,0.3\n").expect("delete I/O");
    assert_eq!(status, 200, "{response}");
    let (_, third) = client.post("/query", body).expect("query I/O");
    let parsed = parse(&third);
    assert_eq!(
        parsed.get("answer").and_then(|a| a.get("value")).and_then(Json::as_f64),
        Some(3.0),
        "the delete must restore the original optimum"
    );
    let (_, stats) = client.get("/stats").expect("stats I/O");
    let stats = parse(&stats);
    let planar = stat_of(&stats, "planar");
    assert_eq!(planar.get("version").and_then(Json::as_f64), Some(3.0));
    assert!(planar.get("delta").and_then(Json::as_f64).is_some());
    assert!(
        stats.get("cache").and_then(|c| c.get("invalidations")).and_then(Json::as_f64) >= Some(1.0)
    );
    server.shutdown();
}

/// The observability surface over real TCP: every response carries an
/// `X-Request-Id`, executed queries leave retrievable phase traces at
/// `/debug/traces` keyed by it, and `/metrics` serves well-formed
/// Prometheus text with per-endpoint, per-solver and per-dataset series.
#[test]
fn metrics_traces_and_request_ids_over_tcp() {
    let (server, mut client) = boot();

    // Request ids: present on every response, unique per request, echoed
    // in the answer JSON's `trace` field.
    let body = r#"{"dataset":"planar","solver":"exact-disk-2d","shape":{"ball":1.0}}"#;
    let (status, headers, first) =
        client.request_with_headers("POST", "/query", body).expect("query I/O");
    assert_eq!(status, 200, "{first}");
    let first_id = headers
        .iter()
        .find(|(name, _)| name == "x-request-id")
        .map(|(_, value)| value.clone())
        .expect("every response carries X-Request-Id");
    assert_eq!(parse(&first).get("trace").and_then(Json::as_str), Some(first_id.as_str()));
    let (_, headers, _) = client.request_with_headers("GET", "/healthz", "").expect("healthz I/O");
    let second_id = headers
        .iter()
        .find(|(name, _)| name == "x-request-id")
        .map(|(_, value)| value.clone())
        .expect("non-query responses carry X-Request-Id too");
    assert_ne!(first_id, second_id, "request ids are unique");

    // The executed query's phase trace is retrievable by its request id.
    let (status, traces) = client.get(&format!("/debug/traces?id={first_id}")).expect("traces I/O");
    assert_eq!(status, 200, "{traces}");
    let traces = parse(&traces);
    let listed = traces.get("traces").and_then(Json::as_arr).expect("traces array");
    assert_eq!(listed.len(), 1, "one executed query, one trace");
    let trace = &listed[0];
    assert_eq!(trace.get("trace").and_then(Json::as_str), Some(first_id.as_str()));
    assert_eq!(trace.get("dataset").and_then(Json::as_str), Some("planar"));
    assert_eq!(trace.get("solver").and_then(Json::as_str), Some("exact-disk-2d"));
    assert_eq!(trace.get("ok").and_then(Json::as_bool), Some(true));
    let phases = trace.get("phases_us").expect("phase timings");
    assert!(phases.get("solve").and_then(Json::as_f64).is_some());
    let phase_sum: f64 = ["cache_lookup", "plan", "index_build", "solve", "certify", "render"]
        .iter()
        .map(|p| phases.get(p).and_then(Json::as_f64).unwrap_or(0.0))
        .sum();
    let total = trace.get("total_us").and_then(Json::as_f64).expect("total");
    // Each of the six phases truncates to whole µs independently of the
    // total, so the rendered sum may undershoot by up to 6 µs.
    assert!((phase_sum - total).abs() <= 6.0, "phases {phase_sum} must sum to total {total}");

    // A cache hit adds no new trace.
    client.post("/query", body).expect("cache-hit I/O");
    let (_, all) = client.get("/debug/traces").expect("traces I/O");
    let count = parse(&all).get("traces").and_then(Json::as_arr).map(<[Json]>::len);
    assert_eq!(count, Some(1), "cache hits must not produce traces");

    // /metrics: Prometheus text with the full endpoint label set, the
    // observed solver and dataset series, and monotone histogram buckets.
    let (status, headers, metrics) =
        client.request_with_headers("GET", "/metrics", "").expect("metrics I/O");
    assert_eq!(status, 200);
    let content_type = headers
        .iter()
        .find(|(name, _)| name == "content-type")
        .map(|(_, value)| value.as_str())
        .expect("content type");
    assert!(content_type.starts_with("text/plain"), "got {content_type}");
    for needle in [
        "# TYPE maxrs_request_duration_seconds histogram",
        r#"maxrs_request_duration_seconds_bucket{endpoint="query",le="+Inf"}"#,
        r#"maxrs_request_duration_seconds_bucket{endpoint="batch",le="+Inf"}"#,
        r#"maxrs_solver_duration_seconds_bucket{solver="exact-disk-2d",le="+Inf"}"#,
        r#"maxrs_dataset_query_duration_seconds_bucket{dataset="planar",le="+Inf"}"#,
        "maxrs_cache_hits_total 1",
        "maxrs_uptime_seconds",
    ] {
        assert!(metrics.contains(needle), "missing `{needle}` in /metrics:\n{metrics}");
    }

    // /stats carries the new tail quantile.
    let (_, stats) = client.get("/stats").expect("stats I/O");
    let stats = parse(&stats);
    let endpoints = stats.get("endpoints").and_then(Json::as_arr).expect("endpoints");
    for endpoint in endpoints {
        assert!(
            endpoint.get("latency").and_then(|l| l.get("p99_us")).and_then(Json::as_f64).is_some(),
            "every endpoint latency summary reports p99"
        );
    }
    server.shutdown();
}

/// Basic service-surface sanity over real TCP: health, solver listing,
/// dataset listing, error statuses, and graceful shutdown.
#[test]
fn service_surface_and_graceful_shutdown() {
    let (server, mut client) = boot();
    let (status, health) = client.get("/healthz").expect("healthz I/O");
    assert_eq!(status, 200);
    assert!(health.contains("\"ok\""));

    let (_, solvers) = client.get("/solvers").expect("solvers I/O");
    for name in ["exact-disk-2d", "batched-interval-1d", "approx-colored-disk-sampling"] {
        assert!(solvers.contains(name), "missing {name}: {solvers}");
    }
    let (_, datasets) = client.get("/datasets").expect("datasets I/O");
    assert!(datasets.contains("\"planar\"") && datasets.contains("\"ticks\""));

    let (status, _) = client.post("/query", "{}").expect("bad query I/O");
    assert_eq!(status, 400);
    let (status, _) = client
        .post("/query", r#"{"dataset":"nope","solver":"exact-disk-2d","shape":{"ball":1}}"#)
        .expect("missing dataset I/O");
    assert_eq!(status, 404);
    let (status, _) = client.get("/no-such-route").expect("404 I/O");
    assert_eq!(status, 404);

    // Graceful shutdown over HTTP: the server stops accepting afterwards.
    let addr = server.addr();
    let (status, _) = client.post("/shutdown", "").expect("shutdown I/O");
    assert_eq!(status, 200);
    server.join();
    let answered = Client::connect(addr).and_then(|mut c| c.get("/healthz")).is_ok();
    assert!(!answered, "a shut-down server must not answer");
}
