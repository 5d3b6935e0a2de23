//! The serving gate driver for `maxrs serve`: a closed-loop client (each
//! request waits for its response on one keep-alive connection, or for its
//! whole burst when pipelined) that checks the serving invariants CI gates
//! on.  Run the server first, then one of:
//!
//! ```text
//! cargo run --release -p mrs-bench --bin serve_loadgen -- --addr 127.0.0.1:7171
//! cargo run --release -p mrs-bench --bin serve_loadgen -- --addr 127.0.0.1:7272 --chaos
//! ```
//!
//! Every input is fixed: 50,000 line points, 5,000 planar points and seed
//! 2025.  The paper's conditional lower bound makes the Theorem 1.3 sweep
//! essentially tight, so the service gains by amortizing index builds; the
//! serve gate checks that amortization on one canonical query, a
//! fixed-length interval MaxRS answered by the batched solver (exact,
//! `index-shared`), in three regimes:
//!
//! * **cold one-shot** — the full per-invocation pipeline a one-shot
//!   `maxrs` run pays, re-done in process (CSV parse + fresh registry +
//!   fresh index + sorted-line build + solve + certify).  No process spawn
//!   is included, so the cold/warm ratio *understates* the real CLI gap.
//! * **warm index** — `POST /query` with `"cache": false` against the
//!   resident dataset: the sorted event list is already built, so only the
//!   per-query scan runs.  Its p50 must be at least 5× below the cold
//!   one-shot, with the same answer and no further index build.
//! * **cache hit** — the same query with caching on: every repeat must hit,
//!   and the hit p50 must not exceed the warm p50.
//!
//! It then sends 300 requests of a Zipfian mix (planar rectangle + colored
//! disk + 1-D interval queries over a 64-query pool), and the same mix in
//! bursts of 32 pipelined requests, whose responses must come back in
//! request order.  Last, an update phase mutates the uploaded datasets for
//! 20 rounds and fails on any stale-version answer or replayed cache entry.
//! Every answer must be 2xx and certified, and `/metrics` must stay
//! well-formed.
//!
//! `--chaos` runs the deterministic fault-injection harness instead (see
//! [`run_chaos`]): malformed frames, oversized bodies, slow-loris drips,
//! mid-body disconnects, a connection flood past the connection limit, panic
//! injection through the test-only `chaos-panic` solver, and an expired
//! deadline storm — gating on zero worker deaths, zero uncertified
//! answers, well-formed 5xx responses, and p50 recovery.  The target
//! server must be booted with `--chaos-solver` and a small
//! `--queue-capacity`.
//!
//! Each failed check prints a `VIOLATION:` line; the exit code is non-zero
//! if any check failed.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mrs_bench::serve::{line_csv, planar_csv, query_pool, zipf_pick, zipf_weights};
use mrs_core::engine::{
    BatchExecutor, BatchQuery, EngineConfig, LatencySummary, RangeShape, TraceRecorder,
    VersionedDataset,
};
use mrs_server::metrics::ENDPOINTS;
use mrs_server::{full_registry, Client, Json, PipelineRequest};
use rand::prelude::*;

/// Points in the 1-D canonical dataset.
const LINE_POINTS: usize = 50_000;
/// Points in the planar mixed-workload dataset.  Its colored-disk queries
/// are output-sensitive in the number of sites, and the mixed phase checks
/// caching and the solver mix, not planar scaling.
const PLANAR_POINTS: usize = 5_000;
/// Requests in the sequential mixed phase.
const MIXED_REQUESTS: usize = 300;
/// Distinct queries in the Zipfian pool.
const POOL: usize = 64;
/// Requests per pipelined burst.
const PIPELINE_DEPTH: usize = 32;
/// Mutation rounds in the update phase.
const UPDATE_ROUNDS: usize = 20;
/// Seed of every generated dataset, pick and backoff.
const SEED: u64 = 2025;

/// The canonical single query all three regimes are measured on: an
/// interval of this length over the 1-D dataset, exact via Theorem 1.3.
const CANONICAL_SOLVER: &str = "batched-interval-1d";
const CANONICAL_LENGTH: f64 = 25.0;

/// Parses the command line: `--addr HOST:PORT` and `--chaos`, nothing else.
fn parse_args() -> Result<(String, bool), String> {
    let mut addr = "127.0.0.1:7070".to_string();
    let mut chaos = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().ok_or("--addr requires a value")?,
            "--chaos" => chaos = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((addr, chaos))
}

/// The cold one-shot pipeline: parse the CSV, build a registry, execute the
/// canonical query over a fresh (per-call) index with certification on —
/// everything a one-shot invocation redoes per query.
fn cold_one_shot(csv: &str) -> (Duration, f64) {
    let started = Instant::now();
    let points = mrs_core::input::parse_line_csv(csv).expect("generated CSV parses");
    let registry = full_registry(EngineConfig::practical(0.25));
    let dataset = VersionedDataset::<1>::new(points, Vec::new());
    let query = BatchQuery::weighted(CANONICAL_SOLVER, RangeShape::ball(CANONICAL_LENGTH / 2.0));
    let report = BatchExecutor::new(&registry).execute_versioned_traced(
        &dataset,
        &[query],
        &mut TraceRecorder::disabled(),
    );
    assert!(report.all_ok(), "cold one-shot query must succeed");
    assert_eq!(report.stats.certify_failures, 0, "cold one-shot must certify");
    let value = report.weighted(0).expect("weighted answer").placement.value;
    (started.elapsed(), value)
}

/// One measured request; returns (elapsed, status, body).
fn timed(client: &mut Client, path: &str, body: &str) -> (Duration, u16, String) {
    let started = Instant::now();
    let (status, response) = client.post(path, body).expect("request I/O");
    (started.elapsed(), status, response)
}

/// Counts every violation the run saw; the process exits non-zero if any.
#[derive(Default)]
struct Violations(usize);

impl Violations {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            eprintln!("VIOLATION: {}", what.into());
            self.0 += 1;
        }
    }

    /// The run's verdict: the violation count, and a failing exit code if
    /// there was any.
    fn verdict(self) -> ExitCode {
        if self.0 == 0 {
            ExitCode::SUCCESS
        } else {
            eprintln!("{} violation(s); failing", self.0);
            ExitCode::FAILURE
        }
    }
}

/// Parses a `/query` response body and checks status + certification.
fn check_answer(violations: &mut Violations, status: u16, body: &str, context: &str) {
    violations.check((200..300).contains(&status), format!("{context}: status {status}: {body}"));
    if let Ok(parsed) = Json::parse(body) {
        if let Some(answer) = parsed.get("answer") {
            violations.check(
                answer.get("certified").and_then(Json::as_bool) == Some(true),
                format!("{context}: uncertified answer: {body}"),
            );
        }
    } else {
        violations.check(false, format!("{context}: unparseable body: {body}"));
    }
}

fn main() -> ExitCode {
    let (addr, chaos) = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    // The server must be up.
    let mut client = match Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(error) => {
            eprintln!("error: cannot connect to {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let (status, _) = client.get("/healthz").expect("healthz I/O");
    if status != 200 {
        eprintln!("error: /healthz answered {status}");
        return ExitCode::FAILURE;
    }

    let mut violations = Violations::default();
    if chaos {
        run_chaos(&addr, &mut violations);
    } else {
        run_serve(&mut client, &mut violations);
        run_update_mix(&mut client, &mut violations);
    }
    violations.verdict()
}

/// The serve gate's read phases: cold one-shot vs warm index vs cache hit
/// on the canonical query, then the sequential and pipelined mixed
/// traffic.  Leaves both datasets uploaded for [`run_update_mix`].
fn run_serve(client: &mut Client, violations: &mut Violations) {
    // 1. The datasets, and the cold one-shot baseline (best of 3).
    eprintln!("generating {LINE_POINTS} line points + {PLANAR_POINTS} planar points...");
    let line = line_csv(LINE_POINTS, SEED);
    let planar = planar_csv(PLANAR_POINTS, SEED);
    let mut cold = Duration::MAX;
    let mut cold_value = 0.0;
    for _ in 0..3 {
        let (elapsed, value) = cold_one_shot(&line);
        if elapsed < cold {
            cold = elapsed;
            cold_value = value;
        }
    }

    // 2. Upload both datasets.
    let (_, status, body) = timed(client, "/datasets/loadgen1d?dim=1", &line);
    violations.check(status == 200, format!("1-D upload: status {status}: {body}"));
    let (_, status, body) = timed(client, "/datasets/loadgen", &planar);
    violations.check(status == 200, format!("planar upload: status {status}: {body}"));

    // 3. Warm-index latency: cache bypassed, index resident.  The first
    // request warms the sorted line; the repeats are the measurement.
    let warm_body = format!(
        r#"{{"dataset":"loadgen1d","solver":"{CANONICAL_SOLVER}","shape":{{"interval":{CANONICAL_LENGTH}}},"cache":false}}"#
    );
    let (_, status, body) = timed(client, "/query", &warm_body);
    check_answer(violations, status, &body, "warm-up query");
    let builds_before = dataset_index_builds(client, "loadgen1d");
    let mut warm_samples = Vec::new();
    let mut warm_value = f64::NAN;
    for i in 0..30 {
        let (elapsed, status, body) = timed(client, "/query", &warm_body);
        check_answer(violations, status, &body, &format!("warm query {i}"));
        warm_samples.push(elapsed);
        if let Ok(parsed) = Json::parse(&body) {
            warm_value = parsed
                .get("answer")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            violations.check(
                parsed.get("cached").and_then(Json::as_bool) == Some(false),
                format!("warm query {i} must bypass the cache: {body}"),
            );
        }
    }
    let builds_after = dataset_index_builds(client, "loadgen1d");
    violations.check(
        builds_before == builds_after,
        format!(
            "resident index must be built exactly once: builds went {builds_before} → {builds_after}"
        ),
    );
    let warm = LatencySummary::from_durations(&warm_samples).p50;

    // 4. Cache-hit latency: same query with caching on.
    let hit_body = format!(
        r#"{{"dataset":"loadgen1d","solver":"{CANONICAL_SOLVER}","shape":{{"interval":{CANONICAL_LENGTH}}}}}"#
    );
    let (_, status, body) = timed(client, "/query", &hit_body); // populate
    check_answer(violations, status, &body, "cache-populate query");
    let mut hit_samples = Vec::new();
    for i in 0..30 {
        let (elapsed, status, body) = timed(client, "/query", &hit_body);
        check_answer(violations, status, &body, &format!("cache-hit query {i}"));
        if let Ok(parsed) = Json::parse(&body) {
            violations.check(
                parsed.get("cached").and_then(Json::as_bool) == Some(true),
                format!("cache-hit query {i} must hit: {body}"),
            );
        }
        hit_samples.push(elapsed);
    }
    let hit = LatencySummary::from_durations(&hit_samples).p50;

    // 5. Mixed closed-loop workload with Zipfian reuse over a query pool.
    let pool = query_pool(POOL);
    let weights = zipf_weights(pool.len());
    let zipf_total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xBEEF);
    for i in 0..MIXED_REQUESTS {
        let index = zipf_pick(&weights, zipf_total, &mut rng);
        let (_, status, body) = timed(client, "/query", &pool[index]);
        check_answer(violations, status, &body, &format!("mixed request {i}"));
    }

    // 6. Pipelined keep-alive: the same Zipfian mix, issued
    // `PIPELINE_DEPTH` requests per coalesced write on one connection.
    // Every burst's responses must arrive in request order (strictly
    // increasing X-Request-Ids — the driver is the only client), and every
    // answer must be certified.
    let bursts = (MIXED_REQUESTS / PIPELINE_DEPTH).max(8);
    let mut pipe_rng = StdRng::seed_from_u64(SEED ^ 0xF1FE);
    for burst in 0..bursts {
        let bodies: Vec<&str> = (0..PIPELINE_DEPTH)
            .map(|_| pool[zipf_pick(&weights, zipf_total, &mut pipe_rng)].as_str())
            .collect();
        let requests: Vec<PipelineRequest> =
            bodies.iter().map(|body| PipelineRequest::post("/query", body)).collect();
        let responses = client.pipeline(&requests).expect("pipelined I/O");
        let mut last_id = 0u64;
        for (i, (status, headers, body)) in responses.iter().enumerate() {
            check_answer(
                violations,
                *status,
                body,
                &format!("pipelined burst {burst} response {i}"),
            );
            let id = headers
                .iter()
                .find(|(name, _)| name == "x-request-id")
                .and_then(|(_, value)| value.strip_prefix("r-"))
                .and_then(|digits| digits.parse::<u64>().ok());
            match id {
                Some(id) if id > last_id => last_id = id,
                _ => violations.check(
                    false,
                    format!(
                        "pipelined burst {burst} response {i}: X-Request-Id {id:?} is not \
                         strictly increasing (responses out of order)"
                    ),
                ),
            }
        }
    }

    // 7. Server-side counters.
    let (status, stats_body) = client.get("/stats").expect("stats I/O");
    violations.check(status == 200, format!("/stats answered {status}"));
    let stats = Json::parse(&stats_body).expect("stats body parses");
    let cache = stats.get("cache").expect("stats carries cache counters");
    let cache_hits = cache.get("hits").and_then(Json::as_f64).unwrap_or(0.0);
    violations.check(cache_hits > 0.0, "the Zipfian workload must produce cache hits");
    check_metrics(violations, client);

    // 8. The amortization gates: ratios within this run.
    let speedup_warm = cold.as_secs_f64() / warm.as_secs_f64();
    violations.check(
        (warm_value - cold_value).abs() < 1e-9,
        format!("warm answer {warm_value} must equal cold answer {cold_value} (exact solver)"),
    );
    violations.check(
        speedup_warm >= 5.0,
        format!("warm-index speedup {speedup_warm:.2}× below the 5× floor"),
    );
    violations.check(hit <= warm, "cache hits must not be slower than warm-index queries");
    eprintln!(
        "cold one-shot {:.2} ms | warm-index p50 {:.1} µs ({speedup_warm:.1}× vs cold) | \
         cache-hit p50 {:.1} µs",
        cold.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e6,
        hit.as_secs_f64() * 1e6,
    );
}

/// The update phase, on the datasets [`run_serve`] uploaded: mutate them
/// through the streaming endpoints and gate on correctness, not speed —
///
/// * every answer must be 2xx and **certified**;
/// * after the client observed a mutation land at version `v`, a repeated
///   query must answer at version ≥ `v` with `"cached": false` the first
///   time (a `cached: true` replay of the pre-mutation answer, or a
///   version below `v`, is a **stale-version answer** and fails the run);
/// * `/stats` must show fine-grained cache invalidations.
fn run_update_mix(client: &mut Client, violations: &mut Violations) {
    use mrs_bench::serve::line_update_record;

    eprintln!("update-mix: {UPDATE_ROUNDS} rounds...");
    let query_body = format!(
        r#"{{"dataset":"loadgen1d","solver":"{CANONICAL_SOLVER}","shape":{{"interval":{CANONICAL_LENGTH}}}}}"#
    );
    let dynamic_body = format!(
        r#"{{"dataset":"loadgen1d","solver":"dynamic-ball","shape":{{"ball":{}}}}}"#,
        CANONICAL_LENGTH / 2.0
    );
    let mut inserted_coords: Vec<f64> = Vec::new();
    for round in 0..UPDATE_ROUNDS {
        // Prime the cache with the canonical query, so the post-mutation
        // repeat can only be fresh if invalidation worked.
        let (_, status, body) = timed(client, "/query", &query_body);
        check_answer(violations, status, &body, &format!("round {round} prime"));

        // Mutate: inserts on even rounds, deletes of previously inserted
        // records on odd rounds (when available).
        let (path, record) = if round % 2 == 0 || inserted_coords.is_empty() {
            let (x, w) = line_update_record(SEED, round as u64);
            inserted_coords.push(x);
            ("/datasets/loadgen1d/insert", format!("{x},{w}\n"))
        } else {
            let x = inserted_coords.remove(0);
            ("/datasets/loadgen1d/delete", format!("{x}\n"))
        };
        let (_, status, body) = timed(client, path, &record);
        violations.check(status == 200, format!("round {round} {path}: status {status}: {body}"));
        let mutated_version = Json::parse(&body)
            .ok()
            .and_then(|j| j.get("mutated").and_then(|m| m.get("version")).and_then(Json::as_f64))
            .unwrap_or(f64::NAN);
        violations.check(
            mutated_version.is_finite(),
            format!("round {round}: mutation response carries no version: {body}"),
        );

        // The post-update query: must recompute at (or after) the mutated
        // version — never replay the pre-mutation cache entry.
        let (_, status, body) = timed(client, "/query", &query_body);
        check_answer(violations, status, &body, &format!("round {round} post-update"));
        if let Ok(parsed) = Json::parse(&body) {
            violations.check(
                parsed.get("cached").and_then(Json::as_bool) == Some(false),
                format!("round {round}: stale cached answer replayed after a mutation: {body}"),
            );
            let answered_version = parsed
                .get("answer")
                .and_then(|a| a.get("version"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            violations.check(
                answered_version >= mutated_version,
                format!(
                    "round {round}: stale-version answer v{answered_version} after mutation \
                     v{mutated_version}"
                ),
            );
        }

        // The incrementally maintained tracker answers too (uncached
        // solver path exercises the dynamic sampler end to end).
        let (_, status, body) = timed(client, "/query", &dynamic_body);
        check_answer(violations, status, &body, &format!("round {round} dynamic"));
    }

    // A few planar mutations keep the 2-D path honest.
    for round in 0..5 {
        let body = format!("{},{},2\n", 3.0 + round as f64 * 0.1, 4.0);
        let (_, status, response) = timed(client, "/datasets/loadgen/insert", &body);
        violations.check(status == 200, format!("planar insert: status {status}: {response}"));
        let (_, status, response) = timed(
            client,
            "/query",
            r#"{"dataset":"loadgen","solver":"exact-rect-2d","shape":{"box":[2.0,2.0]}}"#,
        );
        check_answer(violations, status, &response, "planar post-update query");
    }

    // Server-side counters: invalidations must be fine-grained and nonzero.
    let (status, stats_body) = client.get("/stats").expect("stats I/O");
    violations.check(status == 200, format!("/stats answered {status}"));
    let stats = Json::parse(&stats_body).expect("stats body parses");
    let cache = stats.get("cache").expect("stats carries cache counters");
    let invalidations = cache.get("invalidations").and_then(Json::as_f64).unwrap_or(-1.0);
    violations.check(
        invalidations > 0.0,
        format!("mutations must invalidate cached answers fine-grained, got {invalidations}"),
    );
    let dataset_version = stats
        .get("datasets")
        .and_then(Json::as_arr)
        .and_then(|ds| {
            ds.iter().find(|d| d.get("name").and_then(Json::as_str) == Some("loadgen1d"))
        })
        .and_then(|d| d.get("version"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    violations.check(
        dataset_version as usize >= UPDATE_ROUNDS,
        format!(
            "every mutation must bump the version, got v{dataset_version} after {UPDATE_ROUNDS}"
        ),
    );
    check_metrics(violations, client);
}

/// The deterministic fault-injection harness (`--chaos`): a seeded
/// sequence of hostile clients, each phase followed by proof the worker
/// pool recovered.  Phases, in order:
///
/// 1. malformed frames (binary junk, truncated request lines, bogus
///    `Content-Length`) — any response must be a well-formed 4xx/5xx;
/// 2. an oversized body announced with `Expect: 100-continue` — rejected
///    `413` before any body byte, never invited with `100 Continue`;
/// 3. slow-loris drips — partial headers trickled on several sockets,
///    then abandoned; the pool must not pin workers on them;
/// 4. mid-body disconnects — complete headers, a fraction of the
///    promised body, then a close;
/// 5. a connection flood past the connection limit — the accept loop must
///    shed the overflow with well-formed `503` + `Retry-After` and keep
///    accepting afterwards;
/// 6. panic injection through the test-only `chaos-panic` solver — every
///    response a well-formed `500`, the `/stats` panic counter counts
///    them, and the pool keeps serving;
/// 7. an expired-deadline storm (`X-Deadline-Ms: 0`) — typed `504`
///    timeouts, counted, and **never cached** (the first clean repeat
///    must compute, the second must replay from cache).
///
/// Run-wide gates: zero worker deaths (the server answers a certified
/// query after every phase), zero uncertified answers, every observed
/// 5xx well-formed JSON, in-flight drains to zero, and the post-chaos
/// warm p50 stays within 1.5× of the pre-chaos baseline (+2 ms absolute
/// slack for CI jitter).
///
/// The server must be booted with `--chaos-solver` (phase 6 queries it)
/// and a `--queue-capacity` (its live-connection limit) of at most 256 so
/// phase 5 can overflow it with a bounded flood.
fn run_chaos(addr: &str, violations: &mut Violations) {
    use mrs_server::{RetryPolicy, RetryingClient};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// Warm queries behind each p50 (before and after the chaos).
    const REPS: usize = 15;
    /// Slow-loris sockets.
    const LORIS: usize = 4;
    /// Injected panics.
    const PANIC_SHOTS: usize = 3;
    /// Queries sent with an expired deadline.
    const DEADLINE_SHOTS: usize = 3;

    // The control-plane client sends the checks' own requests.  Its retry
    // policy lets it ride out a shed or a connection the flood drops, but
    // this run counts none and checks no retry: retry and reconnect are
    // proved by `sheds_are_retried_after_the_server_directed_wait`,
    // `the_retry_budget_caps_how_long_a_client_waits` and
    // `transport_errors_reconnect_with_backoff` in `mrs_server`'s client
    // tests.  `max_backoff` trims any server-directed wait so the harness
    // stays fast.
    let policy = RetryPolicy {
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
        seed: SEED,
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::new(addr, policy).expect("address resolves");

    // 0. Preconditions and counter baselines.
    let overload = overload_stats(&mut client, violations);
    let queue_capacity = field(&overload, "queue_capacity");
    violations.check(
        queue_capacity > 0.0 && queue_capacity <= 256.0,
        format!(
            "the chaos run needs a small connection limit (boot the server with \
             --queue-capacity <= 256), got {queue_capacity}"
        ),
    );
    let shed_before = field(&overload, "shed");
    let panics_before = field(&overload, "panics");
    let deadline_before = field(&overload, "deadline_exceeded");

    // 1. The dataset and the pre-chaos warm baseline.
    eprintln!("chaos: uploading {LINE_POINTS} line points...");
    let line = line_csv(LINE_POINTS, SEED);
    let (status, body) = client.post("/datasets/chaos1d?dim=1", &line).expect("upload I/O");
    violations.check(status == 200, format!("chaos upload: status {status}: {body}"));
    let warm_body = format!(
        r#"{{"dataset":"chaos1d","solver":"{CANONICAL_SOLVER}","shape":{{"interval":{CANONICAL_LENGTH}}},"cache":false}}"#
    );
    let before = warm_p50(&mut client, &warm_body, REPS, violations, "baseline");
    eprintln!("chaos: pre-chaos warm p50 {:.1} µs", before.as_secs_f64() * 1e6);

    // 2. Malformed frames: a response, if any, must be a well-formed
    // error; silently dropping the connection is also acceptable.
    let malformed: &[&[u8]] = &[
        b"\x00\x01\x02\x03\x04garbage\r\n\r\n",
        b"GET\r\n\r\n",
        b"POST /query HTTP/1.1\r\nContent-Length: nonsense\r\n\r\n",
        b"FETCH /query HTTP/9.9\r\n\r\n",
    ];
    for (i, payload) in malformed.iter().enumerate() {
        if let Some(text) = raw_exchange(addr, payload, Duration::from_millis(500)) {
            check_error_frame(violations, &text, &format!("malformed frame {i}"));
        }
    }
    assert_alive(&mut client, &warm_body, violations, "after malformed frames");

    // 3. Oversized body with `Expect: 100-continue`.
    let oversized: &[u8] =
        b"POST /datasets/x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 999999999999\r\n\r\n";
    match raw_exchange(addr, oversized, Duration::from_secs(2)) {
        None => violations.check(false, "oversized body: the server sent no response"),
        Some(text) => {
            violations.check(text.starts_with("HTTP/1.1 413"), format!("oversized body: {text:?}"));
            violations.check(
                !text.contains("100 Continue"),
                "oversized body: an interim 100 Continue invited the upload",
            );
            check_error_frame(violations, &text, "oversized body");
        }
    }
    assert_alive(&mut client, &warm_body, violations, "after the oversized body");

    // 4. Slow-loris: drip partial headers on several sockets, then vanish.
    let mut drips = Vec::new();
    for _ in 0..LORIS {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = stream.write_all(b"POST /query HTTP/1.1\r\nContent-Le");
            drips.push(stream);
        }
    }
    std::thread::sleep(Duration::from_millis(300));
    for mut stream in drips {
        let _ = stream.write_all(b"ngth: 10\r\n"); // headers never complete
    }
    assert_alive(&mut client, &warm_body, violations, "after slow-loris");

    // 5. Mid-body disconnects: complete headers, a sliver of body, gone.
    for _ in 0..4 {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ =
                stream.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 1000\r\n\r\n{\"datas");
        }
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_alive(&mut client, &warm_body, violations, "after mid-body disconnects");

    // 6. Connection flood past the connection limit.
    let flood = (queue_capacity as usize + 32).min(512);
    eprintln!("chaos: flooding {flood} connections against a {queue_capacity}-connection limit...");
    let mut sockets = Vec::with_capacity(flood);
    for _ in 0..flood {
        match TcpStream::connect(addr) {
            Ok(stream) => sockets.push(stream),
            Err(_) => break, // backlog exhausted: the flood already peaked
        }
    }
    // Scan from the most recent connections (the likeliest to be shed)
    // until three sheds prove the 503s are well-formed.
    let mut shed_seen = 0usize;
    for stream in sockets.iter_mut().rev().take(32) {
        if shed_seen >= 3 {
            break;
        }
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let mut text = String::new();
        let mut buf = [0u8; 2048];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(k) => text.push_str(&String::from_utf8_lossy(&buf[..k])),
            }
        }
        if !text.is_empty() && check_error_frame(violations, &text, "flood shed") == Some(503) {
            shed_seen += 1;
        }
    }
    drop(sockets);
    violations.check(
        shed_seen >= 1,
        format!("a {flood}-connection flood past a {queue_capacity}-connection limit shed nothing"),
    );
    std::thread::sleep(Duration::from_millis(300)); // workers drain the dropped flood
    let overload_mid = overload_stats(&mut client, violations);
    violations.check(
        field(&overload_mid, "shed") > shed_before,
        "the flood must increment the /stats shed counter",
    );
    assert_alive(&mut client, &warm_body, violations, "after the connection flood");

    // 7. Panic injection: the test-only solver fires inside a worker.
    let chaos_query = r#"{"dataset":"chaos1d","solver":"chaos-panic","shape":{"ball":1.0}}"#;
    for i in 0..PANIC_SHOTS {
        let (status, body) = client.post("/query", chaos_query).expect("chaos query I/O");
        violations.check(
            status == 500,
            format!(
                "chaos-panic shot {i}: status {status} (boot the server with --chaos-solver): \
                 {body}"
            ),
        );
        violations.check(
            Json::parse(&body).ok().is_some_and(|j| j.get("error").is_some()),
            format!("chaos-panic shot {i}: 500 body is not a JSON error: {body}"),
        );
    }
    assert_alive(&mut client, &warm_body, violations, "after panic injection");

    // 8. Expired-deadline storm, over a plain client that can set headers.
    let deadline_body = format!(
        r#"{{"dataset":"chaos1d","solver":"{CANONICAL_SOLVER}","shape":{{"interval":{}}}}}"#,
        CANONICAL_LENGTH * 2.0
    );
    let mut plain = Client::connect(addr).expect("connect for the deadline storm");
    for i in 0..DEADLINE_SHOTS {
        let (status, _, body) = plain
            .request_with("POST", "/query", &[("X-Deadline-Ms", "0")], &deadline_body)
            .expect("deadline query I/O");
        violations.check(status == 504, format!("deadline shot {i}: status {status}: {body}"));
        violations.check(
            body.contains("exceeded its deadline"),
            format!("deadline shot {i}: not the typed timeout: {body}"),
        );
    }
    let cached =
        |body: &str| Json::parse(body).ok().and_then(|j| j.get("cached").and_then(Json::as_bool));
    let (status, body) = plain.post("/query", &deadline_body).expect("deadline I/O");
    check_answer(violations, status, &body, "post-deadline compute");
    violations.check(
        cached(&body) == Some(false),
        format!("a deadline-expired query left a cache entry behind: {body}"),
    );
    let (status, body) = plain.post("/query", &deadline_body).expect("deadline I/O");
    check_answer(violations, status, &body, "post-deadline replay");
    violations.check(
        cached(&body) == Some(true),
        format!("the clean compute must be cached on replay: {body}"),
    );

    // 9. Recovery: latency, counters, exposition.
    let after = warm_p50(&mut client, &warm_body, REPS, violations, "recovery");
    let bound = before.mul_f64(1.5) + Duration::from_millis(2);
    violations.check(
        after <= bound,
        format!(
            "post-chaos warm p50 {:.1} µs exceeds 1.5× the {:.1} µs baseline",
            after.as_secs_f64() * 1e6,
            before.as_secs_f64() * 1e6
        ),
    );
    let overload_end = overload_stats(&mut client, violations);
    violations.check(
        field(&overload_end, "inflight") == 0.0,
        format!("in-flight must drain to zero, got {}", field(&overload_end, "inflight")),
    );
    violations.check(
        field(&overload_end, "panics") >= panics_before + PANIC_SHOTS as f64,
        format!(
            "panics counter {} must cover the {PANIC_SHOTS} injected panics",
            field(&overload_end, "panics")
        ),
    );
    violations.check(
        field(&overload_end, "deadline_exceeded") >= deadline_before + DEADLINE_SHOTS as f64,
        format!(
            "deadline_exceeded counter {} must cover the {DEADLINE_SHOTS} expired queries",
            field(&overload_end, "deadline_exceeded")
        ),
    );
    check_metrics(violations, &mut plain);

    eprintln!(
        "chaos: recovered warm p50 {:.1} µs (baseline {:.1} µs) | {} sheds | {} panics | \
         {} deadline timeouts",
        after.as_secs_f64() * 1e6,
        before.as_secs_f64() * 1e6,
        field(&overload_end, "shed") - shed_before,
        field(&overload_end, "panics") - panics_before,
        field(&overload_end, "deadline_exceeded") - deadline_before,
    );
}

/// The `/stats` `overload` object (empty on any parse failure, which the
/// per-field checks then surface as `-1` readings).
fn overload_stats(client: &mut mrs_server::RetryingClient, violations: &mut Violations) -> Json {
    let (status, body) = client.get("/stats").expect("stats I/O");
    violations.check(status == 200, format!("/stats answered {status}"));
    Json::parse(&body)
        .ok()
        .and_then(|stats| stats.get("overload").cloned())
        .unwrap_or(Json::Obj(Vec::new()))
}

/// A numeric field of a JSON object, `-1` when missing.
fn field(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(Json::as_f64).unwrap_or(-1.0)
}

/// The warm (cache-bypassing) p50 over `reps` certified queries.
fn warm_p50(
    client: &mut mrs_server::RetryingClient,
    body: &str,
    reps: usize,
    violations: &mut Violations,
    context: &str,
) -> Duration {
    let mut samples = Vec::with_capacity(reps);
    for i in 0..reps {
        let started = Instant::now();
        let (status, text) = client.post("/query", body).expect("query I/O");
        samples.push(started.elapsed());
        check_answer(violations, status, &text, &format!("{context} warm query {i}"));
    }
    LatencySummary::from_durations(&samples).p50
}

/// Proof of life after a chaos phase: `/healthz` answers and a certified
/// query still computes — i.e. no worker died.
fn assert_alive(
    client: &mut mrs_server::RetryingClient,
    warm_body: &str,
    violations: &mut Violations,
    context: &str,
) {
    let (status, _) = client.get("/healthz").expect("healthz I/O");
    violations.check(status == 200, format!("{context}: /healthz answered {status}"));
    let (status, body) = client.post("/query", warm_body).expect("query I/O");
    check_answer(violations, status, &body, context);
}

/// Connects, writes the raw payload, and collects whatever the server
/// sends back until EOF or the timeout.  `None` when the server sent
/// nothing — silently dropping a hostile connection is acceptable.
fn raw_exchange(addr: &str, payload: &[u8], timeout: Duration) -> Option<String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    let _ = stream.write_all(payload);
    let _ = stream.flush();
    let mut text = String::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(k) => {
                text.push_str(&String::from_utf8_lossy(&buf[..k]));
                if text.len() > 65_536 {
                    break;
                }
            }
        }
    }
    (!text.is_empty()).then_some(text)
}

/// A raw error exchange must still be well-formed HTTP: an `HTTP/1.1`
/// 4xx/5xx status line, a parseable JSON `error` body, and — for sheds —
/// a `Retry-After` header.  Returns the parsed status code.
fn check_error_frame(violations: &mut Violations, text: &str, context: &str) -> Option<u16> {
    let status: Option<u16> = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse().ok());
    let Some(status) = status else {
        violations.check(false, format!("{context}: unparseable response: {text:?}"));
        return None;
    };
    violations
        .check((400..600).contains(&status), format!("{context}: hostile input answered {status}"));
    let body = text.split_once("\r\n\r\n").map(|(_, body)| body).unwrap_or("");
    violations.check(
        Json::parse(body).ok().is_some_and(|j| j.get("error").is_some()),
        format!("{context}: error body is not JSON with an `error` field: {body:?}"),
    );
    if status == 503 {
        violations.check(
            text.to_ascii_lowercase().contains("retry-after:"),
            format!("{context}: a 503 without Retry-After"),
        );
    }
    Some(status)
}

/// Fetches `GET /metrics` after traffic and checks the Prometheus
/// exposition text is well-formed: every `_bucket` series is monotone
/// non-decreasing in `le` with its `+Inf` bucket equal to the family's
/// `_count`, the per-endpoint request histogram carries the complete label
/// set (every endpoint in [`ENDPOINTS`] appears even when unvisited), and
/// per-solver and per-dataset histogram series exist.
fn check_metrics(violations: &mut Violations, client: &mut Client) {
    let (status, body) = client.get("/metrics").expect("metrics I/O");
    violations.check(status == 200, format!("/metrics answered {status}"));

    // Group bucket lines by (family, labels-without-le); collect counts.
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => {
                violations.check(false, format!("/metrics: malformed line: {line}"));
                continue;
            }
        };
        let value: f64 = match value.parse() {
            Ok(value) => value,
            Err(_) => {
                violations.check(false, format!("/metrics: non-numeric sample: {line}"));
                continue;
            }
        };
        if let Some((name, labels)) = series.split_once('{') {
            let labels = labels.trim_end_matches('}');
            if let Some(family) = name.strip_suffix("_bucket") {
                let mut le = f64::NAN;
                let rest: Vec<&str> = labels
                    .split(',')
                    .filter(|pair| match pair.strip_prefix("le=\"") {
                        Some(bound) => {
                            let bound = bound.trim_end_matches('"');
                            le = if bound == "+Inf" {
                                f64::INFINITY
                            } else {
                                bound.parse().unwrap_or(f64::NAN)
                            };
                            false
                        }
                        None => true,
                    })
                    .collect();
                violations.check(le.is_finite() || le == f64::INFINITY, format!("bad le: {line}"));
                buckets
                    .entry(format!("{family}{{{}}}", rest.join(",")))
                    .or_default()
                    .push((le, value));
            } else if let Some(family) = name.strip_suffix("_count") {
                counts.insert(format!("{family}{{{labels}}}"), value);
            }
        }
    }

    violations.check(!buckets.is_empty(), "/metrics must expose histogram bucket series");
    for (series, samples) in &buckets {
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are ordered"));
        violations.check(
            sorted.windows(2).all(|w| w[0].1 <= w[1].1),
            format!("/metrics: non-monotone bucket series {series}"),
        );
        let inf = sorted.last().expect("series has buckets");
        violations.check(
            inf.0 == f64::INFINITY,
            format!("/metrics: {series} is missing its +Inf bucket"),
        );
        match counts.get(series) {
            None => violations.check(false, format!("/metrics: {series} has no _count")),
            Some(count) => violations.check(
                inf.1 == *count,
                format!("/metrics: {series}: +Inf bucket {} != count {count}", inf.1),
            ),
        }
    }

    // Label-set completeness: the per-endpoint family always renders every
    // endpoint, visited or not.
    for endpoint in ENDPOINTS {
        let endpoint = endpoint.name();
        violations.check(
            buckets.contains_key(&format!(
                "maxrs_request_duration_seconds{{endpoint=\"{endpoint}\"}}"
            )),
            format!("/metrics: endpoint label set incomplete: missing {endpoint}"),
        );
    }
    violations.check(
        buckets.keys().any(|k| k.starts_with("maxrs_solver_duration_seconds{")),
        "/metrics: no per-solver histogram after traffic",
    );
    violations.check(
        buckets.keys().any(|k| k.starts_with("maxrs_dataset_query_duration_seconds{")),
        "/metrics: no per-dataset histogram after traffic",
    );
}

/// The named dataset's `index_builds` counter as served by `/stats`.
fn dataset_index_builds(client: &mut Client, name: &str) -> f64 {
    let (status, body) = client.get("/stats").expect("stats I/O");
    assert_eq!(status, 200, "/stats must answer");
    let stats = Json::parse(&body).expect("stats body parses");
    stats
        .get("datasets")
        .and_then(Json::as_arr)
        .and_then(|datasets| {
            datasets.iter().find(|d| d.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|d| d.get("index_builds"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("dataset {name} is listed in /stats"))
}
