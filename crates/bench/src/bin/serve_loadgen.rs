//! Open-loop load generator for `maxrs serve`, and the emitter of the
//! committed serving baseline (`BENCH_serve.json`).
//!
//! Run the server first, then:
//!
//! ```text
//! cargo run --release -p mrs-bench --bin serve_loadgen -- \
//!     --addr 127.0.0.1:7070 [--smoke] [--out BENCH_serve.json] \
//!     [--n POINTS] [--requests Q] [--pool P] [--seed S] [--pipeline-depth N]
//! ```
//!
//! The driver measures the three serving regimes on one canonical query —
//! a fixed-length interval MaxRS over a 1-D dataset, answered by the
//! paper's Theorem 1.3 batched solver (exact, `index-shared`):
//!
//! * **cold one-shot** — the full per-invocation pipeline a one-shot
//!   `maxrs` run pays, re-done in process (CSV parse + fresh registry +
//!   fresh index + sorted-line build + solve + certify).  No process spawn
//!   is included, so the recorded cold/warm ratio *understates* the real
//!   CLI gap.
//! * **warm index** — `POST /query` with `"cache": false` against the
//!   resident dataset: the catalog-owned sorted event list is already
//!   built, so only the per-query scan runs.
//! * **cache hit** — the same `POST /query` with caching on: the solver is
//!   skipped entirely.
//!
//! It then fires a mixed open-loop workload (planar rectangle + colored
//! disk + 1-D interval queries, Zipfian reuse over a query pool, one
//! keep-alive connection) and records total QPS plus the server's own
//! `/stats` counters, followed by a **pipelined keep-alive** phase: the
//! same mix issued `--pipeline-depth` requests per coalesced write, gating
//! on in-order responses (strictly increasing `X-Request-Id`s), zero
//! uncertified answers, and — on a full run — at least ten times the
//! committed sequential baseline's throughput.  Exit code is non-zero if
//! any response is non-2xx, any answer is uncertified, or any other
//! checked invariant fails.
//!
//! `--chaos` runs the deterministic fault-injection harness instead (see
//! [`run_chaos`]): malformed frames, oversized bodies, slow-loris drips,
//! mid-body disconnects, a connection flood past the connection limit, panic
//! injection through the test-only `chaos-panic` solver, and an expired
//! deadline storm — gating on zero worker deaths, zero uncertified
//! answers, well-formed 5xx responses, and p50 recovery.  The target
//! server must be booted with `--chaos-solver` and a small
//! `--queue-capacity`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mrs_bench::serve::{line_csv, planar_csv, query_pool, zipf_pick, zipf_weights};
use mrs_core::engine::{
    BatchExecutor, BatchQuery, EngineConfig, LatencySummary, RangeShape, TraceRecorder,
    VersionedDataset,
};
use mrs_server::service::latency_json;
use mrs_server::{full_registry, Client, Json, PipelineRequest};
use rand::prelude::*;

struct Config {
    addr: String,
    smoke: bool,
    /// Run the update-mix phase only: mutate resident datasets through
    /// `POST /datasets/{name}/insert|delete` and fail on any uncertified or
    /// stale-version answer (an answer computed at an older version than
    /// the mutation the client already observed).
    update_mix: bool,
    /// Run the seeded fault-injection harness instead of the load phases.
    chaos: bool,
    out: Option<String>,
    /// Points in the 1-D canonical dataset (the planar mixed dataset gets
    /// a tenth of this).
    n: usize,
    requests: usize,
    pool: usize,
    seed: u64,
    /// Requests per pipelined burst in the pipelined keep-alive phase.
    pipeline_depth: usize,
}

fn flag_value(args: &[String], i: usize, name: &str) -> Result<String, String> {
    args.get(i + 1).cloned().ok_or_else(|| format!("{name} requires a value"))
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        addr: "127.0.0.1:7070".to_string(),
        smoke: false,
        update_mix: false,
        chaos: false,
        out: None,
        n: 0,
        requests: 0,
        pool: 64,
        seed: 2025,
        pipeline_depth: 32,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut n = None;
    let mut requests = None;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                config.smoke = true;
                i += 1;
            }
            "--update-mix" => {
                config.update_mix = true;
                i += 1;
            }
            "--chaos" => {
                config.chaos = true;
                i += 1;
            }
            "--addr" => {
                config.addr = flag_value(&args, i, "--addr")?;
                i += 2;
            }
            "--out" => {
                config.out = Some(flag_value(&args, i, "--out")?);
                i += 2;
            }
            "--n" => {
                n = Some(flag_value(&args, i, "--n")?.parse().map_err(|_| "--n: invalid count")?);
                i += 2;
            }
            "--requests" => {
                requests = Some(
                    flag_value(&args, i, "--requests")?
                        .parse()
                        .map_err(|_| "--requests: invalid count")?,
                );
                i += 2;
            }
            "--pool" => {
                config.pool =
                    flag_value(&args, i, "--pool")?.parse().map_err(|_| "--pool: invalid count")?;
                i += 2;
            }
            "--seed" => {
                config.seed =
                    flag_value(&args, i, "--seed")?.parse().map_err(|_| "--seed: invalid seed")?;
                i += 2;
            }
            "--pipeline-depth" => {
                config.pipeline_depth = flag_value(&args, i, "--pipeline-depth")?
                    .parse()
                    .map_err(|_| "--pipeline-depth: invalid depth")?;
                if config.pipeline_depth == 0 {
                    return Err("--pipeline-depth must be at least 1".into());
                }
                i += 2;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    config.n = n.unwrap_or(if config.smoke { 50_000 } else { 400_000 });
    config.requests = requests.unwrap_or(if config.smoke { 300 } else { 2_000 });
    Ok(config)
}

/// The canonical single query all three regimes are measured on: an
/// interval of this length over the 1-D dataset, exact via Theorem 1.3.
const CANONICAL_SOLVER: &str = "batched-interval-1d";
const CANONICAL_LENGTH: f64 = 25.0;

/// The pipelined-throughput gate: the committed sequential mixed baseline
/// is 2619 q/s (one request per round trip); the pipelined phase on the
/// epoll runtime must clear ten times that, or the full (non-smoke) run
/// fails.
const PIPELINE_GATE_QPS: f64 = 10.0 * 2619.0;

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

/// Tracks every violation the run saw; the process exits non-zero if any.
#[derive(Default)]
struct Violations(Vec<String>);

impl Violations {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("VIOLATION: {what}");
            self.0.push(what);
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
    let config = match parse_args() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut violations = Violations::default();

    // 0. The server must be up.
    let mut client = match Client::connect(config.addr.as_str()) {
        Ok(client) => client,
        Err(error) => {
            eprintln!("error: cannot connect to {}: {error}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    let (status, _) = client.get("/healthz").expect("healthz I/O");
    if status != 200 {
        eprintln!("error: /healthz answered {status}");
        return ExitCode::FAILURE;
    }

    if config.chaos {
        return run_chaos(&config);
    }
    if config.update_mix {
        return run_update_mix(&config, &mut client);
    }

    // 1. The datasets, and the cold one-shot baseline (best of 3).
    // The planar mixed-workload dataset is capped: its colored-disk queries
    // are output-sensitive in the number of sites, and the mixed phase
    // measures caching and solver mix, not planar scaling.
    let planar_n = (config.n / 10).min(10_000);
    eprintln!("generating {} line points + {planar_n} planar points...", config.n);
    let line = line_csv(config.n, config.seed);
    let planar = planar_csv(planar_n, config.seed);
    let mut cold = Duration::MAX;
    let mut cold_value = 0.0;
    for _ in 0..3 {
        let (elapsed, value) = cold_one_shot(&line);
        if elapsed < cold {
            cold = elapsed;
            cold_value = value;
        }
    }
    eprintln!("cold one-shot: {:.2} ms (value {cold_value:.3})", cold.as_secs_f64() * 1e3);

    // 2. Upload both datasets.
    let (upload, status, body) = timed(&mut client, "/datasets/loadgen1d?dim=1", &line);
    violations.check(status == 200, format!("1-D upload: status {status}: {body}"));
    let (_, status, body) = timed(&mut client, "/datasets/loadgen", &planar);
    violations.check(status == 200, format!("planar upload: status {status}: {body}"));
    eprintln!("upload (1-D): {:.2} ms", upload.as_secs_f64() * 1e3);

    // 3. Warm-index latency: cache bypassed, index resident.  The first
    // request warms the sorted line; the repeats are the measurement.
    let warm_body = format!(
        r#"{{"dataset":"loadgen1d","solver":"{CANONICAL_SOLVER}","shape":{{"interval":{CANONICAL_LENGTH}}},"cache":false}}"#
    );
    let (_, status, body) = timed(&mut client, "/query", &warm_body);
    check_answer(&mut violations, status, &body, "warm-up query");
    let builds_before = dataset_index_builds(&mut client, "loadgen1d");
    let mut warm_samples = Vec::new();
    let mut warm_value = f64::NAN;
    for i in 0..30 {
        let (elapsed, status, body) = timed(&mut client, "/query", &warm_body);
        check_answer(&mut violations, status, &body, &format!("warm query {i}"));
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
    let builds_after = dataset_index_builds(&mut client, "loadgen1d");
    violations.check(
        builds_before == builds_after,
        format!(
            "resident index must be built exactly once: builds went {builds_before} → {builds_after}"
        ),
    );
    let warm = LatencySummary::from_durations(&warm_samples);

    // 4. Cache-hit latency: same query with caching on.
    let hit_body = format!(
        r#"{{"dataset":"loadgen1d","solver":"{CANONICAL_SOLVER}","shape":{{"interval":{CANONICAL_LENGTH}}}}}"#
    );
    let (_, status, body) = timed(&mut client, "/query", &hit_body); // populate
    check_answer(&mut violations, status, &body, "cache-populate query");
    let mut hit_samples = Vec::new();
    for i in 0..30 {
        let (elapsed, status, body) = timed(&mut client, "/query", &hit_body);
        check_answer(&mut violations, status, &body, &format!("cache-hit query {i}"));
        if let Ok(parsed) = Json::parse(&body) {
            violations.check(
                parsed.get("cached").and_then(Json::as_bool) == Some(true),
                format!("cache-hit query {i} must hit: {body}"),
            );
        }
        hit_samples.push(elapsed);
    }
    let hits = LatencySummary::from_durations(&hit_samples);

    // 5. Mixed open-loop workload with Zipfian reuse over a query pool.
    let pool = query_pool(config.pool);
    let weights = zipf_weights(pool.len());
    let zipf_total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xBEEF);
    let mut mixed_samples = Vec::with_capacity(config.requests);
    let mixed_started = Instant::now();
    for i in 0..config.requests {
        let index = zipf_pick(&weights, zipf_total, &mut rng);
        let (elapsed, status, body) = timed(&mut client, "/query", &pool[index]);
        check_answer(&mut violations, status, &body, &format!("mixed request {i}"));
        mixed_samples.push(elapsed);
    }
    let mixed_wall = mixed_started.elapsed();
    let mixed = LatencySummary::from_durations(&mixed_samples);
    let qps = config.requests as f64 / mixed_wall.as_secs_f64();

    // 6. Pipelined keep-alive: the same Zipfian mix, issued `--pipeline-depth`
    // requests per coalesced write on one connection.  Gates: every burst's
    // responses arrive in request order (strictly increasing X-Request-Ids —
    // the loadgen is the only client), every answer is certified, and on a
    // full run the throughput clears [`PIPELINE_GATE_QPS`].
    let depth = config.pipeline_depth;
    let bursts = (config.requests / depth).max(8);
    let mut pipe_rng = StdRng::seed_from_u64(config.seed ^ 0xF1FE);
    let mut pipelined_requests = 0usize;
    let mut burst_samples = Vec::with_capacity(bursts);
    let pipelined_started = Instant::now();
    for burst in 0..bursts {
        let bodies: Vec<&str> = (0..depth)
            .map(|_| pool[zipf_pick(&weights, zipf_total, &mut pipe_rng)].as_str())
            .collect();
        let requests: Vec<PipelineRequest> =
            bodies.iter().map(|body| PipelineRequest::post("/query", body)).collect();
        let burst_started = Instant::now();
        let responses = client.pipeline(&requests).expect("pipelined I/O");
        burst_samples.push(burst_started.elapsed());
        pipelined_requests += responses.len();
        let mut last_id = 0u64;
        for (i, (status, headers, body)) in responses.iter().enumerate() {
            check_answer(
                &mut violations,
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
    let pipelined_wall = pipelined_started.elapsed();
    let pipelined_qps = pipelined_requests as f64 / pipelined_wall.as_secs_f64();
    let burst_latency = LatencySummary::from_durations(&burst_samples);
    eprintln!(
        "pipelined: {pipelined_requests} requests at depth {depth} → {pipelined_qps:.0} q/s \
         ({:.1}× the sequential mix)",
        pipelined_qps / qps,
    );
    if !config.smoke {
        violations.check(
            pipelined_qps >= PIPELINE_GATE_QPS,
            format!(
                "pipelined throughput {pipelined_qps:.0} q/s is below the \
                 {PIPELINE_GATE_QPS:.0} q/s gate (10× the sequential baseline)"
            ),
        );
    }

    // 7. Server-side counters.
    let (status, stats_body) = client.get("/stats").expect("stats I/O");
    violations.check(status == 200, format!("/stats answered {status}"));
    let stats = Json::parse(&stats_body).expect("stats body parses");
    let cache = stats.get("cache").expect("stats carries cache counters");
    let cache_hits = cache.get("hits").and_then(Json::as_f64).unwrap_or(0.0);
    violations.check(cache_hits > 0.0, "the Zipfian workload must produce cache hits");
    check_metrics(&mut violations, &mut client, true);

    // 8. Verdicts and the baseline artifact.
    let speedup_warm = cold.as_secs_f64() / warm.p50.as_secs_f64();
    let speedup_hit = cold.as_secs_f64() / hits.p50.as_secs_f64();
    violations.check(
        (warm_value - cold_value).abs() < 1e-9,
        format!("warm answer {warm_value} must equal cold answer {cold_value} (exact solver)"),
    );
    violations.check(
        speedup_warm >= 5.0,
        format!("warm-index speedup {speedup_warm:.2}× below the 5× floor"),
    );
    violations.check(hits.p50 <= warm.p50, "cache hits must not be slower than warm-index queries");

    eprintln!(
        "warm-index p50 {:.1} µs ({speedup_warm:.1}× vs cold) | cache-hit p50 {:.1} µs \
         ({speedup_hit:.1}× vs cold) | mixed {:.0} q/s over {} requests",
        warm.p50.as_secs_f64() * 1e6,
        hits.p50.as_secs_f64() * 1e6,
        qps,
        config.requests,
    );

    let report = Json::Obj(vec![
        ("bench".into(), Json::str("serve")),
        (
            "config".into(),
            Json::Obj(vec![
                ("n_line".into(), Json::num(config.n as f64)),
                ("n_planar".into(), Json::num(planar_n as f64)),
                ("requests".into(), Json::num(config.requests as f64)),
                ("pool".into(), Json::num(config.pool as f64)),
                ("seed".into(), Json::num(config.seed as f64)),
                ("smoke".into(), Json::Bool(config.smoke)),
            ]),
        ),
        (
            "canonical_query".into(),
            Json::Obj(vec![
                ("solver".into(), Json::str(CANONICAL_SOLVER)),
                ("interval_length".into(), Json::num(CANONICAL_LENGTH)),
            ]),
        ),
        ("cold_one_shot_us".into(), Json::num(cold.as_secs_f64() * 1e6)),
        ("upload_us".into(), Json::num(upload.as_secs_f64() * 1e6)),
        ("warm_index".into(), latency_json(&warm)),
        ("cache_hit".into(), latency_json(&hits)),
        ("speedup_warm_vs_cold".into(), Json::num(speedup_warm)),
        ("speedup_cache_hit_vs_cold".into(), Json::num(speedup_hit)),
        (
            "mixed".into(),
            Json::Obj(vec![
                ("requests".into(), Json::num(config.requests as f64)),
                ("wall_us".into(), Json::num(mixed_wall.as_secs_f64() * 1e6)),
                ("qps".into(), Json::num(qps)),
                ("latency".into(), latency_json(&mixed)),
            ]),
        ),
        (
            "pipelined".into(),
            Json::Obj(vec![
                ("depth".into(), Json::num(depth as f64)),
                ("requests".into(), Json::num(pipelined_requests as f64)),
                ("wall_us".into(), Json::num(pipelined_wall.as_secs_f64() * 1e6)),
                ("qps".into(), Json::num(pipelined_qps)),
                ("speedup_vs_sequential".into(), Json::num(pipelined_qps / qps)),
                ("gate_qps".into(), Json::num(PIPELINE_GATE_QPS)),
                ("burst_latency".into(), latency_json(&burst_latency)),
            ]),
        ),
        ("server_cache".into(), cache.clone()),
        ("violations".into(), Json::num(violations.0.len() as f64)),
    ]);
    if let Some(path) = &config.out {
        std::fs::write(path, report.render() + "\n").expect("write the baseline file");
        eprintln!("wrote {path}");
    } else {
        println!("{}", report.render());
    }

    if violations.0.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} violation(s); failing", violations.0.len());
        ExitCode::FAILURE
    }
}

/// The update-mix phase: mutate resident datasets through the streaming
/// endpoints and gate on correctness, not speed —
///
/// * every answer must be 2xx and **certified**;
/// * after the client observed a mutation land at version `v`, a repeated
///   query must answer at version ≥ `v` with `"cached": false` the first
///   time (a `cached: true` replay of the pre-mutation answer, or a
///   version below `v`, is a **stale-version answer** and fails the run);
/// * `/stats` must show fine-grained cache invalidations.
fn run_update_mix(config: &Config, client: &mut Client) -> ExitCode {
    use mrs_bench::serve::line_update_record;

    let mut violations = Violations::default();
    let rounds = if config.smoke { 20 } else { 100 };
    let n = config.n.min(50_000);
    eprintln!("update-mix: {n} line points + {} planar points, {rounds} rounds...", n / 10);
    let line = line_csv(n, config.seed);
    let planar = planar_csv((n / 10).min(5_000), config.seed);
    let (_, status, body) = timed(client, "/datasets/loadgen1d?dim=1", &line);
    violations.check(status == 200, format!("1-D upload: status {status}: {body}"));
    let (_, status, body) = timed(client, "/datasets/loadgen", &planar);
    violations.check(status == 200, format!("planar upload: status {status}: {body}"));

    let query_body = format!(
        r#"{{"dataset":"loadgen1d","solver":"{CANONICAL_SOLVER}","shape":{{"interval":{CANONICAL_LENGTH}}}}}"#
    );
    let dynamic_body = format!(
        r#"{{"dataset":"loadgen1d","solver":"dynamic-ball","shape":{{"ball":{}}}}}"#,
        CANONICAL_LENGTH / 2.0
    );
    let mut post_update_samples = Vec::with_capacity(rounds);
    let mut update_samples = Vec::with_capacity(rounds);
    let mut inserted_coords: Vec<f64> = Vec::new();
    for round in 0..rounds {
        // Prime the cache with the canonical query, so the post-mutation
        // repeat can only be fresh if invalidation worked.
        let (_, status, body) = timed(client, "/query", &query_body);
        check_answer(&mut violations, status, &body, &format!("round {round} prime"));

        // Mutate: inserts on even rounds, deletes of previously inserted
        // records on odd rounds (when available).
        let (path, record) = if round % 2 == 0 || inserted_coords.is_empty() {
            let (x, w) = line_update_record(config.seed, round as u64);
            inserted_coords.push(x);
            ("/datasets/loadgen1d/insert", format!("{x},{w}\n"))
        } else {
            let x = inserted_coords.remove(0);
            ("/datasets/loadgen1d/delete", format!("{x}\n"))
        };
        let (elapsed, status, body) = timed(client, path, &record);
        violations.check(status == 200, format!("round {round} {path}: status {status}: {body}"));
        update_samples.push(elapsed);
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
        let (elapsed, status, body) = timed(client, "/query", &query_body);
        check_answer(&mut violations, status, &body, &format!("round {round} post-update"));
        post_update_samples.push(elapsed);
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
        check_answer(&mut violations, status, &body, &format!("round {round} dynamic"));
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
        check_answer(&mut violations, status, &response, "planar post-update query");
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
        dataset_version as usize >= rounds,
        format!("every mutation must bump the version, got v{dataset_version} after {rounds}"),
    );
    check_metrics(&mut violations, client, true);

    let updates = LatencySummary::from_durations(&update_samples);
    let post_update = LatencySummary::from_durations(&post_update_samples);
    eprintln!(
        "update-mix: {rounds} rounds | update p50 {:.1} µs | post-update query p50 {:.1} µs | \
         {invalidations} cache invalidations | dataset at v{dataset_version}",
        updates.p50.as_secs_f64() * 1e6,
        post_update.p50.as_secs_f64() * 1e6,
    );

    let report = Json::Obj(vec![
        ("bench".into(), Json::str("serve_update_mix")),
        (
            "config".into(),
            Json::Obj(vec![
                ("n_line".into(), Json::num(n as f64)),
                ("rounds".into(), Json::num(rounds as f64)),
                ("seed".into(), Json::num(config.seed as f64)),
                ("smoke".into(), Json::Bool(config.smoke)),
            ]),
        ),
        ("update".into(), latency_json(&updates)),
        ("post_update_query".into(), latency_json(&post_update)),
        ("cache_invalidations".into(), Json::num(invalidations)),
        ("dataset_version".into(), Json::num(dataset_version)),
        ("violations".into(), Json::num(violations.0.len() as f64)),
    ]);
    if let Some(path) = &config.out {
        std::fs::write(path, report.render() + "\n").expect("write the baseline file");
        eprintln!("wrote {path}");
    } else {
        println!("{}", report.render());
    }

    if violations.0.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} violation(s); failing", violations.0.len());
        ExitCode::FAILURE
    }
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
fn run_chaos(config: &Config) -> ExitCode {
    use mrs_server::{RetryPolicy, RetryingClient};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let mut violations = Violations::default();
    // The control-plane client retries sheds and reconnects after the
    // flood drops its parked connection — satellite proof the retry path
    // works against a real overloaded server.  `max_backoff` trims the
    // server-directed waits so the harness stays fast.
    let policy = RetryPolicy {
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
        seed: config.seed,
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::new(config.addr.as_str(), policy).expect("address resolves");

    // 0. Preconditions and counter baselines.
    let overload = overload_stats(&mut client, &mut violations);
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
    let n = config.n.min(50_000);
    eprintln!("chaos: uploading {n} line points...");
    let line = line_csv(n, config.seed);
    let (status, body) = client.post("/datasets/chaos1d?dim=1", &line).expect("upload I/O");
    violations.check(status == 200, format!("chaos upload: status {status}: {body}"));
    let warm_body = format!(
        r#"{{"dataset":"chaos1d","solver":"{CANONICAL_SOLVER}","shape":{{"interval":{CANONICAL_LENGTH}}},"cache":false}}"#
    );
    let reps = if config.smoke { 15 } else { 40 };
    let before = warm_p50(&mut client, &warm_body, reps, &mut violations, "baseline");
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
        if let Some(text) = raw_exchange(&config.addr, payload, Duration::from_millis(500)) {
            check_error_frame(&mut violations, &text, &format!("malformed frame {i}"));
        }
    }
    assert_alive(&mut client, &warm_body, &mut violations, "after malformed frames");

    // 3. Oversized body with `Expect: 100-continue`.
    let oversized: &[u8] =
        b"POST /datasets/x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 999999999999\r\n\r\n";
    match raw_exchange(&config.addr, oversized, Duration::from_secs(2)) {
        None => violations.check(false, "oversized body: the server sent no response"),
        Some(text) => {
            violations.check(text.starts_with("HTTP/1.1 413"), format!("oversized body: {text:?}"));
            violations.check(
                !text.contains("100 Continue"),
                "oversized body: an interim 100 Continue invited the upload",
            );
            check_error_frame(&mut violations, &text, "oversized body");
        }
    }
    assert_alive(&mut client, &warm_body, &mut violations, "after the oversized body");

    // 4. Slow-loris: drip partial headers on several sockets, then vanish.
    let loris = if config.smoke { 4 } else { 8 };
    let mut drips = Vec::new();
    for _ in 0..loris {
        if let Ok(mut stream) = TcpStream::connect(config.addr.as_str()) {
            let _ = stream.write_all(b"POST /query HTTP/1.1\r\nContent-Le");
            drips.push(stream);
        }
    }
    std::thread::sleep(Duration::from_millis(300));
    for mut stream in drips {
        let _ = stream.write_all(b"ngth: 10\r\n"); // headers never complete
    }
    assert_alive(&mut client, &warm_body, &mut violations, "after slow-loris");

    // 5. Mid-body disconnects: complete headers, a sliver of body, gone.
    for _ in 0..4 {
        if let Ok(mut stream) = TcpStream::connect(config.addr.as_str()) {
            let _ =
                stream.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 1000\r\n\r\n{\"datas");
        }
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_alive(&mut client, &warm_body, &mut violations, "after mid-body disconnects");

    // 6. Connection flood past the connection limit.
    let flood = (queue_capacity as usize + 32).min(512);
    eprintln!("chaos: flooding {flood} connections against a {queue_capacity}-connection limit...");
    let mut sockets = Vec::with_capacity(flood);
    for _ in 0..flood {
        match TcpStream::connect(config.addr.as_str()) {
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
        if !text.is_empty() && check_error_frame(&mut violations, &text, "flood shed") == Some(503)
        {
            shed_seen += 1;
        }
    }
    drop(sockets);
    violations.check(
        shed_seen >= 1,
        format!("a {flood}-connection flood past a {queue_capacity}-connection limit shed nothing"),
    );
    std::thread::sleep(Duration::from_millis(300)); // workers drain the dropped flood
    let overload_mid = overload_stats(&mut client, &mut violations);
    violations.check(
        field(&overload_mid, "shed") > shed_before,
        "the flood must increment the /stats shed counter",
    );
    assert_alive(&mut client, &warm_body, &mut violations, "after the connection flood");

    // 7. Panic injection: the test-only solver fires inside a worker.
    let panic_shots = if config.smoke { 3 } else { 5 };
    let chaos_query = r#"{"dataset":"chaos1d","solver":"chaos-panic","shape":{"ball":1.0}}"#;
    for i in 0..panic_shots {
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
    assert_alive(&mut client, &warm_body, &mut violations, "after panic injection");

    // 8. Expired-deadline storm, over a plain client that can set headers.
    let deadline_shots = if config.smoke { 3 } else { 5 };
    let deadline_body = format!(
        r#"{{"dataset":"chaos1d","solver":"{CANONICAL_SOLVER}","shape":{{"interval":{}}}}}"#,
        CANONICAL_LENGTH * 2.0
    );
    let mut plain = Client::connect(config.addr.as_str()).expect("connect for the deadline storm");
    for i in 0..deadline_shots {
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
    check_answer(&mut violations, status, &body, "post-deadline compute");
    violations.check(
        cached(&body) == Some(false),
        format!("a deadline-expired query left a cache entry behind: {body}"),
    );
    let (status, body) = plain.post("/query", &deadline_body).expect("deadline I/O");
    check_answer(&mut violations, status, &body, "post-deadline replay");
    violations.check(
        cached(&body) == Some(true),
        format!("the clean compute must be cached on replay: {body}"),
    );

    // 9. Recovery: latency, counters, exposition.
    let after = warm_p50(&mut client, &warm_body, reps, &mut violations, "recovery");
    let bound = before.mul_f64(1.5) + Duration::from_millis(2);
    violations.check(
        after <= bound,
        format!(
            "post-chaos warm p50 {:.1} µs exceeds 1.5× the {:.1} µs baseline",
            after.as_secs_f64() * 1e6,
            before.as_secs_f64() * 1e6
        ),
    );
    let overload_end = overload_stats(&mut client, &mut violations);
    violations.check(
        field(&overload_end, "inflight") == 0.0,
        format!("in-flight must drain to zero, got {}", field(&overload_end, "inflight")),
    );
    violations.check(
        field(&overload_end, "panics") >= panics_before + panic_shots as f64,
        format!(
            "panics counter {} must cover the {panic_shots} injected panics",
            field(&overload_end, "panics")
        ),
    );
    violations.check(
        field(&overload_end, "deadline_exceeded") >= deadline_before + deadline_shots as f64,
        format!(
            "deadline_exceeded counter {} must cover the {deadline_shots} expired queries",
            field(&overload_end, "deadline_exceeded")
        ),
    );
    check_metrics(&mut violations, &mut plain, true);

    let counters = client.counters();
    eprintln!(
        "chaos: recovered warm p50 {:.1} µs (baseline {:.1} µs) | {} sheds | {} panics | \
         {} deadline timeouts | client retries {} ({} honored Retry-After)",
        after.as_secs_f64() * 1e6,
        before.as_secs_f64() * 1e6,
        field(&overload_end, "shed") - shed_before,
        field(&overload_end, "panics") - panics_before,
        field(&overload_end, "deadline_exceeded") - deadline_before,
        counters.retries,
        counters.retry_after_honored,
    );

    let report = Json::Obj(vec![
        ("bench".into(), Json::str("serve_chaos")),
        (
            "config".into(),
            Json::Obj(vec![
                ("n_line".into(), Json::num(n as f64)),
                ("seed".into(), Json::num(config.seed as f64)),
                ("smoke".into(), Json::Bool(config.smoke)),
                ("queue_capacity".into(), Json::num(queue_capacity)),
                ("flood_connections".into(), Json::num(flood as f64)),
                ("panic_shots".into(), Json::num(panic_shots as f64)),
                ("deadline_shots".into(), Json::num(deadline_shots as f64)),
            ]),
        ),
        ("warm_p50_before_us".into(), Json::num(before.as_secs_f64() * 1e6)),
        ("warm_p50_after_us".into(), Json::num(after.as_secs_f64() * 1e6)),
        ("sheds".into(), Json::num(field(&overload_end, "shed") - shed_before)),
        ("panics".into(), Json::num(field(&overload_end, "panics") - panics_before)),
        (
            "deadline_exceeded".into(),
            Json::num(field(&overload_end, "deadline_exceeded") - deadline_before),
        ),
        (
            "client_retries".into(),
            Json::Obj(vec![
                ("attempts".into(), Json::num(counters.attempts as f64)),
                ("retries".into(), Json::num(counters.retries as f64)),
                ("retry_after_honored".into(), Json::num(counters.retry_after_honored as f64)),
                ("budget_exhausted".into(), Json::num(counters.budget_exhausted as f64)),
            ]),
        ),
        ("violations".into(), Json::num(violations.0.len() as f64)),
    ]);
    if let Some(path) = &config.out {
        std::fs::write(path, report.render() + "\n").expect("write the chaos baseline file");
        eprintln!("wrote {path}");
    } else {
        println!("{}", report.render());
    }

    if violations.0.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} violation(s); failing", violations.0.len());
        ExitCode::FAILURE
    }
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

/// Fetches `GET /metrics` and checks the Prometheus exposition text is
/// well-formed: every `_bucket` series is monotone non-decreasing in `le`
/// with its `+Inf` bucket equal to the family's `_count`, and the
/// per-endpoint request histogram carries the complete label set (all
/// eight routed endpoints appear even when unvisited).  After traffic has
/// flowed, per-solver and per-dataset histogram series must exist too.
fn check_metrics(violations: &mut Violations, client: &mut Client, traffic: bool) {
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

    // Label-set completeness: the per-endpoint family always renders all
    // eight endpoints, visited or not.
    for endpoint in ["healthz", "solvers", "datasets", "mutate", "query", "batch", "stats", "other"]
    {
        violations.check(
            buckets.contains_key(&format!(
                "maxrs_request_duration_seconds{{endpoint=\"{endpoint}\"}}"
            )),
            format!("/metrics: endpoint label set incomplete: missing {endpoint}"),
        );
    }
    if traffic {
        violations.check(
            buckets.keys().any(|k| k.starts_with("maxrs_solver_duration_seconds{")),
            "/metrics: no per-solver histogram after traffic",
        );
        violations.check(
            buckets.keys().any(|k| k.starts_with("maxrs_dataset_query_duration_seconds{")),
            "/metrics: no per-dataset histogram after traffic",
        );
    }
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
