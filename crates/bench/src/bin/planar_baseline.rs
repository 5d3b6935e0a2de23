//! Emits the committed planar hot-path baseline (`BENCH_planar.json`).
//!
//! Run with `cargo run --release -p mrs-bench --bin planar_baseline
//! [out.json]` from the repository root.  Two phases, both compared against
//! the figures the pre-flattening code committed:
//!
//! 1. **Batch** — the canonical `planar_mixed` workload of
//!    `BENCH_batch.json` (60 mixed exact disk / rectangle / colored-disk
//!    queries over 400 clustered points), one-at-a-time vs the shared-index
//!    executor, best of 3.  The pre-flattening baseline recorded
//!    7889.9 ms batch wall at a 1.06× speedup; the CSR grid,
//!    allocation-free kernels, and index-shared solvers must beat that wall
//!    clock by ≥ 3×.  Every exact answer is asserted byte-identical between
//!    the two modes.
//! 2. **Serve** — the mixed Zipf workload of `BENCH_serve.json` driven
//!    against an in-process `mrs_server` over real TCP (same datasets, same
//!    query pool as `serve_loadgen`).  The pre-flattening baseline recorded
//!    ~127 q/s; the flattened planar path must exceed 3× that.
//!
//! Absolute times are machine-dependent; both recorded baselines were taken
//! on the same class of single-core runner this bin targets, and the JSON
//! records the measured-to-recorded ratios so drift is visible.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mrs_bench::batch::{mixed_planar_request, solve_one_at_a_time, Workload};
use mrs_bench::measure::time;
use mrs_bench::serve::{line_csv, planar_csv, query_pool, zipf_pick, zipf_weights};
use mrs_core::engine::{
    BatchAnswer, BatchExecutor, BatchQuery, ColoredInstance, ExecutorConfig, Registry,
    WeightedInstance,
};
use mrs_server::{serve, Client, Json, ServerConfig};
use rand::prelude::*;

/// The batch wall clock and speedup the pre-flattening code committed in
/// `BENCH_batch.json` (`planar_mixed` row).
const RECORDED_BATCH_MS: f64 = 7889.939;
/// The mixed-Zipf throughput the pre-flattening code committed in
/// `BENCH_serve.json`.
const RECORDED_SERVE_QPS: f64 = 126.953;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_planar.json".to_string());
    let registry = mrs_batched::engine::full_registry(Default::default());

    // ---- Phase 1: the planar_mixed batch. -------------------------------
    let request = mixed_planar_request(400, 60, 91);

    // Correctness first: a certified run, plus a per-query reference dispatch
    // whose exact answers the batch must reproduce byte for byte.
    let certified = request.run_cold(&BatchExecutor::new(&registry));
    assert!(certified.all_ok(), "every batch query must succeed");
    assert_eq!(certified.stats.certify_failures, 0, "certification must hold");
    let identical = assert_exact_answers_identical(&registry, &request, &certified.answers);

    // Per-solver wall-time breakdown of the certified run.
    let mut breakdown: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for answer in &certified.answers {
        match answer {
            BatchAnswer::Weighted(r) => *breakdown.entry(r.solver).or_default() += r.stats.elapsed,
            BatchAnswer::Colored(r) => *breakdown.entry(r.solver).or_default() += r.stats.elapsed,
            BatchAnswer::Failed(_) => {}
        }
    }

    // Timed runs, certification off in both modes (matching BENCH_batch.json).
    let timed = BatchExecutor::with_config(
        &registry,
        ExecutorConfig { threads: None, certify: false, ..ExecutorConfig::default() },
    );
    let mut one_at_a_time = Duration::MAX;
    let mut batch = Duration::MAX;
    let mut threads = 0;
    let mut index_builds = 0;
    for _ in 0..3 {
        let (ok, t_loop) = time(|| solve_one_at_a_time(&registry, &request));
        assert_eq!(ok, request.queries.len(), "every one-at-a-time query must succeed");
        let (report, t_batch) = time(|| request.run_cold(&timed));
        assert!(report.all_ok(), "every batch query must succeed");
        one_at_a_time = one_at_a_time.min(t_loop);
        batch = batch.min(t_batch);
        threads = report.stats.threads;
        index_builds = report.stats.index_builds;
    }
    let batch_ms = batch.as_secs_f64() * 1e3;
    let speedup_vs_recorded = RECORDED_BATCH_MS / batch_ms;
    eprintln!(
        "planar_mixed: loop {:.0} ms | batch {batch_ms:.0} ms | {speedup_vs_recorded:.2}x vs the \
         recorded {RECORDED_BATCH_MS:.0} ms baseline",
        one_at_a_time.as_secs_f64() * 1e3,
    );
    for (solver, elapsed) in &breakdown {
        eprintln!("  {solver:<32} {:.1} ms", elapsed.as_secs_f64() * 1e3);
    }

    // ---- Phase 2: the mixed-Zipf serving workload. ----------------------
    let serve_stats = measure_serve_mixed();
    let serve_speedup = serve_stats.qps / RECORDED_SERVE_QPS;
    eprintln!(
        "serve mixed: {:.0} q/s over {} requests | {serve_speedup:.2}x vs the recorded \
         {RECORDED_SERVE_QPS:.0} q/s baseline",
        serve_stats.qps, serve_stats.requests,
    );

    // ---- The committed artifact. ----------------------------------------
    let breakdown_json: Vec<String> = breakdown
        .iter()
        .map(|(solver, elapsed)| format!("\"{solver}\": {:.3}", elapsed.as_secs_f64() * 1e3))
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"maxrs-planar-bench-v1\",\n  \"note\": \"flattened planar hot path: \
         CSR hash-grid + allocation-free kernels + index-shared planar solvers; best-of-3 wall \
         clock, certification off in timed modes; recorded_* figures are the committed \
         pre-flattening baselines (BENCH_batch.json / BENCH_serve.json, same runner class)\",\n  \
         \"planar_mixed\": {{\"n\": 400, \"m\": 60, \"one_at_a_time_ms\": {:.3}, \"batch_ms\": \
         {:.3}, \"recorded_batch_ms\": {RECORDED_BATCH_MS}, \"speedup_vs_recorded\": {:.2}, \
         \"speedup_vs_loop\": {:.2}, \"threads\": {threads}, \"index_builds\": {index_builds}, \
         \"candidates_examined\": {}, \"grid_cells_visited\": {}, \"exact_answers_identical\": \
         {identical}, \"breakdown_ms\": {{{}}}}},\n  \"serve_mixed\": {{\"requests\": {}, \
         \"pool\": {}, \"wall_us\": {:.0}, \"qps\": {:.2}, \"recorded_qps\": \
         {RECORDED_SERVE_QPS}, \"speedup_vs_recorded\": {:.2}, \"p50_us\": {:.1}, \"p95_us\": \
         {:.1}, \"violations\": {}}}\n}}\n",
        one_at_a_time.as_secs_f64() * 1e3,
        batch_ms,
        speedup_vs_recorded,
        one_at_a_time.as_secs_f64() / batch.as_secs_f64(),
        certified.stats.candidates_examined,
        certified.stats.grid_cells_visited,
        breakdown_json.join(", "),
        serve_stats.requests,
        serve_stats.pool,
        serve_stats.wall.as_secs_f64() * 1e6,
        serve_stats.qps,
        serve_speedup,
        serve_stats.p50.as_secs_f64() * 1e6,
        serve_stats.p95.as_secs_f64() * 1e6,
        serve_stats.violations,
    );
    std::fs::write(&out_path, &json).expect("writing the baseline file must succeed");
    println!("{json}");
    println!("wrote {out_path}");

    assert_eq!(serve_stats.violations, 0, "every served answer must be 2xx and certified");
    assert!(
        speedup_vs_recorded >= 3.0,
        "planar_mixed batch must beat the recorded baseline by 3x (got {speedup_vs_recorded:.2}x)"
    );
    assert!(
        serve_speedup >= 3.0,
        "serve mixed throughput must beat the recorded baseline by 3x (got {serve_speedup:.2}x)"
    );
    println!("flattened planar hot path beats both recorded baselines by >= 3x");
}

/// Dispatches every query of the request individually (fresh instances, the
/// naive path) and asserts the batch's exact answers equal the individual
/// answers byte for byte.  Returns `true` (or panics), so the JSON can quote
/// the verdict.
fn assert_exact_answers_identical(
    registry: &Registry,
    request: &Workload<2>,
    batch_answers: &[BatchAnswer<2>],
) -> bool {
    for (query, batch_answer) in request.queries.iter().zip(batch_answers) {
        match query {
            BatchQuery::Weighted { solver, shape } => {
                let reference = registry
                    .weighted::<2>(solver)
                    .expect("workload names a registered solver")
                    .solve(&WeightedInstance::new(request.points.clone(), *shape))
                    .expect("reference dispatch succeeds");
                let got = batch_answer.weighted().expect("batch answered the weighted query");
                if reference.guarantee.is_exact() {
                    assert_eq!(
                        reference.placement.value.to_bits(),
                        got.placement.value.to_bits(),
                        "{solver}: batch value must be byte-identical"
                    );
                    assert_eq!(
                        reference.placement.center, got.placement.center,
                        "{solver}: batch center must be byte-identical"
                    );
                }
            }
            BatchQuery::Colored { solver, shape } => {
                let reference = registry
                    .colored::<2>(solver)
                    .expect("workload names a registered solver")
                    .solve(&ColoredInstance::new(request.sites.clone(), *shape))
                    .expect("reference dispatch succeeds");
                let got = batch_answer.colored().expect("batch answered the colored query");
                if reference.guarantee.is_exact() {
                    assert_eq!(
                        reference.placement.distinct, got.placement.distinct,
                        "{solver}: batch distinct-count must match"
                    );
                    assert_eq!(
                        reference.placement.center, got.placement.center,
                        "{solver}: batch center must be byte-identical"
                    );
                }
            }
        }
    }
    true
}

struct ServeMixedStats {
    requests: usize,
    pool: usize,
    wall: Duration,
    qps: f64,
    p50: Duration,
    p95: Duration,
    violations: usize,
}

/// Boots an in-process `mrs_server`, uploads the canonical loadgen datasets,
/// and drives the same mixed Zipf pool `serve_loadgen` fires, counting any
/// non-2xx or uncertified answer as a violation.
fn measure_serve_mixed() -> ServeMixedStats {
    const N_LINE: usize = 400_000;
    const REQUESTS: usize = 2_000;
    const POOL: usize = 64;
    const SEED: u64 = 2025;

    let server =
        serve(ServerConfig { addr: "127.0.0.1:0".into(), seed: Some(SEED), ..Default::default() })
            .expect("server binds an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect to the server");

    eprintln!("generating {} line points + 10000 planar points...", N_LINE);
    let (status, body) =
        client.post("/datasets/loadgen1d?dim=1", &line_csv(N_LINE, SEED)).expect("upload I/O");
    assert_eq!(status, 200, "1-D upload: {body}");
    let (status, body) =
        client.post("/datasets/loadgen", &planar_csv(10_000, SEED)).expect("upload I/O");
    assert_eq!(status, 200, "planar upload: {body}");

    let pool = query_pool(POOL);
    let weights = zipf_weights(pool.len());
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xBEEF);
    let mut violations = 0usize;
    let mut samples = Vec::with_capacity(REQUESTS);
    let started = Instant::now();
    for _ in 0..REQUESTS {
        let index = zipf_pick(&weights, total, &mut rng);
        let request_started = Instant::now();
        let (status, body) = client.post("/query", &pool[index]).expect("request I/O");
        samples.push(request_started.elapsed());
        if !(200..300).contains(&status) {
            violations += 1;
            continue;
        }
        let certified = Json::parse(&body)
            .ok()
            .and_then(|parsed| {
                parsed.get("answer").and_then(|a| a.get("certified")).and_then(Json::as_bool)
            })
            .unwrap_or(false);
        if !certified {
            violations += 1;
        }
    }
    let wall = started.elapsed();
    server.shutdown();

    let summary = mrs_core::engine::LatencySummary::from_durations(&samples);
    ServeMixedStats {
        requests: REQUESTS,
        pool: POOL,
        wall,
        qps: REQUESTS as f64 / wall.as_secs_f64(),
        p50: summary.p50,
        p95: summary.p95,
        violations,
    }
}
