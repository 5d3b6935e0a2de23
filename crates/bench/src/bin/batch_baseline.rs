//! Emits the committed batch-execution baseline (`BENCH_batch.json`).
//!
//! Run with `cargo run --release -p mrs-bench --bin batch_baseline [out.json]`
//! from the repository root.  Measures the canonical `mrs_bench::batch`
//! workloads — the same ones `benches/bench_batch_executor.rs` runs — in
//! both modes (one-at-a-time loop vs shared-index executor) and writes one
//! JSON trajectory point, so later PRs have a recorded perf floor to beat.
//! Absolute times are machine-dependent; the speedups are the signal.

use std::time::Duration;

use mrs_bench::batch::{
    interval_lengths_request, mixed_planar_request, solve_one_at_a_time, Workload,
};
use mrs_bench::measure::time;
use mrs_core::engine::{BatchExecutor, ExecutorConfig, Registry};

/// One measured workload row of the baseline file.
struct Row {
    name: &'static str,
    n: usize,
    m: usize,
    one_at_a_time: Duration,
    batch: Duration,
    threads: usize,
    index_builds: usize,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.one_at_a_time.as_secs_f64() / self.batch.as_secs_f64()
    }
}

/// Best-of-`reps` timing of both modes on one request.  The timed executor
/// runs with certification off — the one-at-a-time loop does no
/// certification either, so the comparison measures execution alone; one
/// untimed certified pass checks correctness separately.
fn measure<const D: usize>(
    name: &'static str,
    n: usize,
    registry: &Registry,
    request: &Workload<D>,
    reps: usize,
) -> Row {
    let timed = BatchExecutor::with_config(
        registry,
        ExecutorConfig { threads: None, certify: false, ..ExecutorConfig::default() },
    );
    let certifying = BatchExecutor::new(registry);
    let certified = request.run_cold(&certifying);
    assert!(certified.all_ok(), "{name}: every batch query must succeed");
    assert_eq!(certified.stats.certify_failures, 0, "{name}: certification must hold");

    let mut one_at_a_time = Duration::MAX;
    let mut batch = Duration::MAX;
    let mut threads = 0;
    let mut index_builds = 0;
    for _ in 0..reps {
        let (ok, t_loop) = time(|| solve_one_at_a_time(registry, request));
        assert_eq!(ok, request.queries.len(), "{name}: every query must succeed");
        let (report, t_batch) = time(|| request.run_cold(&timed));
        assert!(report.all_ok(), "{name}: every batch query must succeed");
        one_at_a_time = one_at_a_time.min(t_loop);
        batch = batch.min(t_batch);
        threads = report.stats.threads;
        index_builds = report.stats.index_builds;
    }
    Row { name, n, m: request.queries.len(), one_at_a_time, batch, threads, index_builds }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_batch.json".to_string());
    let mut registry = Registry::default();
    mrs_batched::engine::register(&mut registry);

    let rows = [
        measure("planar_mixed", 400, &registry, &mixed_planar_request(400, 60, 91), 3),
        measure("interval_1d", 4096, &registry, &interval_lengths_request(4096, 256, 23), 3),
    ];

    let mut json = String::from("{\n  \"schema\": \"maxrs-batch-bench-v1\",\n");
    json.push_str(
        "  \"note\": \"best-of-3 wall clock, certification off in both modes; absolute ms are machine-dependent, speedups are the signal\",\n",
    );
    json.push_str("  \"workloads\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"m\": {}, \"one_at_a_time_ms\": {:.3}, \
             \"batch_ms\": {:.3}, \"speedup\": {:.2}, \"threads\": {}, \"index_builds\": {}}}{}\n",
            row.name,
            row.n,
            row.m,
            row.one_at_a_time.as_secs_f64() * 1e3,
            row.batch.as_secs_f64() * 1e3,
            row.speedup(),
            row.threads,
            row.index_builds,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("writing the baseline file must succeed");
    println!("{json}");
    println!("wrote {out_path}");
    // The planar speedup is machine-dependent (it comes from fan-out, which a
    // single-core box cannot deliver); the interval amortization is not — the
    // index-sharing solver must beat per-query rebuilding everywhere.
    let interval = rows.iter().find(|r| r.name == "interval_1d").expect("interval row exists");
    assert!(
        interval.speedup() > 1.0,
        "interval_1d: batch mode must beat the one-at-a-time loop (got {:.2}x)",
        interval.speedup()
    );
    println!("batch mode beats one-at-a-time on the amortization workload");
}
