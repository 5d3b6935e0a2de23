//! Batch execution layer: the shared-index executor vs a one-at-a-time
//! dispatch loop, on the canonical workloads of `mrs_bench::batch`.
//!
//! Two regimes:
//! * `planar_mixed` — mixed exact disk / rectangle / colored-disk queries
//!   through independent solvers, where any win comes from worker fan-out
//!   (machine-dependent: on a single-core box the two modes tie);
//! * `interval_1d` — the Theorem 1.3 amortization, where the index-sharing
//!   `batched-interval-1d` solver pays one `O(n log n)` sort for the whole
//!   batch instead of once per query, so batch mode wins on any machine
//!   (measured with one worker to isolate sharing from fan-out).
//!
//! The committed `BENCH_batch.json` trajectory point is produced from the
//! same workloads by `cargo run --release -p mrs-bench --bin batch_baseline`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrs_bench::batch::{interval_lengths_request, mixed_planar_request, solve_one_at_a_time};
use mrs_core::engine::{BatchExecutor, ExecutorConfig, Registry};
use std::hint::black_box;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn batch_registry() -> Registry {
    let mut registry = Registry::default();
    mrs_batched::engine::register(&mut registry);
    registry
}

fn bench_planar_mixed(c: &mut Criterion) {
    let registry = batch_registry();
    // Certification off for timing parity: the one-at-a-time baseline does
    // no certification either.
    let executor = BatchExecutor::with_config(
        &registry,
        ExecutorConfig { threads: None, certify: false, ..ExecutorConfig::default() },
    );
    let mut group = c.benchmark_group("batch_executor_planar_mixed");
    for &m in &[6usize, 12] {
        let request = mixed_planar_request(300, m, 91);
        group.throughput(Throughput::Elements(m as u64));
        group.bench_with_input(BenchmarkId::new("one_at_a_time", m), &m, |b, _| {
            b.iter(|| black_box(solve_one_at_a_time(&registry, &request)));
        });
        group.bench_with_input(BenchmarkId::new("batch_executor", m), &m, |b, _| {
            b.iter(|| black_box(request.run_cold(&executor).answers.len()));
        });
    }
    group.finish();
}

fn bench_interval_1d(c: &mut Criterion) {
    let registry = batch_registry();
    let executor = BatchExecutor::with_config(
        &registry,
        // Serial workers isolate the index-sharing amortization from the
        // fan-out speedup (the planar group measures the latter).
        ExecutorConfig { threads: Some(1), certify: false, ..ExecutorConfig::default() },
    );
    let mut group = c.benchmark_group("batch_executor_interval_1d");
    for &m in &[64usize, 256] {
        let request = interval_lengths_request(4096, m, 23);
        group.throughput(Throughput::Elements((m * 4096) as u64));
        group.bench_with_input(BenchmarkId::new("one_at_a_time", m), &m, |b, _| {
            b.iter(|| black_box(solve_one_at_a_time(&registry, &request)));
        });
        group.bench_with_input(BenchmarkId::new("batch_executor", m), &m, |b, _| {
            b.iter(|| black_box(request.run_cold(&executor).answers.len()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_planar_mixed, bench_interval_1d
}
criterion_main!(benches);
