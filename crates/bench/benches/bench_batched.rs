//! E4a (Theorem 1.3): batched MaxRS in R¹ — total time scales like m·n,
//! matching the conditional Ω(mn) lower bound.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrs_batched::BatchedMaxRS1D;
use mrs_bench::workloads;
use rand::prelude::*;
use std::hint::black_box;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn bench_batched(c: &mut Criterion) {
    let n = 4096usize;
    let points = workloads::line_points(n, 1000.0, 23);
    let solver = BatchedMaxRS1D::new(&points);
    let mut rng = StdRng::seed_from_u64(9);

    let mut group = c.benchmark_group("e4_batched_maxrs_1d");
    for &m in &[16usize, 128, 1024] {
        let lengths: Vec<f64> = (0..m).map(|_| rng.gen_range(1.0..500.0)).collect();
        group.throughput(Throughput::Elements((m * n) as u64));
        group.bench_with_input(BenchmarkId::new("sorted_sweep", m), &m, |b, _| {
            b.iter(|| black_box(solver.solve(&lengths).len()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_batched
}
criterion_main!(benches);
