//! The per-kernel throughput gate CI runs.
//!
//! Run with `cargo run --release -p mrs-bench --bin kernel_baseline` from the
//! repository root.  The same clustered 100k-point CSR index is queried
//! under each [`KernelMode`] (scalar f64 reference, laned f64, f32
//! sieve-then-verify), best of 3, and each mode is reported as candidates
//! filtered per second.  Three workloads separate the regimes: `dense_r1`
//! (radius = cell side on clustered data, ~60% of candidates are true hits),
//! `wide_r4` (radius ≫ cell side, long contiguous slot rows), and
//! `sparse_r05` (radius = half the cell side, ~80% of candidates miss — the
//! sieve's home turf).  The modes return bit-identical hits (pinned by
//! `tests/kernel_invariance.rs`), so the deltas are pure kernel throughput.
//! The run fails unless the laned kernel beats scalar on the dense workload
//! and the sieve beats scalar on the sparse one.  Both gates are ratios
//! within one process, so they hold on any machine.

use std::time::Duration;

use mrs_bench::measure::time;
use mrs_geom::kernels::{set_kernel_mode, KernelMode};
use mrs_geom::{GridQueryStats, HashGrid, Point2};
use rand::prelude::*;

const MODES: [KernelMode; 3] = [KernelMode::ScalarF64, KernelMode::LanedF64, KernelMode::SieveF32];

fn clustered_points(n: usize, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let extent = (n as f64).sqrt() * 1.2;
    let centers: Vec<Point2> = (0..8)
        .map(|_| Point2::xy(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
        .collect();
    (0..n)
        .map(|_| {
            let c = centers[rng.gen_range(0..centers.len())];
            Point2::xy(c.x() + rng.gen_range(-2.0..2.0), c.y() + rng.gen_range(-2.0..2.0))
        })
        .collect()
}

fn mode_label(mode: KernelMode) -> &'static str {
    match mode {
        KernelMode::ScalarF64 => "scalar_f64",
        KernelMode::LanedF64 => "laned_f64",
        KernelMode::SieveF32 => "sieve_f32",
    }
}

struct KernelRow {
    mode: &'static str,
    best: Duration,
    candidates: usize,
    hits: usize,
    sieve_rejected: usize,
}

impl KernelRow {
    fn candidates_per_sec(&self) -> f64 {
        self.candidates as f64 / self.best.as_secs_f64()
    }
}

/// Times the query sweep at `radius` under `mode`, best of 3, and returns
/// the mode-independent candidate/hit counts plus the sieve counter.
fn measure_mode(
    index: &HashGrid<2>,
    queries: &[Point2],
    radius: f64,
    mode: KernelMode,
) -> KernelRow {
    set_kernel_mode(mode);
    let mut best = Duration::MAX;
    let mut result = (GridQueryStats::default(), 0usize);
    for _ in 0..3 {
        let (run, elapsed) = time(|| {
            let mut stats = GridQueryStats::default();
            let mut hits = 0usize;
            let mut acc = 0usize;
            for q in queries {
                stats.merge(index.for_each_within(q, radius, |id| {
                    hits += 1;
                    acc ^= id;
                }));
            }
            std::hint::black_box(acc);
            (stats, hits)
        });
        best = best.min(elapsed);
        result = run;
    }
    set_kernel_mode(KernelMode::SieveF32);
    KernelRow {
        mode: mode_label(mode),
        best,
        candidates: result.0.candidates,
        hits: result.1,
        sieve_rejected: result.0.sieve_rejected,
    }
}

struct Workload {
    label: &'static str,
    rows: Vec<KernelRow>,
}

impl Workload {
    /// Throughput of `mode` relative to the scalar f64 reference row.
    fn speedup(&self, mode: &str) -> f64 {
        let row = self.rows.iter().find(|r| r.mode == mode).expect("mode measured");
        row.candidates_per_sec() / self.rows[0].candidates_per_sec()
    }
}

fn main() {
    let points = clustered_points(100_000, 42);
    // Query from the dataset itself so every query lands in a populated
    // neighbourhood and the candidate counts are non-trivial.
    let queries: Vec<Point2> = points.iter().step_by(1_000).copied().collect();
    let index = HashGrid::build(1.0, &points);
    let workloads: Vec<Workload> = [("dense_r1", 1.0), ("wide_r4", 4.0), ("sparse_r05", 0.5)]
        .into_iter()
        .map(|(label, radius)| Workload {
            label,
            rows: MODES
                .into_iter()
                .map(|mode| measure_mode(&index, &queries, radius, mode))
                .collect(),
        })
        .collect();
    for workload in &workloads {
        let scalar = &workload.rows[0];
        assert!(
            workload.rows.iter().all(|r| r.candidates == scalar.candidates),
            "the candidate count is mode-independent"
        );
        assert!(
            workload.rows.iter().all(|r| r.hits == scalar.hits),
            "every mode returns the same hits"
        );
        println!("{}: {} candidates, {} hits", workload.label, scalar.candidates, scalar.hits);
        for row in &workload.rows {
            println!(
                "  {:<10} {:>8.1} ms | {:>6.1}M candidates/s | {} sieve-rejected",
                row.mode,
                row.best.as_secs_f64() * 1e3,
                row.candidates_per_sec() / 1e6,
                row.sieve_rejected,
            );
        }
    }
    let laned_dense = workloads[0].speedup("laned_f64");
    let sieve_sparse = workloads[2].speedup("sieve_f32");
    println!("laned vs scalar on dense_r1: {laned_dense:.2}x");
    println!("sieve vs scalar on sparse_r05: {sieve_sparse:.2}x");

    // Each kernel must beat the scalar reference on its home workload, same
    // machine, same process.
    assert!(
        laned_dense >= 1.2,
        "laned f64 must beat the scalar reference by 1.2x on dense_r1 (got {laned_dense:.2}x)"
    );
    assert!(
        sieve_sparse >= 1.2,
        "the f32 sieve must beat the scalar reference by 1.2x on sparse_r05 (got \
         {sieve_sparse:.2}x)"
    );
}
