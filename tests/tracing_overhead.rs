//! The tracing-overhead gate: a wall-clock test, so it runs in its own test
//! binary, where no sibling test competes with it for the CPU while it
//! times (the work-counter tests live in `tests/perf_smoke.rs`).

use maxrs::engine::{
    registry, BatchExecutor, BatchQuery, ExecutorConfig, RangeShape, TraceRecorder,
};

/// Tracing must stay effectively free: phase timing reads two `Instant`s
/// per phase around work that walks thousands of candidates, so a traced
/// batch over the loadgen planar dataset may cost at most 5% more wall
/// time than the identical untraced batch.  This is the one intentionally
/// wall-clock test in this file; it is made robust the standard way —
/// min-of-N over interleaved runs, so shared-CI noise inflates both sides
/// equally and the minimum estimates the true cost of each path.
#[test]
fn tracing_overhead_stays_under_five_percent() {
    use maxrs::engine::{ScriptStep, VersionedDataset};
    use std::time::{Duration, Instant};

    // Loadgen-shaped but trimmed for debug-mode CI: the clustered planar
    // dataset makes the exact disk sweep superlinear, so the point count
    // stays small, and the mix sticks to the index-shared exact solvers
    // (the sampler-backed ones cost minutes per query in debug builds) —
    // the gate measures relative overhead, not throughput.
    let csv = mrs_bench::serve::planar_csv(1_500, 42);
    let set = maxrs::core::input::parse_point_set_csv(&csv).expect("loadgen CSV parses");
    let dataset = VersionedDataset::new(set.points, set.sites);
    let mut steps = Vec::new();
    for radius in [0.5, 1.0] {
        steps.push(ScriptStep::Query(BatchQuery::weighted(
            "exact-disk-2d",
            RangeShape::ball(radius),
        )));
        steps.push(ScriptStep::Query(BatchQuery::weighted(
            "exact-rect-2d",
            RangeShape::rect(radius, radius),
        )));
    }
    let registry = registry();
    let executor = BatchExecutor::with_config(
        &registry,
        ExecutorConfig { threads: Some(1), certify: false, ..ExecutorConfig::default() },
    );

    // Warm up once (index builds amortize identically on both sides since
    // each run gets a fresh dataset view — keep both paths fully symmetric).
    let mut disabled_min = Duration::MAX;
    let mut enabled_min = Duration::MAX;
    for _ in 0..5 {
        let started = Instant::now();
        let report = executor.execute_script(&dataset, &steps, &mut TraceRecorder::disabled());
        assert!(report.all_ok());
        disabled_min = disabled_min.min(started.elapsed());

        let mut recorder = TraceRecorder::new();
        let started = Instant::now();
        let report = executor.execute_script(&dataset, &steps, &mut recorder);
        assert!(report.all_ok());
        enabled_min = enabled_min.min(started.elapsed());
        assert_eq!(recorder.traces().len(), steps.len(), "every query step leaves a trace");
    }

    // 5% relative plus a small absolute floor so micro-jitter on a fast
    // batch cannot fail the gate spuriously.
    let budget = disabled_min.mul_f64(1.05) + Duration::from_millis(2);
    assert!(
        enabled_min <= budget,
        "tracing overhead too high: traced {enabled_min:?} vs untraced {disabled_min:?} \
         (budget {budget:?})"
    );
}
