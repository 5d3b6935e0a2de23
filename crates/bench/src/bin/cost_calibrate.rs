//! Fits the `auto` meta-solver's per-solver cost models and prints the
//! `COEFFICIENTS` table committed in `mrs_core::engine::cost`.
//!
//! For every solver that reports deterministic work counters, the harness
//! runs a spread of seeded workloads (sizes × densities × query radii ×
//! clustering), measures `cost::actual_work` per answered query, and fits
//! the seven-coefficient linear model over `cost::CostFeatures` by
//! *nonnegative* least squares (active-set over normal equations with a
//! tiny ridge term, solved by Gaussian elimination — no external
//! dependencies).  Solvers without counters cost exactly `n` under the
//! measure and keep their exact `[0,1,0,0,0,0,0]` row.
//!
//! Usage: `cargo run --release -p mrs-bench --bin cost_calibrate`
//! then paste the printed rows into `crates/core/src/engine/cost.rs`.

use mrs_batched::engine::full_registry;
use mrs_bench::workloads;
use mrs_core::engine::cost::{actual_work, CostFeatures, InstanceProfile};
use mrs_core::engine::{
    BatchExecutor, BatchQuery, EngineConfig, RangeShape, Registry, TraceRecorder, VersionedDataset,
};

/// The seed every workload derives from: calibration is reproducible.
const SEED: u64 = 20250808;

/// One observation: a feature row and the work the solver actually did.
struct Sample {
    x: [f64; 7],
    y: f64,
}

fn main() {
    let registry = full_registry(EngineConfig::practical(0.25).with_seed(SEED));

    println!("fitting per-solver cost models (deterministic counter measure)\n");
    let mut rows: Vec<(String, [f64; 7])> = Vec::new();
    for (solver, samples) in [
        ("exact-disk-2d", weighted_samples(&registry, "exact-disk-2d")),
        ("approx-static-ball", weighted_samples(&registry, "approx-static-ball")),
        (
            "output-sensitive-colored-disk",
            colored_samples(&registry, "output-sensitive-colored-disk"),
        ),
        (
            "approx-colored-disk-sampling",
            colored_samples(&registry, "approx-colored-disk-sampling"),
        ),
    ] {
        let coeff = fit(&samples);
        report_fit(solver, &samples, &coeff);
        rows.push((solver.to_string(), coeff));
    }

    println!("\n// paste into COEFFICIENTS in crates/core/src/engine/cost.rs:");
    for (name, c) in &rows {
        println!(
            "    (\"{name}\", [{:.6}, {:.6}, {:.6}, {:.6}, {:.6}, {:.6}, {:.6}]),",
            c[0], c[1], c[2], c[3], c[4], c[5], c[6]
        );
    }
}

/// Weighted calibration grid: uniform and clustered point sets across sizes,
/// ball radii sweeping the fill range.  Counters for the index-shared
/// solvers flow through the batch executor (their per-query `solve` path
/// reports none), which is also exactly how the `auto` router invokes them.
fn weighted_samples(registry: &Registry, solver: &str) -> Vec<Sample> {
    let mut samples = Vec::new();
    for &n in &[200usize, 400, 800, 1600] {
        for clustered in [false, true] {
            let points = if clustered {
                workloads::clustered_points_2d(n, 6, 20.0, 1.2, SEED ^ n as u64)
            } else {
                workloads::uniform_points_2d(n, 20.0, SEED ^ n as u64)
            };
            let profile = InstanceProfile::of_points(&points);
            let dataset = VersionedDataset::new(points, Vec::new());
            let mut features: Vec<CostFeatures> = Vec::new();
            let mut queries = Vec::new();
            for &radius in &[0.2, 0.5, 1.0, 2.0, 4.0] {
                let shape = RangeShape::ball(radius);
                features.push(profile.features(&shape));
                queries.push(BatchQuery::weighted(solver, shape));
            }
            let report = BatchExecutor::new(registry).execute_versioned_traced(
                &dataset,
                &queries,
                &mut TraceRecorder::disabled(),
            );
            for (i, f) in features.iter().enumerate() {
                let answer = report.weighted(i).expect("calibration query answers");
                samples
                    .push(Sample { x: f.as_array(), y: actual_work(&answer.stats, profile.len()) });
            }
        }
    }
    samples
}

/// Colored calibration grid: clustered palettes of varying size; radii stay
/// small for the output-sensitive solver, whose cost climbs steeply with the
/// covered cluster size.
fn colored_samples(registry: &Registry, solver: &str) -> Vec<Sample> {
    let mut samples = Vec::new();
    for &n in &[200usize, 400, 800] {
        for &colors in &[8usize, 30] {
            let sites =
                workloads::colored_clusters_2d(n, colors, 6, 20.0, 1.2, SEED ^ (n * colors) as u64);
            let profile = InstanceProfile::of_sites(&sites);
            let dataset = VersionedDataset::new(Vec::new(), sites);
            let mut features: Vec<CostFeatures> = Vec::new();
            let mut queries = Vec::new();
            for &radius in &[0.2, 0.35, 0.5, 0.8] {
                let shape = RangeShape::ball(radius);
                features.push(profile.features(&shape));
                queries.push(BatchQuery::colored(solver, shape));
            }
            let report = BatchExecutor::new(registry).execute_versioned_traced(
                &dataset,
                &queries,
                &mut TraceRecorder::disabled(),
            );
            for (i, f) in features.iter().enumerate() {
                let answer = report.colored(i).expect("calibration query answers");
                samples
                    .push(Sample { x: f.as_array(), y: actual_work(&answer.stats, profile.len()) });
            }
        }
    }
    samples
}

/// Nonnegative weighted least squares: minimizes relative error (weights
/// `1/y²` — the router ranks solvers multiplicatively, and an unweighted
/// fit is dominated by the largest workloads) subject to every coefficient
/// being `≥ 0`.  The sign constraint is what makes the fit safe to route
/// on: features are nonnegative, so predictions are nonnegative and
/// monotone in every feature — an unconstrained fit here produces large
/// negative terms whose floored predictions would make `auto` blindly
/// prefer the mispriced solver on out-of-sample instances.
///
/// Solved by the classic active-set reduction: fit unconstrained on the
/// active columns (normal equations + Gaussian elimination), drop the most
/// negative coefficient, repeat until all remaining are nonnegative.
fn fit(samples: &[Sample]) -> [f64; 7] {
    let mut active = [true; 7];
    loop {
        let coeff = fit_active(samples, &active);
        let worst = (0..7)
            .filter(|&i| active[i] && coeff[i] < -1e-12)
            .min_by(|&a, &b| coeff[a].total_cmp(&coeff[b]));
        match worst {
            Some(i) => active[i] = false,
            None => {
                let mut out = [0.0; 7];
                for i in 0..7 {
                    out[i] = if active[i] { coeff[i].max(0.0) } else { 0.0 };
                }
                return out;
            }
        }
    }
}

/// The unconstrained weighted fit restricted to the active feature columns
/// (inactive columns are fixed at zero): normal equations
/// `(XᵀWX + λI) c = XᵀWy` with a tiny ridge, Gaussian elimination with
/// partial pivoting.
fn fit_active(samples: &[Sample], active: &[bool; 7]) -> [f64; 7] {
    let mut xtx = [[0.0f64; 7]; 7];
    let mut xty = [0.0f64; 7];
    for s in samples {
        let w = 1.0 / s.y.max(1.0).powi(2);
        for i in 0..7 {
            if !active[i] {
                continue;
            }
            xty[i] += w * s.x[i] * s.y;
            for j in 0..7 {
                if active[j] {
                    xtx[i][j] += w * s.x[i] * s.x[j];
                }
            }
        }
    }
    let ridge = 1e-9 * (0..7).map(|i| xtx[i][i]).sum::<f64>().max(1e-12);
    for i in 0..7 {
        // Inactive columns get an identity row, pinning their coefficient
        // to zero without degenerating the system.
        xtx[i][i] += if active[i] { ridge } else { 1.0 };
    }

    let mut a = [[0.0f64; 8]; 7];
    for i in 0..7 {
        a[i][..7].copy_from_slice(&xtx[i]);
        a[i][7] = xty[i];
    }
    for col in 0..7 {
        let pivot = (col..7)
            .max_by(|&p, &q| a[p][col].abs().total_cmp(&a[q][col].abs()))
            .expect("non-empty range");
        a.swap(col, pivot);
        let diag = a[col][col];
        assert!(diag.abs() > 0.0, "singular normal equations despite the ridge");
        let pivot_row = a[col];
        for (row, r) in a.iter_mut().enumerate() {
            if row == col {
                continue;
            }
            let factor = r[col] / diag;
            for (rk, pk) in r[col..].iter_mut().zip(&pivot_row[col..]) {
                *rk -= factor * pk;
            }
        }
    }
    let mut coeff = [0.0f64; 7];
    for i in 0..7 {
        coeff[i] = a[i][7] / a[i][i];
    }
    coeff
}

/// Prints fit quality: R² plus mean relative error, the quantity the
/// `auto` router's ranking actually depends on.
fn report_fit(solver: &str, samples: &[Sample], coeff: &[f64; 7]) {
    let n = samples.len() as f64;
    let mean_y = samples.iter().map(|s| s.y).sum::<f64>() / n;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    let mut rel = 0.0;
    for s in samples {
        let pred: f64 = coeff.iter().zip(s.x).map(|(c, x)| c * x).sum::<f64>().max(1.0);
        ss_res += (s.y - pred).powi(2);
        ss_tot += (s.y - mean_y).powi(2);
        rel += ((s.y - pred).abs() / s.y.max(1.0)).min(10.0);
    }
    let r2 = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };
    println!(
        "{solver:<32} {:>4} samples   R² = {r2:.4}   mean |rel err| = {:.1}%",
        samples.len(),
        100.0 * rel / n
    );
}
