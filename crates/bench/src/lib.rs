//! # mrs-bench — workload generators and measurement helpers
//!
//! Shared infrastructure for the experiment runner (`src/bin/experiments.rs`,
//! which prints the paper-reproduction tables E1–E11), the serving load
//! generator, the kernel gate, the cost-model calibrator and the repository's
//! benchmark (`perfbench/`).  Nothing here is specific to a single
//! experiment: the generators produce the uniform / clustered /
//! planted-optimum workloads the paper's scenarios describe (hotspots,
//! trajectories, customer clusters), and the measurement helpers time
//! closures and format result tables.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Synthetic workload generators.
pub mod workloads {
    use mrs_batched::LinePoint;
    use mrs_geom::{ColoredSite, Point, Point2, WeightedPoint};
    use rand::prelude::*;

    /// Uniform unit-weight points in `[0, extent]²`.
    pub fn uniform_points_2d(n: usize, extent: f64, seed: u64) -> Vec<WeightedPoint<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                WeightedPoint::unit(Point2::xy(
                    rng.gen_range(0.0..extent),
                    rng.gen_range(0.0..extent),
                ))
            })
            .collect()
    }

    /// Uniform weighted points in `[0, extent]²` with weights in `[0.5, 3)`.
    pub fn uniform_weighted_2d(n: usize, extent: f64, seed: u64) -> Vec<WeightedPoint<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                WeightedPoint::new(
                    Point2::xy(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)),
                    rng.gen_range(0.5..3.0),
                )
            })
            .collect()
    }

    /// Clustered unit-weight points: `clusters` Gaussian-ish hotspots of
    /// radius `spread` scattered in `[0, extent]²` (the hotspot workloads of
    /// the paper's motivating applications).
    pub fn clustered_points_2d(
        n: usize,
        clusters: usize,
        extent: f64,
        spread: f64,
        seed: u64,
    ) -> Vec<WeightedPoint<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Point2> = (0..clusters.max(1))
            .map(|_| Point2::xy(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
            .collect();
        (0..n)
            .map(|_| {
                let c = centers[rng.gen_range(0..centers.len())];
                WeightedPoint::unit(Point2::xy(
                    c.x() + rng.gen_range(-spread..spread),
                    c.y() + rng.gen_range(-spread..spread),
                ))
            })
            .collect()
    }

    /// Uniform unit-weight points in `[0, extent]^D`.
    pub fn uniform_points_d<const D: usize>(
        n: usize,
        extent: f64,
        seed: u64,
    ) -> Vec<WeightedPoint<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut p = Point::<D>::origin();
                for i in 0..D {
                    p[i] = rng.gen_range(0.0..extent);
                }
                WeightedPoint::unit(p)
            })
            .collect()
    }

    /// Colored sites grouped into clusters: each cluster draws its sites from
    /// a random subset of the color palette (the trajectory-style workloads of
    /// Section 1.3).
    pub fn colored_clusters_2d(
        n: usize,
        colors: usize,
        clusters: usize,
        extent: f64,
        spread: f64,
        seed: u64,
    ) -> Vec<ColoredSite<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Point2> = (0..clusters.max(1))
            .map(|_| Point2::xy(rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)))
            .collect();
        (0..n)
            .map(|_| {
                let c = centers[rng.gen_range(0..centers.len())];
                ColoredSite::new(
                    Point2::xy(
                        c.x() + rng.gen_range(-spread..spread),
                        c.y() + rng.gen_range(-spread..spread),
                    ),
                    rng.gen_range(0..colors.max(1)),
                )
            })
            .collect()
    }

    /// A colored workload with a *planted* optimum: `opt` distinct colors, each
    /// with many duplicate sites, packed inside one unit disk at the origin;
    /// the remaining sites are spread thinly (at most 3 colors per far-away
    /// mini-cluster) so no other placement comes close.  Used by the
    /// output-sensitive experiment (E7): the dense cluster makes candidate
    /// enumeration quadratic in the cluster size, while the per-color unions
    /// collapse its boundary complexity to `O(opt)`.
    pub fn colored_planted_opt(n: usize, opt: usize, seed: u64) -> Vec<ColoredSite<2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sites = Vec::with_capacity(n);
        let opt = opt.max(1);
        // Half the sites form the planted hotspot, cycling through the `opt`
        // planted colors so every color appears several times.
        let hotspot = (n / 2).max(opt).min(n);
        for i in 0..hotspot {
            sites.push(ColoredSite::new(
                Point2::xy(rng.gen_range(-0.4..0.4), rng.gen_range(-0.4..0.4)),
                i % opt,
            ));
        }
        // Background: isolated mini-clusters of at most 3 colors each, far from
        // the planted optimum and from each other.
        let mut cluster = 0usize;
        while sites.len() < n {
            cluster += 1;
            let cx = 10.0 + 5.0 * (cluster % 97) as f64;
            let cy = 10.0 + 5.0 * (cluster / 97) as f64;
            for k in 0..3 {
                if sites.len() >= n {
                    break;
                }
                sites.push(ColoredSite::new(
                    Point2::xy(cx + rng.gen_range(-0.4..0.4), cy + rng.gen_range(-0.4..0.4)),
                    opt + (cluster * 3 + k) % opt.max(3),
                ));
            }
        }
        sites
    }

    /// Weighted points on the line, uniform in `[0, extent]`.
    pub fn line_points(n: usize, extent: f64, seed: u64) -> Vec<LinePoint> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| LinePoint::new(rng.gen_range(0.0..extent), rng.gen_range(0.5..2.0)))
            .collect()
    }

    /// A random real sequence for the convolution experiments.
    pub fn random_sequence(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }
}

/// Canonical batch-execution workloads: the E11 experiment measures them, and
/// `tests/engine_dispatch.rs` checks batch answers against per-query solves
/// on them.
pub mod batch {
    use mrs_core::engine::{
        BatchExecutor, BatchQuery, BatchReport, ColoredInstance, ProblemKind, RangeShape, Registry,
        TraceRecorder, VersionedDataset, WeightedInstance,
    };
    use mrs_geom::{ColoredSite, Point, WeightedPoint};

    use crate::workloads;

    /// One batch workload: a weighted point set, a colored site set, and
    /// the queries to answer over them.
    pub struct Workload<const D: usize> {
        /// The weighted points.
        pub points: Vec<WeightedPoint<D>>,
        /// The colored sites.
        pub sites: Vec<ColoredSite<D>>,
        /// The queries, in order.
        pub queries: Vec<BatchQuery<D>>,
    }

    impl<const D: usize> Workload<D> {
        /// Answers every query over a fresh dataset (version 1, nothing
        /// built yet), so each call pays the cold index builds.
        pub fn run_cold(&self, executor: &BatchExecutor<'_>) -> BatchReport<D> {
            let dataset = VersionedDataset::new(self.points.clone(), self.sites.clone());
            executor.execute_versioned_traced(
                &dataset,
                &self.queries,
                &mut TraceRecorder::disabled(),
            )
        }
    }

    /// A mixed planar batch: `n` clustered weighted points and `n` clustered
    /// colored sites, with `m` queries cycling exact disk / exact rectangle /
    /// exact colored disk at slowly varying sizes.  The colored queries use
    /// smaller radii — the output-sensitive solver's cost grows steeply with
    /// the covered cluster size, and it dominates the batch otherwise.
    pub fn mixed_planar_request(n: usize, m: usize, seed: u64) -> Workload<2> {
        let points = workloads::clustered_points_2d(n, 6, 20.0, 1.2, seed);
        let sites = workloads::colored_clusters_2d(n, 30, 6, 20.0, 1.2, seed ^ 0x9E37);
        let queries = (0..m)
            .map(|i| {
                let size = 0.8 + 0.01 * (i % 40) as f64;
                match i % 3 {
                    0 => BatchQuery::weighted("exact-disk-2d", RangeShape::ball(size)),
                    1 => BatchQuery::weighted("exact-rect-2d", RangeShape::rect(size, size)),
                    _ => BatchQuery::colored(
                        "output-sensitive-colored-disk",
                        RangeShape::ball(0.25 + 0.005 * (i % 40) as f64),
                    ),
                }
            })
            .collect();
        Workload { points, sites, queries }
    }

    /// The Theorem 1.3 amortization workload: `m` interval lengths over one
    /// set of `n` line points, all answered by the index-sharing
    /// `batched-interval-1d` solver (requires a registry with the
    /// `mrs-batched` solvers registered).
    pub fn interval_lengths_request(n: usize, m: usize, seed: u64) -> Workload<1> {
        let points: Vec<WeightedPoint<1>> = workloads::line_points(n, 1000.0, seed)
            .into_iter()
            .map(|p| WeightedPoint::new(Point::new([p.x]), p.weight))
            .collect();
        let queries = (0..m)
            .map(|i| {
                let length = 1.0 + 499.0 * (i as f64 + 0.5) / m as f64;
                BatchQuery::weighted("batched-interval-1d", RangeShape::interval(length))
            })
            .collect();
        Workload { points, sites: Vec::new(), queries }
    }

    /// The one-at-a-time baseline the batch executor is measured against:
    /// dispatch every query sequentially with a fresh instance each (what a
    /// naive caller writes).  Returns the number of successful answers.
    ///
    /// # Panics
    /// Panics if a query names a solver the registry cannot resolve.
    pub fn solve_one_at_a_time<const D: usize>(
        registry: &Registry,
        workload: &Workload<D>,
    ) -> usize {
        let mut ok = 0;
        for query in &workload.queries {
            let success = match query.problem {
                ProblemKind::Weighted => {
                    let instance = WeightedInstance::new(workload.points.clone(), query.shape);
                    registry
                        .weighted::<D>(&query.solver)
                        .expect("workload names a registered solver")
                        .solve(&instance)
                        .is_ok()
                }
                ProblemKind::Colored => {
                    let instance = ColoredInstance::new(workload.sites.clone(), query.shape);
                    registry
                        .colored::<D>(&query.solver)
                        .expect("workload names a registered solver")
                        .solve(&instance)
                        .is_ok()
                }
            };
            ok += success as usize;
        }
        ok
    }
}

/// The canonical serving workload: dataset CSV generators and the mixed
/// Zipf query pool, shared by the `serve_loadgen` CI gates and `perfbench`
/// so both send the same traffic.
pub mod serve {
    use rand::prelude::*;

    /// The 1-D canonical dataset: clustered weighted events on a line,
    /// rendered as `x,weight` CSV.
    pub fn line_csv(n: usize, seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        let extent = 1_000.0;
        let centers: Vec<f64> = (0..20).map(|_| rng.gen_range(0.0..extent)).collect();
        let mut csv = String::with_capacity(n * 16);
        for _ in 0..n {
            let c = centers[rng.gen_range(0..centers.len())];
            let x = c + rng.gen_range(-15.0..15.0);
            let weight = rng.gen_range(0.5..3.0);
            csv.push_str(&format!("{x:.5},{weight:.3}\n"));
        }
        csv
    }

    /// The planar mixed-workload dataset: clustered weighted+colored points,
    /// rendered as batch CSV (`x,y,weight,color`).
    pub fn planar_csv(n: usize, seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2D);
        let extent = 100.0;
        let centers: Vec<(f64, f64)> =
            (0..12).map(|_| (rng.gen_range(0.0..extent), rng.gen_range(0.0..extent))).collect();
        let mut csv = String::with_capacity(n * 24);
        for i in 0..n {
            let (cx, cy) = centers[rng.gen_range(0..centers.len())];
            let x = cx + rng.gen_range(-3.0..3.0);
            let y = cy + rng.gen_range(-3.0..3.0);
            let weight = rng.gen_range(0.5..3.0);
            csv.push_str(&format!("{x:.4},{y:.4},{weight:.3},{}\n", i % 50));
        }
        csv
    }

    /// The mixed-solver query pool the Zipfian workload draws from: exact
    /// planar rectangle and colored-rectangle queries over the planar dataset
    /// (named `loadgen`) plus 1-D interval queries (batched and independent)
    /// over the line dataset (named `loadgen1d`).  All pool solvers are exact
    /// with sub-second solves at the pool's dataset sizes.  The colored
    /// *disk* solvers stay out: on a 2,000-point set of this shape, the
    /// output-sensitive one took 1.08–1.33 s per query at r = 1 (served,
    /// cache off, 2 shared vCPUs), so they are exercised by the smoke tests
    /// instead.
    pub fn query_pool(size: usize) -> Vec<String> {
        let mut pool = Vec::with_capacity(size);
        for i in 0..size {
            let step = (i / 4) as f64;
            let body = match i % 4 {
                0 => format!(
                    r#"{{"dataset":"loadgen1d","solver":"batched-interval-1d","shape":{{"interval":{}}}}}"#,
                    10.0 + step
                ),
                1 => format!(
                    r#"{{"dataset":"loadgen","solver":"exact-rect-2d","shape":{{"box":[{},{}]}}}}"#,
                    2.0 + 0.5 * step,
                    1.0 + 0.25 * step
                ),
                2 => format!(
                    r#"{{"dataset":"loadgen","solver":"exact-colored-rect-2d","shape":{{"box":[{},{}]}}}}"#,
                    3.0 + 0.25 * step,
                    2.0 + 0.25 * step
                ),
                _ => format!(
                    r#"{{"dataset":"loadgen1d","solver":"exact-interval-1d","shape":{{"interval":{}}}}}"#,
                    20.0 + step
                ),
            };
            pool.push(body);
        }
        pool
    }

    /// One record of the canonical 1-D update mix: a weighted event near a
    /// random hotspot center, deterministic in `(seed, i)`.  Shared by the
    /// `serve_loadgen` update-mix phase and `perfbench`'s `line-update`
    /// workload, so both mutate the same stream.
    pub fn line_update_record(seed: u64, i: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C0 ^ i.wrapping_mul(0x9E3779B97F4A7C15));
        let center = rng.gen_range(0.0..1_000.0f64);
        (center + rng.gen_range(-15.0..15.0), rng.gen_range(0.5..3.0))
    }

    /// Draws one Zipf(1.1) index over `weights.len()` entries.
    pub fn zipf_pick(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
        let mut pick = rng.gen_range(0.0..total);
        for (j, w) in weights.iter().enumerate() {
            if pick < *w {
                return j;
            }
            pick -= w;
        }
        0
    }

    /// The Zipf(1.1) weights over a pool of the given size.
    pub fn zipf_weights(size: usize) -> Vec<f64> {
        (0..size).map(|i| 1.0 / ((i + 1) as f64).powf(1.1)).collect()
    }
}

/// Timing and table-formatting helpers for the experiment runner.
pub mod measure {
    use std::time::{Duration, Instant};

    /// Runs `f` once and returns its result together with the elapsed time.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed())
    }

    /// Runs `f` `reps` times and returns the mean duration (result discarded).
    pub fn time_mean<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
        assert!(reps > 0);
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        start.elapsed() / reps as u32
    }

    /// Formats a duration in milliseconds with two decimals.
    pub fn ms(d: Duration) -> String {
        format!("{:.2}", d.as_secs_f64() * 1e3)
    }

    /// Formats a duration in microseconds with two decimals.
    pub fn us(d: Duration) -> String {
        format!("{:.2}", d.as_secs_f64() * 1e6)
    }

    /// Prints a table header followed by a separator row.
    pub fn table_header(title: &str, columns: &[&str]) {
        println!("\n### {title}");
        println!("| {} |", columns.join(" | "));
        println!("|{}|", columns.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    }

    /// Prints one table row.
    pub fn table_row(cells: &[String]) {
        println!("| {} |", cells.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_requested_sizes() {
        assert_eq!(workloads::uniform_points_2d(100, 10.0, 1).len(), 100);
        assert_eq!(workloads::clustered_points_2d(64, 4, 10.0, 1.0, 2).len(), 64);
        assert_eq!(workloads::uniform_points_d::<5>(32, 4.0, 3).len(), 32);
        assert_eq!(workloads::colored_clusters_2d(50, 8, 3, 10.0, 1.0, 4).len(), 50);
        assert_eq!(workloads::line_points(20, 10.0, 5).len(), 20);
        assert_eq!(workloads::random_sequence(16, -1.0, 1.0, 6).len(), 16);
    }

    #[test]
    fn planted_opt_workload_really_plants_the_optimum() {
        use mrs_core::technique2::output_sensitive_colored_disk;
        let sites = workloads::colored_planted_opt(200, 24, 7);
        assert_eq!(sites.len(), 200);
        let placement = output_sensitive_colored_disk(&sites, 1.0);
        assert_eq!(placement.distinct, 24, "the planted cluster must be the optimum");
    }

    #[test]
    fn colored_sites_use_the_requested_palette() {
        let sites = workloads::colored_clusters_2d(200, 9, 4, 10.0, 1.0, 8);
        assert!(sites.iter().all(|s| s.color < 9));
    }

    #[test]
    fn batch_workloads_execute_end_to_end() {
        use mrs_core::engine::{BatchExecutor, Registry};
        let workload = batch::mixed_planar_request(120, 9, 3);
        assert_eq!(workload.queries.len(), 9);
        let registry = Registry::default();
        assert_eq!(batch::solve_one_at_a_time(&registry, &workload), 9);
        let report = workload.run_cold(&BatchExecutor::new(&registry));
        assert!(report.all_ok());
        assert_eq!(report.stats.certify_failures, 0);

        let mut registry = Registry::default();
        mrs_batched::engine::register(&mut registry);
        let line = batch::interval_lengths_request(200, 8, 4);
        let report = line.run_cold(&BatchExecutor::new(&registry));
        assert!(report.all_ok());
        // Longer intervals never cover less weight.
        let values: Vec<f64> =
            (0..8).map(|i| report.weighted(i).unwrap().placement.value).collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1] + 1e-9), "{values:?}");
    }

    #[test]
    fn timing_helpers_are_sane() {
        let (value, elapsed) = measure::time(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(elapsed.as_secs() < 1);
        let mean = measure::time_mean(3, || 1 + 1);
        assert!(mean.as_secs() < 1);
    }
}
