//! `perfbench`: the repository's benchmark of the MaxRS service.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--smoke] [--corrupt-reference]
//! ```
//!
//! Boots `PATH serve --threads 2 --seed N` as a child process and drives one
//! workload over one keep-alive connection (see `workload.rs`).  With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! replays the same seeded operations layer by layer and prints the
//! per-layer metrics (see `traced.rs`).  The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  Any failed
//! operation, wrong answer or failed reconciliation exits non-zero.

mod drive;
mod oracle;
mod server;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use mrs_core::engine::{EngineConfig, Registry};
use mrs_server::full_registry;

use drive::{drive, median, quantile, set_up};
use oracle::{static_references, Checker};
use server::Server;
use workload::{Kind, Sizes, Spec, Step};

/// Set-ups per end-to-end run, each on a fresh server; `setup_s` is their
/// median.
const SETUPS: usize = 3;

/// Equal slices of the measured window.  `ops_per_s` and `read_p50_ms` are
/// medians over the slices, so one stall of the shared machine moves one
/// slice, not the run.
const SLICES: usize = 10;

pub struct Args {
    pub server: PathBuf,
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub corrupt_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut server = None;
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sizes = Sizes::FULL;
    let mut corrupt_reference = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            sizes = Sizes::SMOKE;
            i += 1;
            continue;
        }
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or(format!("{flag} needs a value"))?;
        match flag {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes,
        corrupt_reference,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Printed beside the value (sample counts and the like).
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, note: String::new() }
    }

    pub fn noted(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// What a run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Failures outside the counted operations (set-up answers, the traced
    /// pass's reconciliation).
    pub other_failures: usize,
    /// Metrics that go into the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed by name but kept out of the result line.
    pub printed_only: Vec<Metric>,
}

/// The registry the server builds for `--seed` (same engine config).
pub fn registry(seed: u64) -> Registry {
    full_registry(EngineConfig::practical(0.25).with_seed(seed))
}

/// The end-to-end run: `SETUPS` set-ups, then the measured window.
fn run_end_to_end(args: &Args) -> Result<Outcome, String> {
    let registry = registry(args.seed);
    let spec = Spec::new(args.kind, args.seed, args.sizes, &registry);
    let mut checker = Checker::new(&spec, static_references(&spec, &registry));
    // Every set-up runs on a freshly booted server, so each pays the same
    // cold costs and the measured server's memory holds one set-up's.
    let mut setups = Vec::with_capacity(SETUPS);
    let (server, mut client) = loop {
        let server = Server::boot(&args.server, args.seed)?;
        let mut client = server.connect()?;
        setups.push(set_up(&mut client, &spec, &mut checker)?.as_secs_f64());
        if setups.len() == SETUPS {
            break (server, client);
        }
    };
    let setup_failures = checker.failures.len();
    checker.corrupt = args.corrupt_reference;
    // Peak RSS once everything is resident.  At the end of the window it
    // also counts what `line-update`'s writes left behind, which grows with
    // the number of writes a run completes: a throughput gain would read
    // as a memory regression.  That figure is printed only.
    let peak_rss_mb = server.peak_rss_mb()?;
    let mut stream = spec.stream();
    let (samples, wall) =
        drive(&mut client, &spec, &mut stream, Duration::from_secs_f64(args.seconds))?;
    let peak_rss_end_mb = server.peak_rss_mb()?;
    drop(client);
    drop(server);

    let mut failed = 0;
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut ops = 0;
    // Per slice of the window: operations, and read latencies.
    let slice = wall.as_secs_f64() / SLICES as f64;
    let mut slices: Vec<(usize, Vec<f64>)> = vec![(0, Vec::new()); SLICES];
    for sample in &samples {
        failed += checker.check_step(&sample.step, &sample.responses);
        ops += sample.step.ops();
        let ms = sample.latency.as_secs_f64() * 1e3;
        let at = ((sample.at.as_secs_f64() / slice) as usize).min(SLICES - 1);
        slices[at].0 += sample.step.ops();
        match &sample.step {
            Step::Write(_) => writes.push(ms),
            // Every request of a pipelined burst gets the burst's
            // write-to-last-response time.
            step => {
                reads.extend(std::iter::repeat_n(ms, step.ops()));
                slices[at].1.extend(std::iter::repeat_n(ms, step.ops()));
            }
        }
    }
    let slice_rates: Vec<f64> = slices.iter().map(|(n, _)| *n as f64 / slice).collect();
    let slice_p50s: Vec<f64> = slices.iter().map(|(_, r)| median(r)).collect();
    // The p99 of each run of at least 1000 consecutive reads (so each has
    // ten samples beyond it), then their median: one stall of the shared
    // machine then moves one group, not the run's tail.
    let groups = (reads.len() / 1000).clamp(1, SLICES);
    let group_p99s: Vec<f64> =
        reads.chunks(reads.len().div_ceil(groups).max(1)).map(|g| quantile(g, 0.99)).collect();
    let n = |v: &Vec<f64>| format!("n={}", v.len());
    let mut metrics = vec![
        Metric::new("ops_per_s", median(&slice_rates), "1/s")
            .noted(format!("median of {SLICES} slices; {ops} ops in {:.3} s", wall.as_secs_f64())),
        Metric::new("read_p50_ms", median(&slice_p50s), "ms")
            .noted(format!("median of {SLICES} slice medians; {}", n(&reads))),
        Metric::new("setup_s", median(&setups), "s").noted(format!("median of {setups:.3?}")),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB").noted("server VmHWM after set-up".into()),
    ];
    // The tail of sub-millisecond reads swings with the host's load far
    // beyond any bound a regression gate may use (run-to-run spreads of
    // 0.5 to 1.0 on `cached-pipelined` and `line-update`), so it is
    // printed, not gated.
    let mut printed_only = vec![
        Metric::new("read_p99_ms", median(&group_p99s), "ms").noted(format!(
            "median over {} group(s) of reads; {}",
            group_p99s.len(),
            n(&reads)
        )),
        Metric::new("peak_rss_end_mb", peak_rss_end_mb, "MiB")
            .noted("server VmHWM at the end of the window".into()),
    ];
    if !writes.is_empty() {
        // Only `line-update` writes; the result line carries the metrics
        // every workload has, so the write latencies are printed only.
        printed_only.push(Metric::new("write_p50_ms", median(&writes), "ms").noted(n(&writes)));
        printed_only
            .push(Metric::new("write_p99_ms", quantile(&writes, 0.99), "ms").noted(n(&writes)));
    }
    printed_only.push(
        Metric::new("error_rate", failed as f64 / ops.max(1) as f64, "ratio")
            .noted(format!("{failed} of {ops} failed")),
    );
    metrics.sort_by_key(|m| m.name);
    Ok(Outcome { attempted: ops, failed, other_failures: setup_failures, metrics, printed_only })
}

fn print_outcome(args: &Args, outcome: &Outcome) -> bool {
    let correct = outcome.failed == 0 && outcome.other_failures == 0;
    println!(
        "perfbench {} seed={} seconds={} trace={}: {} ops attempted, {} failed{}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        if outcome.other_failures > 0 {
            format!(", {} other check(s) failed", outcome.other_failures)
        } else {
            String::new()
        }
    );
    for m in outcome.metrics.iter().chain(&outcome.printed_only) {
        println!("  {:<34} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!(r#""{}":{{"value":{},"unit":"{}"}}"#, m.name, m.value, m.unit))
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace { traced::run(&args) } else { run_end_to_end(&args) };
    match outcome {
        Ok(outcome) if outcome.metrics.iter().all(|m| m.value.is_finite()) => {
            if print_outcome(&args, &outcome) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(_) => {
            eprintln!("perfbench: a metric is not a finite number");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
