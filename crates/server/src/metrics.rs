//! Prometheus text-exposition rendering for `GET /metrics`.
//!
//! The server is std-only, so this is a hand-rolled renderer for the
//! [text exposition format](https://prometheus.io/docs/instrumenting/exposition_formats/):
//! `# HELP` / `# TYPE` headers, one sample per line, labels escaped, and —
//! for histograms — cumulative `_bucket{le="..."}` series that end in
//! `le="+Inf"` with `_count` and `_sum` companions.  All durations are
//! exported in **seconds** (the Prometheus convention); internally the
//! [`Histogram`]s count nanoseconds and the
//! bucket walk ([`Histogram::cumulative_le`]) maps the fine log-linear
//! buckets onto the coarse `le` ladder below without double counting, so
//! every rendered bucket series is monotone by construction and the
//! `+Inf` bucket always equals `_count`.
//!
//! Per-endpoint series always render **all** endpoints (a scrape before the
//! first `/query` still shows `maxrs_requests_total{endpoint="query"} 0`),
//! so dashboards never see label sets appear mid-flight.  Per-solver and
//! per-dataset series appear once the label has been observed.

use std::fmt::Write as _;
use std::time::Duration;

use mrs_core::engine::Histogram;

use crate::cache::CacheCounters;
use crate::catalog::Catalog;
use crate::stats::{ServerStats, ENDPOINTS};

/// The `le` upper bounds (in nanoseconds) every exported duration histogram
/// uses: a {1, 2.5, 5} ladder per decade from 10 µs to 10 s.  Wide enough
/// that p999 of a slow solve still lands in a finite bucket, coarse enough
/// that one scrape stays small.
pub const LE_BOUNDS_NS: [u64; 19] = [
    10_000, // 10 µs
    25_000,
    50_000,
    100_000, // 100 µs
    250_000,
    500_000,
    1_000_000, // 1 ms
    2_500_000,
    5_000_000,
    10_000_000, // 10 ms
    25_000_000,
    50_000_000,
    100_000_000, // 100 ms
    250_000_000,
    500_000_000,
    1_000_000_000, // 1 s
    2_500_000_000,
    5_000_000_000,
    10_000_000_000, // 10 s
];

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn fmt_secs(d: Duration) -> String {
    format!("{:.9}", d.as_secs_f64())
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders one histogram as a cumulative `_bucket`/`_sum`/`_count` series
/// under `name{labels}` (pass `labels` as `key="value"` pairs, or empty).
fn histogram_series(out: &mut String, name: &str, labels: &str, hist: &Histogram) {
    let cumulative = hist.cumulative_le(&LE_BOUNDS_NS);
    let sep = if labels.is_empty() { "" } else { "," };
    for (bound, le_count) in LE_BOUNDS_NS.iter().zip(&cumulative) {
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {le_count}",
            trim_float(secs(*bound))
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", hist.count());
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", fmt_secs(hist.sum()));
        let _ = writeln!(out, "{name}_count {}", hist.count());
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", fmt_secs(hist.sum()));
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", hist.count());
    }
}

/// Renders a float bound without a trailing `.0` noise tail (`0.01`, `2.5`,
/// `10`) — stable text for the exposition parser and for humans.
fn trim_float(v: f64) -> String {
    let mut s = format!("{v:.9}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

/// Renders the whole `/metrics` page.
pub fn render_metrics(stats: &ServerStats, catalog: &Catalog, cache: &CacheCounters) -> String {
    let mut out = String::with_capacity(16 * 1024);

    header(&mut out, "maxrs_uptime_seconds", "gauge", "Seconds since the server started.");
    let _ = writeln!(out, "maxrs_uptime_seconds {}", fmt_secs(stats.uptime()));

    // -- per-endpoint request counters and latency ------------------------
    header(
        &mut out,
        "maxrs_requests_total",
        "counter",
        "Requests handled, by endpoint (includes errors).",
    );
    for endpoint in ENDPOINTS {
        let _ = writeln!(
            out,
            "maxrs_requests_total{{endpoint=\"{}\"}} {}",
            endpoint.name(),
            stats.endpoint_histogram(endpoint).count()
        );
    }
    header(&mut out, "maxrs_request_errors_total", "counter", "Non-2xx responses, by endpoint.");
    for snapshot in stats.snapshots() {
        let _ = writeln!(
            out,
            "maxrs_request_errors_total{{endpoint=\"{}\"}} {}",
            snapshot.name, snapshot.errors
        );
    }
    header(
        &mut out,
        "maxrs_request_duration_seconds",
        "histogram",
        "End-to-end request handling time, by endpoint.",
    );
    for endpoint in ENDPOINTS {
        let labels = format!("endpoint=\"{}\"", endpoint.name());
        histogram_series(
            &mut out,
            "maxrs_request_duration_seconds",
            &labels,
            stats.endpoint_histogram(endpoint),
        );
    }

    // -- per-solver and per-dataset latency -------------------------------
    header(
        &mut out,
        "maxrs_solver_duration_seconds",
        "histogram",
        "Per-query solve time, by solver registry name.",
    );
    for (solver, hist) in stats.solver_histograms() {
        let labels = format!("solver=\"{}\"", escape_label(&solver));
        histogram_series(&mut out, "maxrs_solver_duration_seconds", &labels, &hist);
    }
    header(
        &mut out,
        "maxrs_dataset_query_duration_seconds",
        "histogram",
        "Per-query end-to-end time for executed (non-cache-hit) queries, by dataset.",
    );
    for (dataset, hist) in stats.dataset_histograms() {
        let labels = format!("dataset=\"{}\"", escape_label(&dataset));
        histogram_series(&mut out, "maxrs_dataset_query_duration_seconds", &labels, &hist);
    }

    // -- answer cache ------------------------------------------------------
    header(&mut out, "maxrs_cache_hits_total", "counter", "Answer-cache lookups that hit.");
    let _ = writeln!(out, "maxrs_cache_hits_total {}", cache.hits);
    header(&mut out, "maxrs_cache_misses_total", "counter", "Answer-cache lookups that missed.");
    let _ = writeln!(out, "maxrs_cache_misses_total {}", cache.misses);
    header(
        &mut out,
        "maxrs_cache_evictions_total",
        "counter",
        "Answer-cache entries evicted to make room.",
    );
    let _ = writeln!(out, "maxrs_cache_evictions_total {}", cache.evictions);
    header(
        &mut out,
        "maxrs_cache_invalidations_total",
        "counter",
        "Answer-cache entries purged by dataset version invalidation.",
    );
    let _ = writeln!(out, "maxrs_cache_invalidations_total {}", cache.invalidations);
    header(&mut out, "maxrs_cache_entries", "gauge", "Live answer-cache entries.");
    let _ = writeln!(out, "maxrs_cache_entries {}", cache.entries);
    header(&mut out, "maxrs_cache_capacity", "gauge", "Answer-cache capacity (entries).");
    let _ = writeln!(out, "maxrs_cache_capacity {}", cache.capacity);

    // -- auto-routing ------------------------------------------------------
    header(
        &mut out,
        "maxrs_auto_picks_total",
        "counter",
        "Queries routed by the auto meta-solver, by chosen solver.",
    );
    for (choice, n) in stats.auto_choice_counts() {
        let _ = writeln!(out, "maxrs_auto_picks_total{{choice=\"{}\"}} {n}", escape_label(choice));
    }
    header(
        &mut out,
        "maxrs_auto_predicted_work_total",
        "counter",
        "Work units the auto cost model predicted for its picks.",
    );
    let _ = writeln!(out, "maxrs_auto_predicted_work_total {}", stats.auto_predicted_work());
    header(
        &mut out,
        "maxrs_auto_actual_work_total",
        "counter",
        "Work units the auto picks actually performed.",
    );
    let _ = writeln!(out, "maxrs_auto_actual_work_total {}", stats.auto_actual_work());

    // -- overload & failure handling --------------------------------------
    header(
        &mut out,
        "maxrs_shed_total",
        "counter",
        "Requests shed by admission control with a 503 + Retry-After.",
    );
    let _ = writeln!(out, "maxrs_shed_total {}", stats.shed());
    header(
        &mut out,
        "maxrs_deadline_exceeded_total",
        "counter",
        "Queries that exceeded their compute deadline (typed 504s).",
    );
    let _ = writeln!(out, "maxrs_deadline_exceeded_total {}", stats.deadline_exceeded());
    header(
        &mut out,
        "maxrs_panics_total",
        "counter",
        "Handler panics caught and converted to well-formed 500s.",
    );
    let _ = writeln!(out, "maxrs_panics_total {}", stats.panics());
    header(
        &mut out,
        "maxrs_degraded_total",
        "counter",
        "Executed requests solved in overload degradation mode.",
    );
    let _ = writeln!(out, "maxrs_degraded_total {}", stats.degraded());
    header(
        &mut out,
        "maxrs_inflight",
        "gauge",
        "Compute requests (query/batch) currently being handled.",
    );
    let _ = writeln!(out, "maxrs_inflight {}", stats.inflight());

    // -- reactor counters -------------------------------------------------
    let reactor = stats.reactor();
    header(
        &mut out,
        "maxrs_reactor_wakeups_total",
        "counter",
        "epoll_wait returns that carried at least one readiness event.",
    );
    let _ = writeln!(out, "maxrs_reactor_wakeups_total {}", reactor.wakeups);
    header(
        &mut out,
        "maxrs_reactor_readiness_events_total",
        "counter",
        "Readiness events delivered across all reactor wakeups.",
    );
    let _ = writeln!(out, "maxrs_reactor_readiness_events_total {}", reactor.readiness_events);
    header(
        &mut out,
        "maxrs_reactor_connections_accepted_total",
        "counter",
        "Connections accepted and registered by the reactor.",
    );
    let _ = writeln!(out, "maxrs_reactor_connections_accepted_total {}", reactor.accepted);
    header(
        &mut out,
        "maxrs_reactor_connections_closed_total",
        "counter",
        "Reactor connections closed (clean, error, eviction, or shutdown).",
    );
    let _ = writeln!(out, "maxrs_reactor_connections_closed_total {}", reactor.closed);
    header(
        &mut out,
        "maxrs_reactor_max_pipeline_depth",
        "gauge",
        "Highest unanswered pipelined request count seen on one connection.",
    );
    let _ = writeln!(out, "maxrs_reactor_max_pipeline_depth {}", reactor.max_pipeline_depth);
    header(
        &mut out,
        "maxrs_reactor_coalesced_write_bytes_total",
        "counter",
        "Bytes written as part of multi-response coalesced writes.",
    );
    let _ = writeln!(
        out,
        "maxrs_reactor_coalesced_write_bytes_total {}",
        reactor.coalesced_write_bytes
    );
    header(
        &mut out,
        "maxrs_reactor_spurious_wakeups_total",
        "counter",
        "Readiness events that carried no work (stale tokens, empty eventfd edges).",
    );
    let _ = writeln!(out, "maxrs_reactor_spurious_wakeups_total {}", reactor.spurious_wakeups);

    // -- engine work counters ---------------------------------------------
    header(
        &mut out,
        "maxrs_work_candidates_examined_total",
        "counter",
        "Candidate points examined through spatial-index queries.",
    );
    let _ = writeln!(out, "maxrs_work_candidates_examined_total {}", stats.candidates_examined());
    header(
        &mut out,
        "maxrs_work_grid_cells_visited_total",
        "counter",
        "Spatial-index grid cells visited.",
    );
    let _ = writeln!(out, "maxrs_work_grid_cells_visited_total {}", stats.grid_cells_visited());
    header(
        &mut out,
        "maxrs_work_sieve_rejected_total",
        "counter",
        "Candidates the widened f32 sieve rejected before exact verification.",
    );
    let _ = writeln!(out, "maxrs_work_sieve_rejected_total {}", stats.sieve_rejected());

    // -- per-dataset gauges ------------------------------------------------
    header(&mut out, "maxrs_dataset_points", "gauge", "Live points per resident dataset.");
    let datasets = catalog.datasets();
    for dataset in &datasets {
        let _ = writeln!(
            out,
            "maxrs_dataset_points{{dataset=\"{}\"}} {}",
            escape_label(dataset.name()),
            dataset.point_count()
        );
    }
    header(
        &mut out,
        "maxrs_dataset_version",
        "gauge",
        "Current dataset version (bumps on every mutation).",
    );
    for dataset in &datasets {
        let _ = writeln!(
            out,
            "maxrs_dataset_version{{dataset=\"{}\"}} {}",
            escape_label(dataset.name()),
            dataset.version()
        );
    }
    header(
        &mut out,
        "maxrs_dataset_compactions_total",
        "counter",
        "Delta-overlay compactions per dataset.",
    );
    for dataset in &datasets {
        let _ = writeln!(
            out,
            "maxrs_dataset_compactions_total{{dataset=\"{}\"}} {}",
            escape_label(dataset.name()),
            dataset.compactions()
        );
    }
    header(
        &mut out,
        "maxrs_dataset_compaction_seconds_total",
        "counter",
        "Wall time spent materializing compacted generations, per dataset.",
    );
    for dataset in &datasets {
        let _ = writeln!(
            out,
            "maxrs_dataset_compaction_seconds_total{{dataset=\"{}\"}} {}",
            escape_label(dataset.name()),
            fmt_secs(dataset.compaction_time())
        );
    }
    header(
        &mut out,
        "maxrs_dataset_index_builds_total",
        "counter",
        "Index structures built, per dataset.",
    );
    for dataset in &datasets {
        let _ = writeln!(
            out,
            "maxrs_dataset_index_builds_total{{dataset=\"{}\"}} {}",
            escape_label(dataset.name()),
            dataset.index_builds()
        );
    }
    header(
        &mut out,
        "maxrs_dataset_index_build_seconds_total",
        "counter",
        "Wall time spent building index structures, per dataset.",
    );
    for dataset in &datasets {
        let _ = writeln!(
            out,
            "maxrs_dataset_index_build_seconds_total{{dataset=\"{}\"}} {}",
            escape_label(dataset.name()),
            fmt_secs(dataset.index_build_time())
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Endpoint;

    #[test]
    fn renders_monotone_buckets_with_inf_equal_to_count() {
        let stats = ServerStats::new();
        for us in [50u64, 120, 900, 15_000, 400_000] {
            stats.record(Endpoint::Query, Duration::from_micros(us), true);
        }
        stats.record_solver("exact-disk-2d", Duration::from_micros(80));
        let catalog = Catalog::new();
        let cache = CacheCounters {
            hits: 3,
            misses: 5,
            evictions: 0,
            invalidations: 1,
            entries: 5,
            capacity: 64,
        };
        let text = render_metrics(&stats, &catalog, &cache);

        // Every endpoint label is present even before traffic touches it.
        for endpoint in ENDPOINTS {
            assert!(
                text.contains(&format!("maxrs_requests_total{{endpoint=\"{}\"}}", endpoint.name())),
                "endpoint {} missing",
                endpoint.name()
            );
        }
        assert!(text.contains("maxrs_cache_hits_total 3"));
        assert!(text.contains("maxrs_solver_duration_seconds_bucket{solver=\"exact-disk-2d\","));

        // The query-endpoint bucket series is monotone and ends at count.
        let prefix = "maxrs_request_duration_seconds_bucket{endpoint=\"query\",le=\"";
        let mut last = 0u64;
        let mut inf = None;
        for line in text.lines().filter(|l| l.starts_with(prefix)) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "bucket series must be monotone: {line}");
            last = value;
            if line.contains("le=\"+Inf\"") {
                inf = Some(value);
            }
        }
        assert_eq!(inf, Some(5), "+Inf bucket equals the sample count");
        assert!(text.contains("maxrs_request_duration_seconds_count{endpoint=\"query\"} 5"));
    }

    #[test]
    fn bounds_render_without_noise() {
        assert_eq!(trim_float(secs(10_000)), "0.00001");
        assert_eq!(trim_float(secs(2_500_000)), "0.0025");
        assert_eq!(trim_float(secs(10_000_000_000)), "10");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
