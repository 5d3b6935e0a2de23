//! # mrs-server — the long-lived MaxRS query service
//!
//! One-shot `maxrs` invocations pay the whole pipeline — read the CSV,
//! parse it, build spatial indexes, solve — per query.  The rectangle
//! hardness line (Backurs–Dikkala–Tzamos style lower bounds) says per-query
//! solve cost is irreducibly superlinear, so the only road to serving real
//! traffic is to stop repeating everything *around* the solve:
//!
//! * **[`catalog`]** — named datasets stay resident as `Arc`-shared point
//!   sets, each with one catalog-owned
//!   [`SharedIndex`](mrs_core::engine::SharedIndex) whose structures are
//!   built at most once per dataset lifetime;
//! * **[`cache`]** — a sharded LRU over rendered answers keyed by
//!   `(dataset epoch, version, problem, solver, shape)`: repeated queries
//!   (the Zipfian head of real logs) skip the solver entirely, and epoch
//!   bumps on reload make stale answers unmatchable;
//! * **[`service`]** — the routed endpoints (`/solvers`, `/datasets/{name}`,
//!   `/query`, `/batch`, `/healthz`, `/stats`, `/metrics`, `/debug/traces`,
//!   `/shutdown`) over the hand-rolled [`http`] + [`json`] layers (std-only,
//!   no dependencies);
//! * **[`runtime`]** — connection I/O and graceful shutdown: an
//!   edge-triggered epoll reactor with pipelined keep-alive hands parsed
//!   requests to a worker pool that runs
//!   [`Service::handle`](service::Service::handle).  It needs epoll, so
//!   the server runs on Linux only;
//! * **[`metrics`]**, **[`trace`]** — the observability layer: lock-free
//!   counters and latency histograms per endpoint/solver/dataset, declared
//!   once in one table that renders both `GET /stats` (JSON) and
//!   `GET /metrics` (Prometheus text), and a bounded ring of phase-timed
//!   query traces served from `GET /debug/traces` and keyed by the
//!   `X-Request-Id` every response carries.
//!
//! ## Quick start
//!
//! ```no_run
//! use mrs_server::{serve, Client, ServerConfig};
//!
//! let server = serve(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServerConfig::default()
//! })
//! .expect("bind");
//! let mut client = Client::connect(server.addr()).expect("connect");
//! client.post("/datasets/demo", "0,0\n0.5,0\n9,9\n").expect("upload");
//! let (status, body) = client
//!     .post("/query", r#"{"dataset":"demo","solver":"exact-disk-2d","shape":{"ball":1.0}}"#)
//!     .expect("query");
//! assert_eq!(status, 200);
//! assert!(body.contains("\"value\":2"));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod catalog;
pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
#[cfg(target_os = "linux")]
mod reactor;
pub mod runtime;
pub mod service;
pub mod trace;

pub use cache::{AnswerCache, CacheCounters, CacheKey};
pub use catalog::{Catalog, CatalogError, Dataset};
pub use client::{Client, PipelineRequest, RetryCounters, RetryPolicy, RetryingClient};
pub use json::Json;
pub use runtime::{serve, serve_with, ServerHandle};
pub use service::{full_registry, ServerConfig, Service};
pub use trace::TraceRing;
