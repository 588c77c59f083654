//! # oef-obs — Prometheus-style observability for the scheduling middleware
//!
//! The daemon's metrics were JSON-over-ctl only; this crate gives every
//! long-running core a scrapeable face without adding a single external
//! dependency (the same offline discipline as `crates/shims/`):
//!
//! * [`Registry`] + [`Counter`] / [`Gauge`] / [`Histogram`] /
//!   [`GaugeFamily`] — a lock-cheap metric registry.  Handles are Arc-backed
//!   atomics the worker thread bumps; the only mutex guards registration and
//!   scrape-time rendering, so `/metrics` never blocks the command hot path.
//! * The **text exposition encoder** ([`Registry::render`]) — Prometheus
//!   text format v0.0.4: `# HELP`/`# TYPE` lines, escaped label values,
//!   histogram `_bucket`/`_sum`/`_count` triplets with a `+Inf` bucket.
//! * A **strict exposition parser** ([`parse`]) — the in-repo `promtool`
//!   stand-in that tests, `oef_bench` and the CI smoke step run against
//!   every scrape (rejects malformed lines, non-cumulative buckets, missing
//!   `+Inf`, duplicate series, negative counters).
//! * [`MetricsServer`] — a minimal hand-rolled HTTP/1.1 GET responder over
//!   std-TCP serving `/metrics` and `/healthz` on its own listener
//!   (`oef-serviced --metrics-addr`).
//!
//! ```
//! use oef_obs::{MetricsServer, Registry, DEFAULT_LATENCY_BUCKETS};
//!
//! let registry = Registry::new();
//! let solves = registry.histogram(
//!     "oef_solve_duration_seconds",
//!     "LP solve wall-clock time per round.",
//!     &[("shard", "0")],
//!     DEFAULT_LATENCY_BUCKETS,
//! );
//! solves.observe(0.012);
//!
//! let text = registry.render();
//! let exposition = oef_obs::parse(&text).unwrap();
//! assert_eq!(
//!     exposition.value("oef_solve_duration_seconds_count", &[("shard", "0")]),
//!     Some(1.0)
//! );
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
mod parse;
mod registry;

pub use http::{JsonSource, MetricsServer};
pub use parse::{parse, Exemplar, Exposition, MetricFamily, MetricKind, ParseError, Sample};
pub use registry::{
    escape_help, escape_label_value, fmt_value, AgeGauge, Counter, CounterFamily, Gauge,
    GaugeFamily, Histogram, Labels, Registry, DEFAULT_LATENCY_BUCKETS,
};
