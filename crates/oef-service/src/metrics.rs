//! The daemon's metrics registry, built on `oef-obs` primitives.
//!
//! Counters and the solve-latency histogram are `Arc`-backed atomics
//! ([`oef_obs::Counter`] / [`oef_obs::Histogram`]): the worker thread bumps
//! them on every command, and — once [`ServiceMetrics::register_front`] /
//! [`ServiceMetrics::register_shard`] hook them into a shared
//! [`oef_obs::Registry`] — the `/metrics` listener renders the *same* cells
//! without copying, sorting or locking the hot path.  Percentiles come from
//! fixed log-spaced buckets by nearest-rank interpolation (no more
//! clone-and-sort of a latency ring on every export), so a `Metrics` command
//! costs O(buckets), constant no matter how long the daemon runs.

use oef_obs::{Counter, Gauge, Histogram, Registry, DEFAULT_LATENCY_BUCKETS};

/// Mutable counters backing the `Metrics` wire report and (when registered)
/// the Prometheus exposition endpoint.
#[derive(Debug)]
pub struct ServiceMetrics {
    commands_processed: Counter,
    commands_rejected: Counter,
    rounds_solved: Counter,
    jobs_completed: Counter,
    last_solve: Gauge,
    solve_hist: Histogram,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self {
            commands_processed: Counter::new(),
            commands_rejected: Counter::new(),
            rounds_solved: Counter::new(),
            jobs_completed: Counter::new(),
            last_solve: Gauge::new(),
            solve_hist: Histogram::new(DEFAULT_LATENCY_BUCKETS),
        }
    }
}

impl ServiceMetrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the outcome of one command (`accepted == false` for
    /// validation/admission rejections).
    pub fn record_command(&mut self, accepted: bool) {
        if accepted {
            self.commands_processed.inc();
        } else {
            self.commands_rejected.inc();
        }
    }

    /// Records one completed scheduling round and its solver latency.  When
    /// the round ran under a sampled trace, the observation is pinned to its
    /// histogram bucket as an OpenMetrics exemplar so dashboards can jump
    /// from a latency spike straight to the trace that caused it.
    pub fn record_round(&mut self, solver_secs: f64) {
        self.rounds_solved.inc();
        self.last_solve.set(solver_secs);
        match oef_trace::current_trace_id() {
            Some(id) => self
                .solve_hist
                .observe_with_exemplar(solver_secs, &oef_trace::format_id(id)),
            None => self.solve_hist.observe(solver_secs),
        }
    }

    /// Commands accepted so far.
    pub fn commands_processed(&self) -> u64 {
        self.commands_processed.value()
    }

    /// Commands rejected so far.
    pub fn commands_rejected(&self) -> u64 {
        self.commands_rejected.value()
    }

    /// Rounds solved so far.
    pub fn rounds_solved(&self) -> u64 {
        self.rounds_solved.value()
    }

    /// Records jobs that completed and were pruned from the live state (the
    /// state keeps only unfinished jobs; this counter is their history).
    pub fn record_jobs_completed(&mut self, count: u64) {
        self.jobs_completed.add(count);
    }

    /// Jobs completed over the service's lifetime.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed.value()
    }

    /// Latency of the most recent solve, in seconds.
    pub fn last_solve_secs(&self) -> f64 {
        self.last_solve.value()
    }

    /// Latency percentile (`p` in `[0, 1]`) over the histogram buckets:
    /// nearest rank, linearly interpolated inside the containing bucket; 0
    /// when no round has been solved yet.
    pub fn solve_percentile(&self, p: f64) -> f64 {
        self.solve_hist.quantile(p)
    }

    /// Registers the front-door series (command throughput/rejections) in
    /// `registry`.  Call once, on the core that owns the daemon's command
    /// queue — the federation coordinator, never its shards.
    pub fn register_front(&self, registry: &Registry) {
        registry.register_counter(
            "oef_commands_processed_total",
            "Commands accepted by the daemon.",
            &[],
            &self.commands_processed,
        );
        registry.register_counter(
            "oef_commands_rejected_total",
            "Commands rejected by validation or admission control.",
            &[],
            &self.commands_rejected,
        );
    }

    /// Registers the per-shard solve series: the solve-latency histogram and
    /// last-solve gauge carry `{shard, policy, program}` (so dashboards can
    /// split cooperative from non-cooperative programs without joins), the
    /// round/job counters carry `{shard}` alone.
    pub fn register_shard(&self, registry: &Registry, shard: usize, policy: &str, program: &str) {
        let shard = shard.to_string();
        let solve_labels = [
            ("shard", shard.as_str()),
            ("policy", policy),
            ("program", program),
        ];
        let labels = [("shard", shard.as_str())];
        registry.register_histogram(
            "oef_solve_duration_seconds",
            "LP solve wall-clock time per scheduling round.",
            &solve_labels,
            &self.solve_hist,
        );
        registry.register_gauge(
            "oef_solve_last_seconds",
            "Latency of the most recent solve.",
            &solve_labels,
            &self.last_solve,
        );
        registry.register_counter(
            "oef_rounds_solved_total",
            "Scheduling rounds solved.",
            &labels,
            &self.rounds_solved,
        );
        registry.register_counter(
            "oef_jobs_completed_total",
            "Jobs that ran to completion and were pruned from live state.",
            &labels,
            &self.jobs_completed,
        );
    }

    /// Registers this instance's latency histogram as the coordinator's
    /// round fan-out time (wall clock of the parallel solve across all
    /// shards — a different quantity from any one shard's solve time).
    pub fn register_fanout(&self, registry: &Registry) {
        registry.register_histogram(
            "oef_round_fanout_seconds",
            "Wall-clock time of the coordinator's parallel tick fan-out across shards.",
            &[],
            &self.solve_hist,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = ServiceMetrics::new();
        m.record_command(true);
        m.record_command(true);
        m.record_command(false);
        assert_eq!(m.commands_processed(), 2);
        assert_eq!(m.commands_rejected(), 1);
    }

    #[test]
    fn percentiles_over_recorded_rounds() {
        let mut m = ServiceMetrics::new();
        assert_eq!(m.solve_percentile(0.5), 0.0);
        for i in 1..=100 {
            m.record_round(i as f64 / 1000.0);
        }
        assert_eq!(m.rounds_solved(), 100);
        assert!((m.solve_percentile(0.5) - 0.050).abs() < 2e-3);
        assert!((m.solve_percentile(0.99) - 0.099).abs() < 2e-3);
        assert!((m.last_solve_secs() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn memory_is_bounded_and_percentiles_saturate_at_the_top_bucket() {
        let mut m = ServiceMetrics::new();
        // Far more observations than any ring could hold: storage stays the
        // fixed bucket array, and outliers beyond the largest bound report
        // the largest finite bound.
        for i in 0..5000 {
            m.record_round(i as f64);
        }
        assert_eq!(m.rounds_solved(), 5000);
        let top = *DEFAULT_LATENCY_BUCKETS.last().expect("buckets");
        assert!((m.solve_percentile(0.99) - top).abs() < 1e-12);
        assert!((m.last_solve_secs() - 4999.0).abs() < 1e-12);
    }

    #[test]
    fn registered_series_render_from_the_live_cells() {
        let registry = Registry::new();
        let mut m = ServiceMetrics::new();
        m.register_front(&registry);
        m.register_shard(&registry, 3, "oef-cooperative", "cooperative");
        m.record_command(true);
        m.record_round(0.02);
        m.record_jobs_completed(4);
        let exposition = oef_obs::parse(&registry.render()).expect("must parse");
        assert_eq!(
            exposition.value("oef_commands_processed_total", &[]),
            Some(1.0)
        );
        assert_eq!(
            exposition.value("oef_rounds_solved_total", &[("shard", "3")]),
            Some(1.0)
        );
        assert_eq!(
            exposition.value("oef_jobs_completed_total", &[("shard", "3")]),
            Some(4.0)
        );
        // The solve series carry the policy/program split.
        let solve_labels = [
            ("shard", "3"),
            ("policy", "oef-cooperative"),
            ("program", "cooperative"),
        ];
        assert_eq!(
            exposition.value("oef_solve_duration_seconds_count", &solve_labels),
            Some(1.0)
        );
        assert_eq!(
            exposition.value("oef_solve_last_seconds", &solve_labels),
            Some(0.02)
        );
    }
}
