//! `oef_bench` — the perf spine: four named workloads, client-side
//! end-to-end metrics, a per-layer table and a traced run.
//!
//! ```text
//! oef_bench                                  # all four workloads, both passes, tables
//! oef_bench --workload W --seed S --seconds T --trace 0|1   # one run, JSON last line
//! oef_bench --workload W --seed S --rounds N                # the same, a fixed round count
//! oef_bench --repeat N                       # N suites, spread vs bound per metric
//! oef_bench --smoke                          # tiny sizes (what the tier-1 test runs)
//! ```
//!
//! Every run of one workload happens in its own process (the suite re-execs
//! this binary), so `oef_trace::profile`'s statics and `VmHWM` start clean.
//! See `README.md` next to this file for the metric glossary.

mod daemon;
mod e2e;
mod layers;
mod oracle;
mod script;
mod stats;

use e2e::Limit;
use layers::{Samples, Spans};
use script::{Spec, WORKLOADS};
use stats::Summary;
use std::process::ExitCode;

/// End-to-end metrics: name, unit, better-direction, regression bound (share
/// of the parent's median).  Mirrored in `BENCHMARK.json`.
const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("cmd_per_s", "1/s", "higher", 0.20),
    ("tick_p50_ms", "ms", "lower", 0.20),
    ("stall_ms", "ms", "lower", 0.20),
    ("recovery_s", "s", "lower", 0.20),
    ("est_throughput", "1/round", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.20),
];

/// Per-layer metrics (`layer.metric`): name, unit, better-direction.
const PER_LAYER: [(&str, &str, &str); 62] = [
    ("codec.encode_request_us", "us", "lower"),
    ("codec.decode_request_us", "us", "lower"),
    ("codec.encode_reply_tick_ms", "ms", "lower"),
    ("codec.decode_reply_tick_ms", "ms", "lower"),
    ("codec.reply_tick_bytes", "bytes", "lower"),
    ("codec.decode_reply_ns_per_byte", "ns/B", "lower"),
    ("server.roundtrip_p50_us", "us", "lower"),
    ("server.roundtrip_p99_us", "us", "lower"),
    ("server.queue_wait_us", "us", "lower"),
    ("server.reply_write_us", "us", "lower"),
    ("server.handoff_us", "us", "lower"),
    ("server.busy_replies", "count", "lower"),
    ("server.tick_residual_ms", "ms", "lower"),
    ("service.apply_tick_ms", "ms", "lower"),
    ("service.apply_update_us", "us", "lower"),
    ("service.apply_join_us", "us", "lower"),
    ("service.apply_leave_us", "us", "lower"),
    ("service.apply_submit_us", "us", "lower"),
    ("service.status_ms", "ms", "lower"),
    ("service.metrics_ms", "ms", "lower"),
    ("engine.step_self_ms", "ms", "lower"),
    ("policy.solve_ms", "ms", "lower"),
    ("policy.allocate_cold_ms", "ms", "lower"),
    ("policy.warm_hit_rate", "ratio", "higher"),
    ("policy.overcommitted_rounds", "count", "lower"),
    ("lp.warm_solves", "count", "lower"),
    ("lp.cold_solves", "count", "lower"),
    ("lp.dense_fallbacks", "count", "lower"),
    ("lp.basis_repairs", "count", "lower"),
    ("lp.churn_repairs", "count", "lower"),
    ("lp.refactorizations", "count", "lower"),
    ("lp.eta_pivots", "count", "lower"),
    ("lp.pivots_per_tick", "count", "lower"),
    ("lp.work_units_per_tick", "count", "lower"),
    ("lp.counts_mismatch", "count", "lower"),
    ("journal.apply_overhead_us", "us", "lower"),
    ("journal.append_us", "us", "lower"),
    ("journal.sync_ms", "ms", "lower"),
    ("journal.bytes_per_cmd", "bytes", "lower"),
    ("journal.fsyncs", "count", "lower"),
    ("journal.checkpoint_ms", "ms", "lower"),
    ("journal.snapshot_encode_ms", "ms", "lower"),
    ("journal.snapshot_bytes", "bytes", "lower"),
    ("journal.restore_snapshot_ms", "ms", "lower"),
    ("journal.replay_us_per_record", "us", "lower"),
    ("journal.replayed_records", "count", "lower"),
    ("journal.recover_ms", "ms", "lower"),
    ("journal.recovery_model_ms", "ms", "lower"),
    ("shard.rebalance_ms", "ms", "lower"),
    ("shard.migrations", "count", "higher"),
    ("shard.forwarding_depth", "count", "lower"),
    ("shard.job_spread", "count", "lower"),
    ("obs.render_ms", "ms", "lower"),
    ("obs.attach_overhead_pct", "%", "lower"),
    ("trace.harness_overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.rounds", "count", "higher"),
    ("client.cmd_per_s_gross", "1/s", "higher"),
    ("client.cmd_per_s_traced", "1/s", "higher"),
    ("client.tick_traced_p50_ms", "ms", "lower"),
    ("client.tick_p90_ms", "ms", "lower"),
    ("client.ops_failed", "count", "lower"),
];

/// One run's result, as the benchmark contract wants it.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value)`; units come from the tables above.
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    #[cfg(test)]
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// The last stdout line of a run: one JSON object with exactly
    /// `correct`, `attempted`, `failed`, `metrics`.
    fn json(&self, units: &dyn Fn(&str) -> &'static str) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    units(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

fn e2e_unit(name: &str) -> &'static str {
    END_TO_END.iter().find(|m| m.0 == name).map_or("", |m| m.1)
}

fn layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1)
}

fn print_summary(name: &str, unit: &str, samples: &[f64]) {
    match Summary::of(samples) {
        Some(s) => println!(
            "  {name:<30} p50 {:>11.3} {unit:<5} n={:<6} q1 {:.3} q3 {:.3} p90 {:.3} p{} {:.3} max {:.3}",
            s.p50,
            s.n,
            s.q1,
            s.q3,
            s.p90,
            s.tail_p * 100.0,
            s.tail,
            s.max
        ),
        None => println!("  {name:<30} (no samples on this workload)"),
    }
}

fn print_header(spec: &Spec, seed: u64, pass: &str, embedded: bool) {
    let link = if embedded {
        "embedded: un-journaled federation, apply called on the caller's thread".to_string()
    } else {
        format!(
            "journal fsync_every={} compact_every={} segment_records={}; closed loop, 1 client, \
             1 connection",
            daemon::JOURNAL.fsync_every,
            daemon::JOURNAL.compact_every,
            daemon::JOURNAL.segment_records
        )
    };
    println!(
        "== {} [{pass}] seed {seed}: {} x {} tenants, policy {}, {link}, {} CPU(s) visible",
        spec.name,
        spec.shards,
        spec.tenants / spec.shards,
        spec.policy,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!("   why: {}", spec.why);
}

fn print_failure(failed: u64, attempted: u64, first: Option<&str>) {
    println!("  ops_failed {failed} of ops_attempted {attempted}");
    if let Some(first) = first {
        println!("  first failure: {first}");
    }
}

/// The untraced pass: the end-to-end metrics of one workload.
fn run_e2e(spec: &Spec, seed: u64, limit: Limit, stall_samples: usize) -> Outcome {
    print_header(spec, seed, "end-to-end, tracing off", spec.embedded);
    let (setup_s, mut live) = e2e::setup(spec, seed);
    let e2e::Live { link, driver, gen } = &mut live;
    let mut m = e2e::measure(driver, gen, limit, !spec.embedded, &mut |c| link.call(c));
    let peak_rss_mb = e2e::peak_rss_mb();
    oracle::check_final_round(spec, driver, None);
    if !spec.embedded {
        m.provoke_stalls(driver, gen, stall_samples, &mut |c| link.call(c));
    }
    let (hash, ops) = live.gen.fingerprint();
    let (mut attempted, mut failed) = (live.driver.attempted, live.driver.failed);
    let mut first_failure = live.driver.first_failure().map(str::to_string);
    live.link.stop();

    println!(
        "  script fnv1a {hash:016x} over {ops} ops; measured {} rounds, {} commands in {:.3} s, \
         {} checkpoint(s) in the window, {} provoked after it",
        m.rounds,
        m.commands,
        m.wall_secs,
        m.checkpoints().0,
        m.checkpoints().1
    );
    print_summary("tick latency (all ticks)", "ms", &m.tick_ms);
    let (stall_ms, recovery_s) = if spec.embedded {
        let (export_ms, restore_s, twin) = e2e::export_restore(spec);
        attempted += twin.attempted;
        failed += twin.failed;
        first_failure = first_failure.or(twin.first_failure().map(str::to_string));
        (export_ms, restore_s)
    } else {
        // The crash twin replays a fixed reference script: `recovery_s` prices
        // the journal's restore + replay, and with `--seed`-dependent tails the
        // solve times inside the replayed ticks alone spread `churn_large`'s
        // recovery by 19 % across seeds.
        let pair = layers::pair_pass(spec, script::POPULATION_SEED, 0, None);
        attempted += pair.attempted;
        failed += pair.failed;
        first_failure = first_failure.or(pair.first_failure);
        println!(
            "  recovery: {} records replayed per recovery, runs {:?} s",
            pair.replayed, pair.recover_secs
        );
        (m.stall_ms(), stats::median(&pair.recover_secs))
    };
    println!(
        "  cmd_per_s of the window as it fell {:.1}, between its stalls {:.1}; median of its K \
         largest latencies {:.3} ms; hypervisor steal during the phase {:.2} %",
        m.cmd_per_s_gross(),
        m.cmd_per_s_net(),
        m.top_k_ms,
        m.steal_pct
    );
    let outcome = Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_s),
            ("cmd_per_s", m.cmd_per_s()),
            ("tick_p50_ms", m.tick_quantile_ms(0.5)),
            ("stall_ms", stall_ms),
            ("recovery_s", recovery_s),
            ("est_throughput", m.est_throughput),
            ("peak_rss_mb", peak_rss_mb),
        ],
    };
    for (name, value) in &outcome.metrics {
        println!("  {name:<30} {value:>15.6} {}", e2e_unit(name));
    }
    print_failure(failed, attempted, first_failure.as_deref());
    outcome
}

/// The traced pass: per-layer metrics of one workload.  `limit` is a quarter
/// of the untraced pass's.
fn run_traced(spec: &Spec, seed: u64, limit: Limit) -> Outcome {
    print_header(spec, seed, "traced + in-process layers", false);
    let mut spans = Spans::new();
    let mut traced = Samples::default();

    // 1. Over TCP, through the harness's own line client.
    let tcp = e2e::Tcp::start(spec, "traced");
    let mut line =
        layers::LineClient::connect(tcp.server.local_addr()).expect("line client connects");
    let mut live = e2e::Live::start(spec, seed, e2e::Link::Tcp(Box::new(tcp)));
    let lp_before = layers::read_metrics(&mut |c| live.link.call(c));
    let queue_before = layers::phase_totals("queue_wait");
    let write_before = layers::phase_totals("reply_write");
    let tcp = e2e::measure(&mut live.driver, &mut live.gen, limit, true, &mut |c| {
        line.call(c, &mut spans, &mut traced)
    });
    let queue_wait_us = layers::phase_mean_us(queue_before, layers::phase_totals("queue_wait"));
    let reply_write_us = layers::phase_mean_us(write_before, layers::phase_totals("reply_write"));
    let lp_after = layers::read_metrics(&mut |c| live.link.call(c));
    let lp_tcp = layers::lp_delta(&lp_before, &lp_after);
    // The same daemon, same client code path as the untraced run, for the
    // tracing overhead of the harness itself.
    let half = match limit {
        Limit::Seconds(s) => Limit::Seconds(s / 2.0),
        Limit::Rounds(r) => Limit::Rounds(r.div_ceil(2)),
    };
    let e2e::Live { link, driver, gen } = &mut live;
    let untraced = e2e::measure(driver, gen, half, true, &mut |c| link.call(c));
    let cold_ms = oracle::check_final_round(spec, &mut live.driver, Some(&mut spans));
    let (mut attempted, mut failed) = (live.driver.attempted, live.driver.failed);
    let first_failure = live.driver.first_failure().map(str::to_string);
    let overcommitted = live.driver.overcommitted_rounds;
    live.link.stop();

    // 2. In process, one thread: every layer as its own span.
    let pair = layers::pair_pass(spec, seed, tcp.rounds, Some(&mut spans));
    attempted += pair.attempted;
    failed += pair.failed;
    let mismatches = pair.lp.iter().zip(&lp_tcp).filter(|(a, b)| a != b).count() as u64;
    failed += mismatches;

    // 3. What observability costs when attached.
    let obs_pairs = if matches!(limit, Limit::Rounds(_)) {
        2
    } else {
        10
    };
    let obs = layers::obs_pass(spec, seed, obs_pairs, &mut spans);

    let p50 = |s: &Samples, metric: &str| Summary::p50_or_zero(Summary::of(s.get(metric)));
    let layer = &pair.samples;
    let roundtrip = Summary::of(traced.get("server.roundtrip_us"));
    let tick_pieces_ms =
        (p50(layer, "codec.encode_request_us") + p50(layer, "codec.decode_request_us")) * 1e-3
            + p50(layer, "service.apply_tick_ms")
            + p50(layer, "codec.encode_reply_tick_ms")
            + p50(layer, "codec.decode_reply_tick_ms");
    let tick_traced = p50(&traced, "traced.tick_cmd_ms");
    let recover_ms = stats::median(&pair.recover_secs) * 1e3;
    let restore_ms = p50(layer, "journal.restore_snapshot_ms");
    let replay_us = p50(layer, "journal.replay_us_per_record");
    let reply_bytes = p50(layer, "codec.reply_tick_bytes");
    let decode_tick_ms = p50(layer, "codec.decode_reply_tick_ms");

    let mut metrics: Vec<(&'static str, f64)> = vec![
        (
            "codec.encode_request_us",
            p50(layer, "codec.encode_request_us"),
        ),
        (
            "codec.decode_request_us",
            p50(layer, "codec.decode_request_us"),
        ),
        (
            "codec.encode_reply_tick_ms",
            p50(layer, "codec.encode_reply_tick_ms"),
        ),
        ("codec.decode_reply_tick_ms", decode_tick_ms),
        ("codec.reply_tick_bytes", reply_bytes),
        (
            "codec.decode_reply_ns_per_byte",
            if reply_bytes > 0.0 {
                decode_tick_ms * 1e6 / reply_bytes
            } else {
                0.0
            },
        ),
        ("server.roundtrip_p50_us", Summary::p50_or_zero(roundtrip)),
        (
            "server.roundtrip_p99_us",
            roundtrip.map_or(0.0, |s| if s.tail_p >= 0.99 { s.tail } else { s.p90 }),
        ),
        ("server.queue_wait_us", queue_wait_us),
        ("server.reply_write_us", reply_write_us),
        (
            "server.handoff_us",
            // What a non-tick round trip spends outside sockets and thread
            // hand-off: request decode and the served (journaled) apply.
            Summary::p50_or_zero(roundtrip)
                - p50(layer, "journaled.apply_command_us")
                - p50(layer, "codec.decode_request_us"),
        ),
        ("server.busy_replies", line.busy_replies as f64),
        ("server.tick_residual_ms", tick_traced - tick_pieces_ms),
        ("service.apply_tick_ms", p50(layer, "service.apply_tick_ms")),
        (
            "service.apply_update_us",
            p50(layer, "service.apply_update_us"),
        ),
        ("service.apply_join_us", p50(layer, "service.apply_join_us")),
        (
            "service.apply_leave_us",
            p50(layer, "service.apply_leave_us"),
        ),
        (
            "service.apply_submit_us",
            p50(layer, "service.apply_submit_us"),
        ),
        ("service.status_ms", p50(layer, "service.status_ms")),
        ("service.metrics_ms", p50(layer, "service.metrics_ms")),
        ("engine.step_self_ms", p50(layer, "engine.step_self_ms")),
        ("policy.solve_ms", p50(layer, "policy.solve_ms")),
        (
            "policy.allocate_cold_ms",
            Summary::p50_or_zero(Summary::of(&cold_ms)),
        ),
        ("policy.warm_hit_rate", pair.warm_hit_rate),
        (
            "policy.overcommitted_rounds",
            (overcommitted + pair.overcommitted_rounds) as f64,
        ),
    ];
    metrics.extend(
        layers::LP_COUNTERS
            .iter()
            .zip(pair.lp)
            .map(|(name, count)| (*name, count as f64)),
    );
    metrics.extend([
        ("lp.pivots_per_tick", obs.pivots_per_tick),
        ("lp.work_units_per_tick", obs.work_units_per_tick),
        ("lp.counts_mismatch", mismatches as f64),
        (
            "journal.apply_overhead_us",
            p50(layer, "journaled.apply_us") - p50(layer, "coordinator.apply_us"),
        ),
        ("journal.append_us", p50(layer, "journal.append_us")),
        ("journal.sync_ms", p50(layer, "journal.sync_ms")),
        ("journal.bytes_per_cmd", pair.journal_bytes_per_cmd),
        ("journal.fsyncs", pair.journal_fsyncs as f64),
        ("journal.checkpoint_ms", p50(layer, "journal.checkpoint_ms")),
        (
            "journal.snapshot_encode_ms",
            p50(layer, "journal.snapshot_encode_ms"),
        ),
        ("journal.snapshot_bytes", pair.snapshot_bytes as f64),
        ("journal.restore_snapshot_ms", restore_ms),
        ("journal.replay_us_per_record", replay_us),
        ("journal.replayed_records", pair.replayed as f64),
        ("journal.recover_ms", recover_ms),
        (
            "journal.recovery_model_ms",
            restore_ms + pair.replayed as f64 * replay_us * 1e-3,
        ),
        ("shard.rebalance_ms", p50(layer, "shard.rebalance_ms")),
        ("shard.migrations", pair.shard.migrations as f64),
        ("shard.forwarding_depth", pair.shard.forwarding_depth as f64),
        ("shard.job_spread", pair.shard.job_spread as f64),
        ("obs.render_ms", obs.render_ms),
        ("obs.attach_overhead_pct", obs.attach_overhead_pct),
        (
            "trace.harness_overhead_pct",
            (untraced.cmd_per_s_net() / tcp.cmd_per_s_net() - 1.0) * 100.0,
        ),
        ("trace.spans", spans.len() as f64),
        ("trace.rounds", tcp.rounds as f64),
        ("client.cmd_per_s_gross", untraced.cmd_per_s_gross()),
        ("client.cmd_per_s_traced", tcp.cmd_per_s_net()),
        ("client.tick_traced_p50_ms", tick_traced),
        ("client.tick_p90_ms", untraced.tick_quantile_ms(0.9)),
        ("client.ops_failed", failed as f64),
    ]);

    let trace_path = daemon::output_dir().join(format!("{}.trace.json", spec.name));
    if let Err(e) =
        std::fs::create_dir_all(daemon::output_dir()).and_then(|()| spans.write(&trace_path))
    {
        println!("  could not write {}: {e}", trace_path.display());
        failed += 1;
    }

    println!(
        "  traced {} rounds over TCP then in process; lp.* counts of the two passes {}",
        tcp.rounds,
        if mismatches == 0 {
            "agree exactly"
        } else {
            "DISAGREE"
        }
    );
    for (metric, unit) in [("server.roundtrip_us", "us"), ("traced.tick_cmd_ms", "ms")] {
        print_summary(metric, unit, traced.get(metric));
    }
    for (metric, samples) in &layer.0 {
        // Helper series (`journaled.apply_us`, …) carry their unit as suffix.
        let unit = match layer_unit(metric) {
            "" => metric.rsplit('_').next().unwrap_or(""),
            unit => unit,
        };
        print_summary(metric, unit, samples);
    }
    println!(
        "  spans ({} recorded, written to {}):",
        spans.len(),
        trace_path.display()
    );
    println!(
        "    {:<26} {:>8} {:>12} {:>12}",
        "name", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in spans.self_times() {
        println!("    {name:<26} {count:>8} {total:>12.3} {own:>12.3}");
    }
    println!(
        "  tick accounting: traced tick {tick_traced:.3} ms = layer pieces {tick_pieces_ms:.3} ms \
         + sockets and hand-off {:.3} ms",
        tick_traced - tick_pieces_ms
    );
    println!(
        "  recovery accounting: recover {recover_ms:.1} ms vs restore {restore_ms:.1} ms + {} x \
         {replay_us:.1} us = {:.1} ms",
        pair.replayed,
        restore_ms + pair.replayed as f64 * replay_us * 1e-3
    );
    for (name, value) in &metrics {
        println!("  {name:<30} {value:>15.4} {}", layer_unit(name));
    }
    print_failure(
        failed,
        attempted,
        first_failure.as_deref().or(pair.first_failure.as_deref()),
    );
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Checkpoint stalls every full-size untraced run observes (the window's own
/// plus provoked ones) for `stall_ms`.
const STALL_SAMPLES: usize = 4;

/// Sizes of one run: `--smoke` swaps populations and wall-clock limits for
/// tiny fixed round counts; `--rounds` swaps only the limit, so two runs of
/// one seed do identical work (exact `lp.*` counts and `est_throughput`).
#[derive(Clone, Copy)]
struct Sizing {
    smoke: bool,
    seconds: f64,
    rounds: Option<u64>,
}

impl Sizing {
    fn run(&self, spec: Spec, seed: u64, trace: bool) -> Outcome {
        let spec = if self.smoke { spec.smoke() } else { spec };
        // The traced pass runs a quarter of the untraced one.
        let limit = |share: f64| match self.rounds {
            Some(rounds) => Limit::Rounds((rounds as f64 * share).ceil() as u64),
            None => Limit::Seconds(self.seconds * share),
        };
        let outcome = match (trace, self.smoke) {
            (false, false) => run_e2e(&spec, seed, limit(1.0), STALL_SAMPLES),
            (false, true) => run_e2e(&spec, seed, Limit::Rounds(30), 0),
            (true, false) => run_traced(&spec, seed, limit(0.25)),
            (true, true) => run_traced(&spec, seed, Limit::Rounds(8)),
        };
        daemon::remove_scratch();
        outcome
    }
}

/// Re-execs this binary for one run and parses the JSON on its last line.
fn run_child(workload: &str, seed: u64, sizing: Sizing, trace: bool) -> Option<serde_json::Value> {
    let exe = std::env::current_exe().expect("own path is known");
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &sizing.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(rounds) = sizing.rounds {
        command.args(["--rounds", &rounds.to_string()]);
    }
    if sizing.smoke {
        command.arg("--smoke");
    }
    let output = command.output().expect("child process spawns");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last()?;
    let value: serde_json::Value = serde_json::from_str(last).ok()?;
    output.status.success().then_some(value)
}

fn child_metric(result: &serde_json::Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// All four workloads, both passes each; true when every run was correct.
fn run_suite(seed: u64, sizing: Sizing) -> bool {
    let mut ok = true;
    for spec in WORKLOADS {
        for trace in [false, true] {
            let result = run_child(spec.name, seed, sizing, trace);
            ok &= result.is_some();
        }
    }
    println!(
        "suite: {}",
        if ok { "every check passed" } else { "FAILED" }
    );
    ok
}

/// `--repeat N`: N untraced suites on N seeds; per metric x workload the
/// min/median/max and the spread the contract gates on (IQR as a share of
/// the median) against the metric's bound.
fn run_repeat(seed: u64, sizing: Sizing, repeats: u64) -> bool {
    let mut ok = true;
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for spec in WORKLOADS {
        let mut runs: Vec<serde_json::Value> = Vec::new();
        for i in 0..repeats {
            match run_child(spec.name, seed + i, sizing, false) {
                Some(result) => runs.push(result),
                None => ok = false,
            }
        }
        for (name, ..) in END_TO_END {
            let values = runs.iter().filter_map(|r| child_metric(r, name)).collect();
            table.push((format!("{} {name}", spec.name), values));
        }
    }
    println!(
        "\n{:<36} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload metric", "min", "median", "max", "spread", "bound"
    );
    for ((label, values), (.., bound)) in table.iter().zip(END_TO_END.iter().cycle()) {
        let Some(s) = Summary::of(values) else {
            println!("{label:<36} (no successful run)");
            continue;
        };
        let spread = stats::iqr_share(values);
        // setup_s is gated on its median only; every other metric must also
        // hold its spread inside the bound.
        let pass = spread <= *bound || label.ends_with("setup_s");
        ok &= pass;
        println!(
            "{label:<36} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>6.0}%  {}",
            stats::min(values),
            s.p50,
            s.max,
            spread * 100.0,
            bound * 100.0,
            if pass {
                "PASS"
            } else {
                "FAIL (spread wider than bound)"
            }
        );
    }
    ok
}

const USAGE: &str = "usage: oef_bench [--workload W] [--seed S] [--seconds T | --rounds N] \
                     [--trace 0|1] [--repeat N] [--smoke]";

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut seed = 1u64;
    let mut sizing = Sizing {
        smoke: false,
        seconds: 15.0,
        rounds: None,
    };
    let mut trace = false;
    let mut repeat: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} wants {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")),
            "--seed" => seed = value("a number").parse().expect("--seed wants a number"),
            "--seconds" => {
                sizing.seconds = value("a number").parse().expect("--seconds wants a number")
            }
            "--rounds" => {
                sizing.rounds = Some(value("a count").parse().expect("--rounds wants a count"))
            }
            "--trace" => trace = value("0 or 1") == "1",
            "--repeat" => repeat = Some(value("a count").parse().expect("--repeat wants a count")),
            "--smoke" => sizing.smoke = true,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let ok = match (workload, repeat) {
        (Some(name), _) => {
            let Some(spec) = Spec::by_name(&name) else {
                eprintln!(
                    "unknown workload `{name}` (known: {})",
                    WORKLOADS.map(|w| w.name).join(", ")
                );
                return ExitCode::from(2);
            };
            let outcome = sizing.run(spec, seed, trace);
            println!(
                "{}",
                outcome.json(if trace { &layer_unit } else { &e2e_unit })
            );
            outcome.correct()
        }
        (None, Some(repeats)) => run_repeat(seed, sizing, repeats),
        (None, None) => run_suite(seed, sizing),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tier-1 keeps the harness and its oracle alive: all four workloads at
    /// `--smoke` sizes, both passes, every declared metric reported, zero
    /// failed operations.
    #[test]
    fn smoke_suite_passes_its_oracle() {
        let sizing = Sizing {
            smoke: true,
            seconds: 0.0,
            rounds: None,
        };
        for spec in WORKLOADS {
            let untraced = sizing.run(spec, 5, false);
            assert_eq!(untraced.failed, 0, "{} end-to-end", spec.name);
            for (name, ..) in END_TO_END {
                let v = untraced.value(name);
                assert!(v.is_finite() && v > 0.0, "{} {name} = {v}", spec.name);
            }
            let traced = sizing.run(spec, 5, true);
            assert_eq!(traced.failed, 0, "{} traced", spec.name);
            for (name, ..) in PER_LAYER {
                assert!(traced.value(name).is_finite(), "{} {name}", spec.name);
            }
            assert_eq!(traced.value("lp.counts_mismatch"), 0.0, "{}", spec.name);
        }
    }

    /// The repository root: the nearest directory above this package that
    /// holds `BENCHMARK.json` (two up from `oef-bench`, five from the
    /// stand-alone package).
    fn repo_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file())
            .expect("the package lives inside the repository")
            .to_path_buf()
    }

    /// `BENCHMARK.json` is kept by hand; this pins it to the tables above.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let rows = |list: &str, keys: &[&str]| -> Vec<Vec<String>> {
            let list = doc.get(list).and_then(|l| l.as_array()).unwrap();
            list.iter()
                .map(|row| {
                    assert_eq!(row.as_object().unwrap().len(), keys.len(), "{row:?}");
                    keys.iter()
                        .map(|k| row.get(k).and_then(|v| v.as_str()).unwrap().to_string())
                        .collect()
                })
                .collect()
        };
        assert_eq!(
            rows("workloads", &["name", "why"]),
            WORKLOADS.map(|w| vec![w.name.to_string(), w.why.to_string()])
        );
        assert_eq!(
            rows("per_layer", &["name", "unit", "better"]),
            PER_LAYER.map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.to_string()])
        );
        let e2e = doc.get("end_to_end").and_then(|l| l.as_array()).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            let text = |k: &str| row.get(k).and_then(|v| v.as_str()).unwrap();
            assert_eq!(
                (text("name"), text("unit"), text("better")),
                (name, unit, better)
            );
            assert_eq!(
                row.get("bound").and_then(|v| v.as_f64()),
                Some(bound),
                "{name}"
            );
        }
        // `setup_s` carries the largest bound (the contract's cap); nothing
        // else goes past the issue's cap of 20 %.
        assert_eq!(END_TO_END[0], ("setup_s", "s", "lower", 0.25));
        assert!(END_TO_END[1..].iter().all(|m| m.3 <= 0.20));
    }

    /// The stand-alone package `BENCHMARK.json` builds must be the workspace's
    /// build of the same sources: only path dependencies the `oef-bench`
    /// crate has too, and the default release profile on both sides.
    #[test]
    fn standalone_manifest_builds_what_the_workspace_builds() {
        let root = repo_root();
        let read = |p: &str| std::fs::read_to_string(root.join(p)).unwrap();
        let standalone = read("crates/bench/src/bin/oef_bench/Cargo.toml");
        let workspace = read("Cargo.toml");
        let bench = read("crates/bench/Cargo.toml");
        let deps = standalone.split("[dependencies]").nth(1).unwrap();
        for line in deps.lines().filter(|l| l.contains('=')) {
            let (name, source) = line.split_once('=').unwrap();
            let path = source
                .split('"')
                .nth(1)
                .unwrap()
                .trim_start_matches("../../../../");
            assert!(
                bench.contains(&format!("{}.workspace = true", name.trim())),
                "{line}"
            );
            assert!(workspace.contains(&format!("crates/{path}\" }}")), "{line}");
        }
        for manifest in [&standalone, &workspace] {
            assert!(!manifest.contains("[profile.release]") && !manifest.contains("[patch"));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25), ("cmd_per_s", 1e3)],
        };
        let line = outcome.json(&e2e_unit);
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(child_metric(&parsed, "setup_s"), Some(0.25));
        assert_eq!(
            parsed
                .get("metrics")
                .unwrap()
                .get("cmd_per_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("1/s")
        );
    }
}
