//! The traced run: a harness-side span recorder, a traced TCP pass through a
//! harness-owned line client, and the in-process layer pass that prices
//! every layer from outside by timing calls into public functions.
//!
//! Nothing inside the daemon is touched: spans are opened and closed here,
//! around `serde_json::{to_string, from_str}`, `CommandHandler::apply`,
//! `Journaled::{checkpoint, recover}`, `ShardCoordinator::{snapshot_json,
//! from_federated_json}` and `Registry::render`.

use crate::daemon::{self, Driver, JOURNAL};
use crate::oracle;
use crate::script::{Op, ScriptGen, Spec};
use oef_service::{Command, CommandHandler, MetricsReport, Reply, Request, Response};
use oef_shard::{Journaled, ShardCoordinator};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Journaled commands replayed by every timed recovery: half a checkpoint
/// interval, the expected tail of a crash at a uniformly random moment.
const RECOVERY_TAIL: u64 = JOURNAL.compact_every / 2;
/// Timed recoveries of the same crashed directory; `recovery_s` is their median.
const RECOVERIES: usize = 3;

/// One recorded interval.  `id` is the index + 1; `parent` 0 means root.
pub struct Span {
    pub parent: usize,
    pub name: &'static str,
    pub cmd_seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder, written out once when the run ends.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str, cmd_seq: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied().unwrap_or(0),
            name,
            cmd_seq,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len());
        self.spans.len()
    }

    /// Closes span `id` (which must be the innermost open one) and returns
    /// its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id - 1];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, cmd_seq: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, cmd_seq);
        let out = f();
        (out, self.exit(id))
    }

    /// Times `f`, as a leaf span when a recorder is given: the passes that run
    /// both traced and untraced share one code path through this.
    pub fn timed<T>(
        spans: Option<&mut Spans>,
        name: &'static str,
        cmd_seq: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        match spans {
            Some(spans) => spans.leaf(name, cmd_seq, f),
            None => {
                let started = Instant::now();
                let out = f();
                (out, started.elapsed().as_secs_f64())
            }
        }
    }

    /// Per span name: count, total ms, self ms (duration minus the part its
    /// children cover).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent] += s.end_ns - s.start_ns;
        }
        let mut table = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = table.entry(s.name).or_insert((0u64, 0.0, 0.0));
            row.0 += 1;
            row.1 += dur as f64 * 1e-6;
            row.2 += dur.saturating_sub(child_ns[i + 1]) as f64 * 1e-6;
        }
        table
    }

    /// Writes every span as one JSON array (see the README for the schema).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[")?;
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cmd_seq\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                i + 1,
                s.parent,
                s.name,
                s.cmd_seq,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.write_all(b"\n]\n")?;
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Timing samples keyed by the metric they feed, already in its unit.
#[derive(Default)]
pub struct Samples(pub BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.0.entry(metric).or_default().push(value);
    }

    pub fn get(&self, metric: &str) -> &[f64] {
        self.0.get(metric).map_or(&[], Vec::as_slice)
    }
}

/// The `lp.*` counters of a [`MetricsReport`], in the order the harness
/// prints them.  Exact integers: two passes over the same script prefix
/// must agree on every one.
pub const LP_COUNTERS: [&str; 7] = [
    "lp.warm_solves",
    "lp.cold_solves",
    "lp.dense_fallbacks",
    "lp.basis_repairs",
    "lp.churn_repairs",
    "lp.refactorizations",
    "lp.eta_pivots",
];

pub fn lp_counts(m: &MetricsReport) -> [u64; 7] {
    [
        m.warm_solves,
        m.cold_solves,
        m.dense_fallbacks,
        m.basis_repairs,
        m.churn_repairs,
        m.refactorizations,
        m.eta_pivots,
    ]
}

pub fn lp_delta(before: &MetricsReport, after: &MetricsReport) -> [u64; 7] {
    let (b, a) = (lp_counts(before), lp_counts(after));
    std::array::from_fn(|i| a[i] - b[i])
}

/// Reads the metrics registry through any handler (not a scripted op).
pub fn read_metrics(apply: &mut dyn FnMut(Command) -> Response) -> MetricsReport {
    match apply(Command::Metrics) {
        Response::Metrics(report) => report,
        other => panic!("Metrics answered with {other:?}"),
    }
}

/// Lifetime `(count, total_ns)` of one always-on profiler phase.
pub fn phase_totals(name: &str) -> (u64, u64) {
    oef_trace::profile::snapshot()
        .into_iter()
        .find(|p| p.name == name)
        .map_or((0, 0), |p| (p.life_count, p.life_total_ns))
}

/// Mean µs per occurrence of a profiler phase between two readings.
pub fn phase_mean_us(before: (u64, u64), after: (u64, u64)) -> f64 {
    let count = after.0 - before.0;
    if count == 0 {
        0.0
    } else {
        (after.1 - before.1) as f64 / count as f64 * 1e-3
    }
}

/// The harness's own wire client, built from the public codec pieces so each
/// leg of a command can be a span: encode → round trip → decode.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    pub busy_replies: u64,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineClient {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            next_id: 1,
            busy_replies: 0,
        })
    }

    /// One traced exchange.  A reply whose id does not echo the request's
    /// is a failed operation.
    pub fn call(&mut self, command: Command, spans: &mut Spans, samples: &mut Samples) -> Response {
        let id = self.next_id;
        self.next_id += 1;
        let is_tick = matches!(command, Command::Tick);
        let cmd = spans.enter("cmd", id);
        let (line, _) = spans.leaf("codec.encode_request", id, || {
            serde_json::to_string(&Request::new(id, command)).expect("requests serialize")
        });
        let (reply_line, roundtrip) = spans.leaf("server.roundtrip", id, || {
            let mut reply = String::new();
            writeln!(self.writer, "{line}")
                .and_then(|()| self.writer.flush())
                .and_then(|()| self.reader.read_line(&mut reply))
                .map(|_| reply)
        });
        let response = match reply_line {
            Err(e) => daemon::transport_error(e),
            Ok(reply_line) => {
                let (reply, _) = spans.leaf("codec.decode_reply", id, || {
                    serde_json::from_str::<Reply>(reply_line.trim_end())
                });
                match reply {
                    Ok(reply) if reply.id == id => reply.response,
                    Ok(reply) => daemon::transport_error(format!("reply id {} for {id}", reply.id)),
                    Err(e) => daemon::transport_error(e),
                }
            }
        };
        let total = spans.exit(cmd);
        if matches!(
            response,
            Response::Error {
                code: oef_service::ErrorCode::Busy,
                ..
            }
        ) {
            self.busy_replies += 1;
        }
        if is_tick {
            samples.push("traced.tick_cmd_ms", total * 1e3);
        } else {
            samples.push("server.roundtrip_us", roundtrip * 1e6);
        }
        response
    }
}

/// What the in-process twin pass found.
pub struct Pair {
    pub samples: Samples,
    /// `lp.*` deltas over the timed rounds (journaled side).
    pub lp: [u64; 7],
    pub warm_hit_rate: f64,
    /// Wall seconds of each timed `Journaled::recover` and what it replayed.
    pub recover_secs: Vec<f64>,
    pub replayed: usize,
    pub journal_bytes_per_cmd: f64,
    pub journal_fsyncs: u64,
    pub snapshot_bytes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub overcommitted_rounds: u64,
    pub shard: ShardFacts,
}

/// Federation facts read off the twin's final `Status`.
#[derive(Default)]
pub struct ShardFacts {
    pub migrations: u64,
    pub forwarding_depth: usize,
    pub job_spread: usize,
}

fn kind_metric(op: &Op) -> Option<&'static str> {
    match op {
        Op::Tick => Some("service.apply_tick_ms"),
        Op::Update { .. } => Some("service.apply_update_us"),
        Op::Join { .. } => Some("service.apply_join_us"),
        Op::Leave { .. } => Some("service.apply_leave_us"),
        Op::Submit { .. } => Some("service.apply_submit_us"),
        Op::Rebalance => Some("shard.rebalance_ms"),
        _ => None,
    }
}

/// One command through every in-process layer, each leg a span and a
/// sample: request codec → journaled apply (→ twin apply) → reply codec.
fn layered_step(
    op: &Op,
    command: Command,
    seq: u64,
    a: &mut Journaled,
    b: &mut ShardCoordinator,
    spans: &mut Spans,
    samples: &mut Samples,
) -> Response {
    let cmd = spans.enter("cmd", seq);
    let (line, t) = spans.leaf("codec.encode_request", seq, || {
        serde_json::to_string(&Request::new(seq, command.clone())).expect("requests serialize")
    });
    samples.push("codec.encode_request_us", t * 1e6);
    let (request, t) = spans.leaf("codec.decode_request", seq, || {
        serde_json::from_str::<Request>(&line).expect("own requests parse")
    });
    samples.push("codec.decode_request_us", t * 1e6);
    let (response, journaled_secs) =
        spans.leaf("journaled.apply", seq, || a.apply(request.command, 0));
    let (twin, twin_secs) = spans.leaf("coordinator.apply", seq, || b.apply(command, 0));
    if !matches!(op, Op::Status | Op::Metrics) {
        samples.push("journaled.apply_us", journaled_secs * 1e6);
        samples.push("coordinator.apply_us", twin_secs * 1e6);
    }
    if *op != Op::Tick {
        samples.push("journaled.apply_command_us", journaled_secs * 1e6);
    }
    if let Some(metric) = kind_metric(op) {
        let scale = if metric.ends_with("_ms") { 1e3 } else { 1e6 };
        samples.push(metric, twin_secs * scale);
    }
    if let Response::RoundCompleted(round) = &twin {
        samples.push("policy.solve_ms", round.solver_time_secs * 1e3);
        samples.push(
            "engine.step_self_ms",
            (twin_secs - round.solver_time_secs) * 1e3,
        );
    }
    let (reply_line, enc) = spans.leaf("codec.encode_reply", seq, || {
        serde_json::to_string(&Reply::new(seq, response)).expect("replies serialize")
    });
    let (reply, dec) = spans.leaf("codec.decode_reply", seq, || {
        serde_json::from_str::<Reply>(&reply_line).expect("own replies parse")
    });
    if *op == Op::Tick {
        samples.push("codec.encode_reply_tick_ms", enc * 1e3);
        samples.push("codec.decode_reply_tick_ms", dec * 1e3);
        samples.push("codec.reply_tick_bytes", reply_line.len() as f64);
    }
    spans.exit(cmd);
    reply.response
}

/// Applies one op to both sides — through every layer when `spans` is given.
fn step(
    op: &Op,
    driver: &mut Driver,
    a: &mut Journaled,
    b: &mut ShardCoordinator,
    spans: Option<&mut Spans>,
    samples: &mut Samples,
) {
    let command = driver.command(op);
    let response = match spans {
        Some(spans) => layered_step(op, command, driver.attempted + 1, a, b, spans, samples),
        None => {
            b.apply(command.clone(), 0);
            a.apply(command, 0)
        }
    };
    driver.observe(op, response);
}

/// Replays the script against a journaled daemon core and an un-journaled
/// twin side by side, on one thread, then crashes the journaled side and
/// times its recovery.
///
/// With `spans` the pass is the layer pass: every command goes through
/// [`layered_step`] for at least `min_rounds` rounds, and the journal's
/// snapshot/checkpoint/restore/replay legs are timed directly.  Without, it
/// is only the crash twin behind `recovery_s` (`min_rounds` = 0): population,
/// a checkpoint, a [`RECOVERY_TAIL`]-command tail, a crash, timed recoveries.
/// Either way the recovered daemon's next round must equal the twin's.
pub fn pair_pass(spec: &Spec, seed: u64, min_rounds: u64, mut spans: Option<&mut Spans>) -> Pair {
    let dir = daemon::scratch_dir("pair");
    let mut a = daemon::journaled(spec, &dir);
    let mut b = daemon::coordinator(spec);
    let mut driver = Driver::new(spec);
    let mut gen = ScriptGen::new(*spec, seed);
    let mut samples = Samples::default();
    daemon::populate(&mut driver, &mut gen, &mut |c| {
        b.apply(c.clone(), 0);
        a.apply(c, 0)
    });

    // Timed rounds (layer pass only).
    let lp_before = read_metrics(&mut |c| a.apply(c, 0));
    let append_before = phase_totals("journal_append");
    let sync_before = phase_totals("journal_sync");
    let rounds_before = driver.rounds;
    while driver.rounds - rounds_before < min_rounds {
        for op in gen.next_round() {
            step(
                &op,
                &mut driver,
                &mut a,
                &mut b,
                spans.as_deref_mut(),
                &mut samples,
            );
        }
    }
    let lp_after = read_metrics(&mut |c| a.apply(c, 0));
    let lp = lp_delta(&lp_before, &lp_after);
    let appends = (lp_after.journal_appends - lp_before.journal_appends).max(1);
    if spans.is_some() {
        samples.push(
            "journal.append_us",
            phase_mean_us(append_before, phase_totals("journal_append")),
        );
        samples.push(
            "journal.sync_ms",
            phase_mean_us(sync_before, phase_totals("journal_sync")) * 1e-3,
        );
    }

    // Checkpoint, then a fixed-length tail, then the crash.
    let mut snapshot = None;
    if let Some(spans) = spans.as_deref_mut() {
        let (json, t) = spans.leaf("snapshot_json", driver.attempted, || {
            a.coordinator()
                .snapshot_json()
                .expect("snapshots serialize")
        });
        samples.push("journal.snapshot_encode_ms", t * 1e3);
        snapshot = Some(json);
    }
    let (checkpointed, t) =
        Spans::timed(spans.as_deref_mut(), "checkpoint", driver.attempted, || {
            a.checkpoint()
        });
    checkpointed.expect("no crash point is armed");
    if spans.is_some() {
        samples.push("journal.checkpoint_ms", t * 1e3);
    }
    let tail_start = driver.journaled;
    let mut tail = Vec::new();
    while driver.journaled - tail_start < RECOVERY_TAIL {
        for op in gen.next_round() {
            if snapshot.is_some() && !matches!(op, Op::Status | Op::Metrics) {
                tail.push(driver.command(&op));
            }
            // Not layered: the samples must cover exactly the rounds the TCP
            // pass traced, or the two would not account for each other.
            step(&op, &mut driver, &mut a, &mut b, None, &mut samples);
        }
    }

    // Federation facts and O(tenants) reads, off the twin.
    let mut shard = ShardFacts {
        migrations: driver.migrations,
        ..ShardFacts::default()
    };
    for _ in 0..5 {
        let started = Instant::now();
        let status = b.apply(Command::Status, 0);
        samples.push("service.status_ms", started.elapsed().as_secs_f64() * 1e3);
        if let Response::Status(status) = status {
            shard.forwarding_depth = status.forwarding_depth;
            let jobs = status.shards.iter().map(|s| s.jobs);
            shard.job_spread = jobs.clone().max().unwrap_or(0) - jobs.min().unwrap_or(0);
        }
        let started = Instant::now();
        b.apply(Command::Metrics, 0);
        samples.push("service.metrics_ms", started.elapsed().as_secs_f64() * 1e3);
    }

    // Crash: drop without shutdown, so the tail is only in the journal.
    let Response::RoundCompleted(twin_round) = b.apply(Command::Tick, 0) else {
        panic!("twin refused to tick");
    };
    let fsyncs = lp_after.journal_fsyncs - lp_before.journal_fsyncs;
    drop(a);
    let mut recover_secs = Vec::new();
    let mut replayed = 0;
    let mut recovered = None;
    for _ in 0..RECOVERIES {
        drop(recovered.take());
        let (outcome, t) = Spans::timed(spans.as_deref_mut(), "recover", driver.attempted, || {
            Journaled::recover(&dir, JOURNAL)
        });
        let (daemon, summary) = outcome.expect("a dropped journal recovers");
        recover_secs.push(t);
        replayed = summary.replayed;
        recovered = Some(daemon);
    }
    let mut recovered = recovered.expect("RECOVERIES >= 1");
    match recovered.apply(Command::Tick, 0) {
        Response::RoundCompleted(round) => {
            oracle::check_same_round(&mut driver, &round, &twin_round)
        }
        other => driver.fail(format!("recovered daemon refused to tick: {other:?}")),
    }
    drop(recovered);

    // The journal's recovery legs, priced separately: restore the snapshot
    // the checkpoint wrote, then decode + apply the same tail.
    if let (Some(spans), Some(json)) = (spans, snapshot.as_ref()) {
        let (restored, t) = spans.leaf("from_federated_json", driver.attempted, || {
            ShardCoordinator::from_federated_json(json)
        });
        samples.push("journal.restore_snapshot_ms", t * 1e3);
        let mut restored = restored.expect("own snapshots restore");
        let payloads: Vec<String> = tail
            .iter()
            .map(|c| serde_json::to_string(c).expect("commands serialize"))
            .collect();
        let started = Instant::now();
        for payload in &payloads {
            let command: Command = serde_json::from_str(payload).expect("own commands parse");
            restored.apply(command, 0);
        }
        samples.push(
            "journal.replay_us_per_record",
            started.elapsed().as_secs_f64() * 1e6 / payloads.len().max(1) as f64,
        );
    }

    let solves = (lp[0] + lp[1]).max(1);
    Pair {
        samples,
        lp,
        warm_hit_rate: lp[0] as f64 / solves as f64,
        recover_secs,
        replayed,
        journal_bytes_per_cmd: (lp_after.journal_appended_bytes - lp_before.journal_appended_bytes)
            as f64
            / appends as f64,
        journal_fsyncs: fsyncs,
        snapshot_bytes: snapshot.map_or(0, |s| s.len()),
        attempted: driver.attempted,
        failed: driver.failed,
        first_failure: driver.first_failure().map(str::to_string),
        overcommitted_rounds: driver.overcommitted_rounds,
        shard,
    }
}

/// What attaching the three observability crates costs, and the solver
/// effort they report.
pub struct Obs {
    pub render_ms: f64,
    pub attach_overhead_pct: f64,
    pub pivots_per_tick: f64,
    pub work_units_per_tick: f64,
}

/// Two in-process daemons replay the same script in alternating blocks —
/// one with the Prometheus registry and the attribution registry attached
/// (the scrape, trace and attrib gates as one row), one bare — and the
/// median paired ratio prices the attachment.
pub fn obs_pass(spec: &Spec, seed: u64, pairs: usize, spans: &mut Spans) -> Obs {
    let pass = spans.enter("obs_pass", 0);
    let registry = oef_obs::Registry::new();
    let attrib = oef_attrib::AttributionRegistry::new();
    attrib.attach(&registry, 10);
    let mut on = daemon::coordinator(spec);
    on.attach_observability(&registry);
    on.attach_attribution(&attrib);
    let off = daemon::coordinator(spec);
    let mut sides = [
        (on, Driver::new(spec), ScriptGen::new(*spec, seed)),
        (off, Driver::new(spec), ScriptGen::new(*spec, seed)),
    ];
    for (core, driver, gen) in &mut sides {
        daemon::populate(driver, gen, &mut |c| core.apply(c, 0));
    }
    // Blocks long enough (tens of ms) that a timer tick is noise.
    let block_rounds = (4000 / spec.tenants).clamp(8, 200);
    let work_before = attrib.total();
    let mut ratios = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let mut secs = [0.0; 2];
        // Alternate which side goes first: drift must not favour one.
        for side in [pair % 2, 1 - pair % 2] {
            let (core, driver, gen) = &mut sides[side];
            let started = Instant::now();
            for _ in 0..block_rounds {
                for op in gen.next_round() {
                    daemon::run_op(driver, &op, &mut |c| core.apply(c, 0));
                }
            }
            secs[side] = started.elapsed().as_secs_f64();
        }
        ratios.push((secs[0] / secs[1] - 1.0) * 100.0);
    }
    let work = attrib.total();
    let ticks = (pairs * block_rounds) as f64;
    let render: Vec<f64> = (0..5)
        .map(|i| {
            spans
                .leaf("registry.render", i, || registry.render().len())
                .1
                * 1e3
        })
        .collect();
    spans.exit(pass);
    Obs {
        render_ms: crate::stats::median(&render),
        attach_overhead_pct: crate::stats::median(&ratios),
        pivots_per_tick: (work.pivots - work_before.pivots) as f64 / ticks,
        work_units_per_tick: (work.work_units() - work_before.work_units()) as f64 / ticks,
    }
}
