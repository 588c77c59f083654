//! The scheduling daemon binary.
//!
//! ```text
//! oef-serviced [--addr HOST:PORT] [--metrics-addr HOST:PORT] [--policy NAME]
//!              [--round-secs SECS] [--fluid] [--max-tenants N] [--shards N]
//!              [--placement NAME] [--restore FILE] [--trace-sample N]
//!              [--journal-dir DIR] [--fsync-every N] [--compact-every N]
//! ```
//!
//! Binds the address (port 0 picks an ephemeral port), prints one
//! `oef-serviced listening on <addr>` line to stdout, and serves until a
//! `Shutdown` command arrives, then exits 0.
//!
//! The daemon has **one shape**: it always serves a [`ShardCoordinator`] —
//! `--shards N` scheduler shards (default 1), one paper-cluster topology
//! each, handles tagged with their shard index, ticks fanned out across the
//! shards.  Shard 0 is the identity handle encoding and a one-shard
//! coordinator ticks serially, so the flagless daemon answers exactly as a
//! bare `SchedulerService` would.  `--placement` picks the tenant/host
//! placement strategy (`least-loaded`, the default, or `round-robin`).
//! Admission quotas are **per shard**: `--max-tenants M` with `--shards N`
//! admits up to N × M tenants federation-wide.
//!
//! Its durable state has **one format**, the federated (v5) snapshot
//! envelope.  With `--restore FILE` the daemon resumes from a file written
//! by `oef-servicectl snapshot` (or the `Snapshot` wire command) instead of
//! starting empty; the envelope carries the shard count, placement strategy
//! and configuration, so no topology or config flags apply, and a file of
//! any other version is refused with the version found and the one
//! supported.
//!
//! With `--metrics-addr` the daemon also serves `GET /metrics` (Prometheus
//! text exposition: per-shard solve-latency histograms, solver-cache and
//! journal counters, per-tenant fairness-SLO series), `GET /healthz`,
//! `GET /attrib` and — with `--trace-sample N` — `GET /traces` on a separate
//! listener, printing one `oef-serviced metrics listening on <addr>` line.
//! Scrapes read the same atomic cells the worker thread updates — they never
//! queue behind (or block) commands.
//!
//! With `--journal-dir DIR` the coordinator is wrapped in [`Journaled`] and
//! the daemon is **durable**: every mutating command is written to an
//! append-only, checksummed journal *before* it is applied, and
//! `DIR/snapshot.json` is atomically checkpointed every `--compact-every`
//! commands (journal segments the checkpoint covers are deleted).  If `DIR`
//! already holds a journal the daemon *recovers* — snapshot restore plus
//! deterministic replay of the journal tail, torn or corrupt tails truncated
//! at the last valid record — and no config flags apply (the checkpoint's
//! embedded config wins).  `--fsync-every N` group-commits: fsync after
//! every N-th append (1 = synchronous, the default; larger batches trade a
//! bounded window of acknowledged-but-unsynced commands for throughput).  A
//! clean shutdown checkpoints on exit so restart never needs tail replay.

use oef_cluster::ClusterTopology;
use oef_service::{CommandHandler, Server, ServiceConfig};
use oef_shard::{placement_from_name, JournalOptions, Journaled, ShardCoordinator};
use oef_trace::{TraceRing, Tracer};
use std::io::Write;
use std::path::Path;

struct Args {
    addr: String,
    metrics_addr: Option<String>,
    restore: Option<String>,
    journal_dir: Option<String>,
    journal: JournalOptions,
    shards: usize,
    /// A name `placement_from_name` resolves (checked where it is parsed).
    placement: String,
    /// `--trace-sample N`: record every N-th command as a span tree (0 =
    /// tracing off, the default — no per-command tracing work at all).
    trace_sample: u64,
    config: ServiceConfig,
    /// Config flags seen on the command line; `--restore` and journal
    /// recovery reject these instead of silently ignoring them (the
    /// snapshot's embedded config wins on a restore).
    config_flags: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7441".to_string(),
        metrics_addr: None,
        restore: None,
        journal_dir: None,
        journal: JournalOptions::default(),
        shards: 1,
        placement: "least-loaded".to_string(),
        trace_sample: 0,
        config: ServiceConfig::default(),
        config_flags: Vec::new(),
    };
    // Journal tuning flags seen; meaningless (so refused) without a journal.
    let mut journal_flags: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")?),
            "--policy" => {
                args.config.policy = value("--policy")?;
                args.config_flags.push(flag);
            }
            "--round-secs" => {
                args.config.round_secs = value("--round-secs")?
                    .parse()
                    .map_err(|e| format!("bad --round-secs: {e}"))?;
                args.config_flags.push(flag);
            }
            "--max-tenants" => {
                args.config.limits.max_tenants = value("--max-tenants")?
                    .parse()
                    .map_err(|e| format!("bad --max-tenants: {e}"))?;
                args.config_flags.push(flag);
            }
            "--fluid" => {
                args.config.physical_placement = false;
                args.config_flags.push(flag);
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?;
                if args.shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                args.config_flags.push(flag);
            }
            "--placement" => {
                args.placement = value("--placement")?;
                if placement_from_name(&args.placement).is_none() {
                    return Err(format!(
                        "unknown placement `{}` (supported: least-loaded, round-robin)",
                        args.placement
                    ));
                }
                args.config_flags.push(flag);
            }
            "--trace-sample" => {
                args.trace_sample = value("--trace-sample")?
                    .parse()
                    .map_err(|e| format!("bad --trace-sample: {e}"))?;
            }
            "--restore" => args.restore = Some(value("--restore")?),
            "--journal-dir" => args.journal_dir = Some(value("--journal-dir")?),
            "--fsync-every" => {
                args.journal.fsync_every = value("--fsync-every")?
                    .parse()
                    .map_err(|e| format!("bad --fsync-every: {e}"))?;
                journal_flags.push(flag);
            }
            "--compact-every" => {
                args.journal.compact_every = value("--compact-every")?
                    .parse()
                    .map_err(|e| format!("bad --compact-every: {e}"))?;
                journal_flags.push(flag);
            }
            "--help" | "-h" => {
                println!(
                    "usage: oef-serviced [--addr HOST:PORT] [--metrics-addr HOST:PORT] \
                     [--policy NAME] [--round-secs SECS] [--fluid] [--max-tenants N] \
                     [--shards N] [--placement least-loaded|round-robin] [--restore FILE] \
                     [--journal-dir DIR] [--fsync-every N] [--compact-every N] \
                     [--trace-sample N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.journal_dir.is_none() {
        if let Some(flag) = journal_flags.first() {
            return Err(format!("{flag} needs --journal-dir"));
        }
    }
    if args.restore.is_some() && !args.config_flags.is_empty() {
        return Err(format!(
            "--restore resumes with the snapshot's embedded configuration (and shard \
             count); drop the conflicting flag(s) {} (or edit the snapshot's `config` field)",
            args.config_flags.join(", ")
        ));
    }
    Ok(args)
}

/// Tenant series the `oef_tenant_solve_cost` family may hold (plus the
/// `other` bucket) — scrape cardinality stays bounded at any tenant count.
const ATTRIB_TOP_K: usize = 10;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("oef-serviced: {message}");
    std::process::exit(2);
}

/// Spawns the server (and, with `--metrics-addr`, the Prometheus exposition
/// listener), prints the listening line(s) and blocks until shutdown.  With
/// a tracer, sampled commands record span trees into its ring, served as
/// `GET /traces` on the metrics listener.
fn serve<C: CommandHandler>(
    mut service: C,
    args: &Args,
    tracer: Option<Tracer>,
    rounds_run: fn(&C) -> usize,
) {
    let addr = args.addr.as_str();
    let metrics_server = args.metrics_addr.as_deref().map(|maddr| {
        let registry = oef_obs::Registry::new();
        service.attach_observability(&registry);
        // Per-tenant solve-cost attribution rides on the metrics listener:
        // the bounded `oef_tenant_solve_cost` family in `/metrics`, the
        // exact cumulative breakdown (joined with the always-on phase
        // profiler) as `GET /attrib`.
        let cost = oef_attrib::AttributionRegistry::new();
        cost.attach(&registry, ATTRIB_TOP_K);
        service.attach_attribution(&cost);
        let attrib_source: oef_obs::JsonSource = {
            let cost = cost.clone();
            std::sync::Arc::new(move || cost.to_json())
        };
        let ring = tracer.as_ref().map(|t| t.ring().clone());
        match oef_obs::MetricsServer::spawn_with_sources(
            registry,
            maddr,
            ring,
            vec![("/attrib".to_string(), attrib_source)],
        ) {
            Ok(server) => server,
            Err(e) => fail(format!("cannot bind metrics listener {maddr}: {e}")),
        }
    });
    let server = match Server::spawn_traced(service, addr, tracer) {
        Ok(server) => server,
        Err(e) => fail(format!("cannot bind {addr}: {e}")),
    };
    println!("oef-serviced listening on {}", server.local_addr());
    if let Some(metrics) = &metrics_server {
        println!("oef-serviced metrics listening on {}", metrics.local_addr());
    }
    let _ = std::io::stdout().flush();
    let service = server.join();
    if let Some(metrics) = metrics_server {
        metrics.stop();
    }
    println!(
        "oef-serviced shut down cleanly after {} rounds",
        rounds_run(&service)
    );
}

/// Builds the coordinator every fresh daemon — journaled or not — starts
/// from: restored from the `--restore` envelope if one was given, empty with
/// the flag topology otherwise.
fn build_coordinator(args: &Args) -> ShardCoordinator {
    let Some(path) = &args.restore else {
        let topologies = (0..args.shards)
            .map(|_| ClusterTopology::paper_cluster())
            .collect();
        let placement = placement_from_name(&args.placement).expect("checked by parse_args");
        return ShardCoordinator::new(topologies, args.config.clone(), placement)
            .unwrap_or_else(|e| fail(e));
    };
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read snapshot {path}: {e}")));
    let coordinator = ShardCoordinator::from_federated_json(&json)
        .unwrap_or_else(|e| fail(format!("cannot restore {path}: {e}")));
    println!(
        "oef-serviced restoring {} shard(s) from {path}",
        coordinator.num_shards()
    );
    coordinator
}

/// Recovers the journaled coordinator `dir` holds: the checkpoint plus the
/// journal tail are authoritative, so flags that would contradict them are
/// refused, not ignored.
fn recover(dir: &Path, args: &Args, tracer: Option<&Tracer>) -> Journaled {
    if let Some(path) = &args.restore {
        fail(format!(
            "{} already holds a journal; refusing --restore {path} (recover from \
             the journal, or point --journal-dir at a fresh directory)",
            dir.display()
        ));
    }
    if !args.config_flags.is_empty() {
        fail(format!(
            "{} already holds a journal whose checkpoint embeds the configuration; \
             drop the conflicting flag(s) {}",
            dir.display(),
            args.config_flags.join(", ")
        ));
    }
    let (journaled, summary) = Journaled::recover_with(dir, args.journal, tracer)
        .unwrap_or_else(|e| fail(format!("cannot recover from {}: {e}", dir.display())));
    oef_trace::log_json(
        "info",
        "recovery",
        "recovered from journal",
        &[
            ("dir", &dir.display().to_string()),
            ("shards", &journaled.coordinator().num_shards().to_string()),
            ("base_seq", &summary.base_seq.to_string()),
            ("replayed", &summary.replayed.to_string()),
            ("stale_skipped", &summary.stale_skipped.to_string()),
            ("torn_bytes", &summary.torn_bytes.to_string()),
            ("gap_dropped", &summary.gap_dropped.to_string()),
            ("rounds", &summary.rounds.to_string()),
        ],
    );
    println!(
        "oef-serviced recovered {} shard(s) from {}: {} command(s) replayed",
        journaled.coordinator().num_shards(),
        dir.display(),
        summary.replayed,
    );
    journaled
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => fail(message),
    };
    // Structured JSON logs on stderr, written by one dedicated thread so log
    // volume never blocks the worker (over-budget lines are drop-counted).
    oef_trace::init_logger();
    let tracer = (args.trace_sample > 0).then(|| {
        Tracer::with_ring(
            args.trace_sample,
            TraceRing::new(oef_trace::DEFAULT_TOP_K, oef_trace::DEFAULT_RECENT),
        )
    });
    let journaled = match args.journal_dir.as_deref().map(Path::new) {
        None => {
            let coordinator = build_coordinator(&args);
            return serve(coordinator, &args, tracer, ShardCoordinator::rounds_run);
        }
        Some(dir) if dir.join("snapshot.json").exists() => recover(dir, &args, tracer.as_ref()),
        Some(dir) => {
            let coordinator = build_coordinator(&args);
            println!(
                "oef-serviced journaling {} shard(s) into {} (fsync every {}, checkpoint every {})",
                coordinator.num_shards(),
                dir.display(),
                args.journal.fsync_every,
                args.journal.compact_every,
            );
            Journaled::create(coordinator, dir, args.journal).unwrap_or_else(|e| {
                fail(format!("cannot create journal in {}: {e}", dir.display()))
            })
        }
    };
    serve(journaled, &args, tracer, Journaled::rounds_run);
}
