//! Operator client for `oef-serviced`.
//!
//! ```text
//! oef-servicectl status   <addr>          # print a status line (per shard when sharded)
//! oef-servicectl status --shards <addr>   # per-shard load + forwarding-table view
//! oef-servicectl metrics  <addr>          # print the metrics registry as JSON
//! oef-servicectl check-metrics <addr>     # validate a /metrics exposition endpoint (CI)
//! oef-servicectl trace <addr>             # print the slowest sampled traces (metrics port)
//! oef-servicectl trace <addr> --slowest N # top-N slowest traces
//! oef-servicectl trace <addr> --id X      # one trace by hex id
//! oef-servicectl attrib <addr>            # per-tenant solve-cost explainer (metrics port)
//! oef-servicectl attrib <addr> --top K    # limit the tenant table to the top K
//! oef-servicectl attrib <addr> --tenant H # one tenant's full cost breakdown
//! oef-servicectl tick     <addr>          # run one scheduling round
//! oef-servicectl migrate <addr> <tenant> <shard>  # move a tenant to another shard
//! oef-servicectl rebalance <addr>         # run one rebalancing pass, print the plan
//! oef-servicectl snapshot <addr> <file>   # save a state snapshot
//! oef-servicectl shutdown <addr>          # stop the daemon
//! oef-servicectl smoke    <addr>          # scripted join/tick/leave session (CI)
//! oef-servicectl smoke-shard <addr>       # scripted cross-shard session (CI, --shards daemon)
//! oef-servicectl smoke-crash-prepare <addr> <file>  # build state, record it (CI crash test)
//! oef-servicectl smoke-crash-verify  <addr> <file>  # check a recovered daemon against the record
//! ```
//!
//! `smoke` drives a short but complete session against a flagless daemon —
//! the one-shard federation — two tenants join, submit jobs, three rounds
//! run, allocations are sanity-checked, one tenant leaves, migration is
//! refused by the coordinator itself (nowhere to move to), the daemon shuts
//! down — and exits non-zero on any deviation.  CI uses it to prove a
//! freshly built daemon serves the full protocol on a loopback port and
//! terminates cleanly.  `smoke-shard` is its multi-shard sibling: it
//! requires a daemon started with `--shards ≥ 2`, spreads tenants across
//! shards, asserts that `Status` aggregates exactly the per-shard entries,
//! migrates a tenant over the wire and re-verifies its old handle across a
//! snapshot/restore.
//!
//! `check-metrics` targets the daemon's *metrics* listener (the
//! `--metrics-addr` port, not the command port): it fetches `/healthz` and
//! `/metrics` over raw HTTP, runs the strict in-repo exposition parser over
//! the body, and asserts the core series families are present — command
//! counters, queue depth, uptime, the per-shard solve-latency histogram
//! (with a cumulative `+Inf` bucket) and the per-tenant fairness-SLO
//! families.  CI uses it as a promtool stand-in.
//!
//! `migrate <tenant>` accepts either the raw decimal handle or the
//! `shard:slot@generation` form that `status` prints, so handles can be
//! copied straight between the two commands.
//!
//! `smoke-crash-prepare` / `smoke-crash-verify` bracket the CI crash-
//! recovery test: prepare drives a journaled daemon to a known state (two
//! tenants, jobs, three rounds) and records handles, job ids and the last
//! round's allocations in `<file>`; CI then `kill -9`s the daemon, restarts
//! it from its `--journal-dir`, and verify checks the recovered daemon over
//! the wire — same round and tenant count, a fresh tick reproducing the
//! recorded `gpu_shares` and `estimated_throughput` to 1e-6, and every
//! pre-crash handle and job id still resolving.
//!
//! Snapshot files are written atomically (temp file + fsync + rename), so a
//! crash mid-write never leaves a torn snapshot behind.
//!
//! Handles render as `shard:slot@generation` (e.g. `0:3@1`) — a flagless
//! daemon's only shard is shard 0.

use oef_core::sharded;
use oef_service::{ClientResult, ServiceClient};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, addr] if cmd == "status" => status(addr),
        [cmd, flag, addr] if cmd == "status" && flag == "--shards" => status_shards(addr),
        [cmd, addr] if cmd == "metrics" => metrics(addr),
        [cmd, addr] if cmd == "check-metrics" => check_metrics(addr),
        [cmd, addr] if cmd == "trace" => trace(addr, 5, None),
        [cmd, addr, flag, n] if cmd == "trace" && flag == "--slowest" => match n.parse::<usize>() {
            Ok(n) => trace(addr, n, None),
            Err(e) => {
                eprintln!("oef-servicectl: bad --slowest: {e}");
                std::process::exit(2);
            }
        },
        [cmd, addr, flag, id] if cmd == "trace" && flag == "--id" => trace(addr, 0, Some(id)),
        [cmd, addr] if cmd == "attrib" => attrib(addr, 10, None),
        [cmd, addr, flag, k] if cmd == "attrib" && flag == "--top" => match k.parse::<usize>() {
            Ok(k) => attrib(addr, k, None),
            Err(e) => {
                eprintln!("oef-servicectl: bad --top: {e}");
                std::process::exit(2);
            }
        },
        [cmd, addr, flag, h] if cmd == "attrib" && flag == "--tenant" => match sharded::parse(h) {
            Some(handle) => attrib(addr, 0, Some(handle)),
            None => {
                eprintln!(
                    "oef-servicectl: `{h}` is not a handle (use the decimal value or the \
                         shard:slot@gen form that `status` prints)"
                );
                std::process::exit(2);
            }
        },
        [cmd, addr] if cmd == "tick" => tick(addr),
        [cmd, addr, tenant, shard] if cmd == "migrate" => migrate(addr, tenant, shard),
        [cmd, addr] if cmd == "rebalance" => rebalance(addr),
        [cmd, addr, file] if cmd == "snapshot" => snapshot(addr, file),
        [cmd, addr] if cmd == "shutdown" => shutdown(addr),
        [cmd, addr] if cmd == "smoke" => smoke(addr),
        [cmd, addr] if cmd == "smoke-shard" => smoke_shard(addr),
        [cmd, addr, file] if cmd == "smoke-crash-prepare" => smoke_crash_prepare(addr, file),
        [cmd, addr, file] if cmd == "smoke-crash-verify" => smoke_crash_verify(addr, file),
        _ => {
            eprintln!(
                "usage: oef-servicectl <status|metrics|tick|rebalance|shutdown|smoke|smoke-shard> \
                 <addr>\n\
                 \x20      oef-servicectl status --shards <addr>\n\
                 \x20      oef-servicectl check-metrics <metrics-addr>\n\
                 \x20      oef-servicectl trace <metrics-addr> [--slowest N | --id HEX]\n\
                 \x20      oef-servicectl attrib <metrics-addr> [--top K | --tenant H]\n\
                 \x20      oef-servicectl migrate <addr> <tenant-handle> <shard>\n\
                 \x20      oef-servicectl snapshot <addr> <file>\n\
                 \x20      oef-servicectl smoke-crash-prepare <addr> <file>\n\
                 \x20      oef-servicectl smoke-crash-verify <addr> <file>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("oef-servicectl: {e}");
        std::process::exit(1);
    }
}

fn status(addr: &str) -> ClientResult<()> {
    let report = ServiceClient::connect(addr)?.status()?;
    println!(
        "policy={} protocol=v{} uptime={:.1}s round={} time={}s tenants={} jobs={} hosts={} \
         devices={} forwarding={}",
        report.policy,
        report.protocol,
        report.uptime_secs,
        report.round,
        report.time_secs,
        report.tenants,
        report.jobs,
        report.hosts,
        report.total_devices,
        report.forwarding_entries,
    );
    for shard in &report.shards {
        println!(
            "  shard {} round={} tenants={} jobs={} hosts={} devices={}",
            shard.shard, shard.round, shard.tenants, shard.jobs, shard.hosts, shard.total_devices
        );
    }
    for host in &report.topology {
        println!(
            "  host {} gpu_type={} gpus={}",
            sharded::format(host.host),
            host.gpu_type,
            host.num_gpus
        );
    }
    Ok(())
}

/// The per-shard load view: what the rebalancer sees, plus the forwarding
/// table's health.
fn status_shards(addr: &str) -> ClientResult<()> {
    let report = ServiceClient::connect(addr)?.status()?;
    println!(
        "{} shard(s), round {}, forwarding table: {} entr{} (depth {})",
        report.shards.len(),
        report.round,
        report.forwarding_entries,
        if report.forwarding_entries == 1 {
            "y"
        } else {
            "ies"
        },
        report.forwarding_depth,
    );
    for shard in &report.shards {
        println!(
            "  shard {}: tenants={} jobs={} hosts={} devices={} solve_ewma={:.6}s",
            shard.shard,
            shard.tenants,
            shard.jobs,
            shard.hosts,
            shard.total_devices,
            shard.solve_ewma_secs,
        );
    }
    Ok(())
}

fn migrate(addr: &str, tenant: &str, shard: &str) -> ClientResult<()> {
    let handle = sharded::parse(tenant).ok_or_else(|| {
        oef_service::ClientError::Protocol(format!(
            "`{tenant}` is not a handle (use the decimal value or the shard:slot@gen form \
             that `status` prints)"
        ))
    })?;
    let target: usize = shard
        .parse()
        .map_err(|e| oef_service::ClientError::Protocol(format!("bad shard index: {e}")))?;
    let fresh = ServiceClient::connect(addr)?.migrate_tenant(handle, target)?;
    println!(
        "tenant {} migrated to shard {target}; new handle {} ({}) — the old handle keeps \
         working via forwarding",
        sharded::format(handle),
        fresh,
        sharded::format(fresh),
    );
    Ok(())
}

fn rebalance(addr: &str) -> ClientResult<()> {
    let report = ServiceClient::connect(addr)?.rebalance()?;
    println!(
        "policy={} imbalance {:.2} -> {:.2} (threshold {:.2}), {} move(s)",
        report.policy,
        report.imbalance_before,
        report.imbalance_after,
        report.threshold,
        report.moves.len(),
    );
    for m in &report.moves {
        println!(
            "  moved {} from shard {} to shard {} (now {})",
            sharded::format(m.previous),
            m.from,
            m.to,
            sharded::format(m.tenant),
        );
    }
    Ok(())
}

fn metrics(addr: &str) -> ClientResult<()> {
    let report = ServiceClient::connect(addr)?.metrics()?;
    match serde_json::to_string(&report) {
        Ok(json) => println!("{json}"),
        Err(e) => println!("metrics serialization failed: {e}"),
    }
    Ok(())
}

/// One raw HTTP/1.1 GET against the daemon's metrics listener.  Returns the
/// status code, the header block and the body.  Deliberately primitive — the
/// responder always answers `Connection: close`, so read-to-EOF is the
/// complete framing story.
fn http_get(addr: &str, path: &str) -> ClientResult<(u16, String, String)> {
    use std::io::{Read, Write};
    let protocol = |message: String| oef_service::ClientError::Protocol(message);
    let mut stream = std::net::TcpStream::connect(addr).map_err(oef_service::ClientError::Io)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(oef_service::ClientError::Io)?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(oef_service::ClientError::Io)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| protocol(format!("GET {path}: no header/body separator in response")))?;
    let status_line = head.lines().next().unwrap_or("");
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| protocol(format!("GET {path}: bad status line `{status_line}`")))?;
    Ok((code, head.to_string(), body.to_string()))
}

/// Reads `GET /traces` off the metrics listener and prints sampled span
/// trees: the top `slowest` traces, or one trace picked by hex id.
fn trace(addr: &str, slowest: usize, id: Option<&str>) -> ClientResult<()> {
    let protocol = |message: String| oef_service::ClientError::Protocol(message);
    let (code, _, body) = http_get(addr, "/traces")?;
    if code == 404 {
        return Err(protocol(
            "daemon is not tracing; start it with --trace-sample N (and --metrics-addr)"
                .to_string(),
        ));
    }
    check("/traces answers 200", code == 200)?;
    let value: serde::Value = serde_json::from_str(body.trim())
        .map_err(|e| protocol(format!("/traces body is not JSON: {e}")))?;
    let pushed = value
        .get("pushed")
        .and_then(serde::Value::as_u64)
        .unwrap_or(0);
    let records = |key: &str| -> &[serde::Value] {
        value
            .get(key)
            .and_then(serde::Value::as_array)
            .unwrap_or(&[])
    };
    match id {
        Some(id) => {
            let record = records("slowest")
                .iter()
                .chain(records("recent"))
                .find(|r| r.get("trace_id").and_then(serde::Value::as_str) == Some(id))
                .ok_or_else(|| {
                    protocol(format!(
                        "trace {id} is not in the ring (it keeps the top-K slowest plus a \
                         bounded tail of recent samples)"
                    ))
                })?;
            print_trace(record);
        }
        None => {
            println!("{pushed} sampled trace(s) recorded since start");
            for record in records("slowest").iter().take(slowest) {
                print_trace(record);
            }
        }
    }
    Ok(())
}

/// Renders one `/traces` record as an indented span tree.
fn print_trace(record: &serde::Value) {
    let str_of = |key: &str| {
        record
            .get(key)
            .and_then(serde::Value::as_str)
            .unwrap_or("?")
    };
    let num_of = |v: &serde::Value, key: &str| v.get(key).and_then(serde::Value::as_f64);
    let replay = matches!(record.get("replay"), Some(serde::Value::Bool(true)));
    println!(
        "trace {} root={} total={:.1}us{}",
        str_of("trace_id"),
        str_of("root"),
        num_of(record, "total_us").unwrap_or(0.0),
        if replay { " replay=true" } else { "" },
    );
    let spans = record
        .get("spans")
        .and_then(serde::Value::as_array)
        .unwrap_or(&[]);
    // Spans carry a parent *index*; indent each by its ancestor depth.
    for (i, span) in spans.iter().enumerate() {
        let mut depth = 1;
        let mut at = i;
        while let Some(parent) = spans
            .get(at)
            .and_then(|s| s.get("parent"))
            .and_then(serde::Value::as_u64)
        {
            depth += 1;
            at = parent as usize;
            if depth > spans.len() {
                break;
            }
        }
        println!(
            "{:indent$}{} start={:.1}us dur={:.1}us",
            "",
            span.get("name")
                .and_then(serde::Value::as_str)
                .unwrap_or("?"),
            num_of(span, "start_us").unwrap_or(0.0),
            num_of(span, "dur_us").unwrap_or(0.0),
            indent = depth * 2,
        );
    }
    if let Some(counts) = record.get("counts").and_then(serde::Value::as_object) {
        for (name, n) in counts {
            println!("  count {name}={}", n.as_u64().unwrap_or(0));
        }
    }
}

/// The cost explainer: reads `GET /attrib` off the metrics listener and
/// renders the per-tenant solve-cost table (or one tenant's breakdown),
/// the daemon's always-on phase profile, and — when the daemon also
/// traces — the slowest recorded rounds with their solver share, so
/// "which rounds were slow" and "who made them expensive" answer from
/// one command.
fn attrib(addr: &str, top: usize, tenant: Option<u64>) -> ClientResult<()> {
    let protocol = |message: String| oef_service::ClientError::Protocol(message);
    let (code, _, body) = http_get(addr, "/attrib")?;
    if code == 404 {
        return Err(protocol(
            "daemon exposes no /attrib endpoint; start it with --metrics-addr (attribution \
             requires a metrics listener)"
                .to_string(),
        ));
    }
    check("/attrib answers 200", code == 200)?;
    let value: serde::Value = serde_json::from_str(body.trim())
        .map_err(|e| protocol(format!("/attrib body is not JSON: {e}")))?;
    let num = |v: &serde::Value, key: &str| v.get(key).and_then(serde::Value::as_u64).unwrap_or(0);
    let solves = num(&value, "solves");
    let total = num(&value, "total_work_units");
    let tenants = value
        .get("tenants")
        .and_then(serde::Value::as_array)
        .unwrap_or(&[]);
    let share = |units: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * units as f64 / total as f64
        }
    };
    let print_work = |label: &str, v: &serde::Value| {
        println!(
            "  {label}: work_units={} ({:.1}%) pivots={} eta_nnz={} refactor={} ftran_nnz={} \
             btran_rows={}",
            num(v, "work_units"),
            share(num(v, "work_units")),
            num(v, "pivots"),
            num(v, "eta_nnz"),
            num(v, "refactorizations"),
            num(v, "ftran_nnz"),
            num(v, "btran_rows"),
        );
    };
    println!(
        "{solves} attributed solve(s), {total} total work units, {} live tenant(s)",
        tenants.len(),
    );
    match tenant {
        Some(handle) => {
            let record = tenants
                .iter()
                .find(|t| num(t, "tenant") == handle)
                .ok_or_else(|| {
                    protocol(format!(
                        "tenant {} ({}) holds no attributed work (never scheduled, or its \
                         history moved to the departed bucket when it left)",
                        handle,
                        sharded::format(handle),
                    ))
                })?;
            print_work(&format!("tenant {}", sharded::format(handle)), record);
        }
        None => {
            for record in tenants.iter().take(top) {
                let handle = num(record, "tenant");
                let exposed = matches!(record.get("exposed"), Some(serde::Value::Bool(true)));
                print_work(
                    &format!(
                        "tenant {}{}",
                        sharded::format(handle),
                        if exposed { "" } else { " (not exported)" },
                    ),
                    record,
                );
            }
            if tenants.len() > top {
                println!(
                    "  … {} more tenant(s); rerun with --top",
                    tenants.len() - top
                );
            }
            if let Some(departed) = value.get("departed") {
                if num(departed, "work_units") > 0 {
                    print_work("departed", departed);
                }
            }
            if let Some(unattributed) = value.get("unattributed") {
                if num(unattributed, "work_units") > 0 {
                    print_work("unattributed", unattributed);
                }
            }
        }
    }
    if let Some(phases) = value.get("profile").and_then(serde::Value::as_array) {
        if !phases.is_empty() {
            println!("phase profile (rolling window):");
            for phase in phases {
                println!(
                    "  {:<14} n={} mean={:.1}us max={:.1}us lifetime n={}",
                    phase
                        .get("phase")
                        .and_then(serde::Value::as_str)
                        .unwrap_or("?"),
                    num(phase, "window_count"),
                    num(phase, "window_mean_ns") as f64 / 1e3,
                    num(phase, "window_max_ns") as f64 / 1e3,
                    num(phase, "life_count"),
                );
            }
        }
    }
    // Join with the slow-trace ring: for each slow round, show how much of
    // it the solver accounts for.  Attribution is cumulative, so the tenant
    // table above names the likely contributors.
    if let Ok((code, _, body)) = http_get(addr, "/traces") {
        if code == 200 {
            if let Ok(traces) = serde_json::from_str::<serde::Value>(body.trim()) {
                let slowest = traces
                    .get("slowest")
                    .and_then(serde::Value::as_array)
                    .unwrap_or(&[]);
                let slow_rounds: Vec<&serde::Value> = slowest
                    .iter()
                    .filter(|r| {
                        r.get("spans")
                            .and_then(serde::Value::as_array)
                            .is_some_and(|spans| {
                                spans.iter().any(|s| {
                                    s.get("name").and_then(serde::Value::as_str) == Some("solve")
                                })
                            })
                    })
                    .take(5)
                    .collect();
                if !slow_rounds.is_empty() {
                    // Solve spans are summed across shards, which solve in
                    // parallel threads — a fanned-out round can legitimately
                    // show a solver share above 100% of its wall-clock.
                    println!("slowest traced rounds (summed per-shard solve time vs wall-clock):");
                    for record in slow_rounds {
                        let total_us = record
                            .get("total_us")
                            .and_then(serde::Value::as_f64)
                            .unwrap_or(0.0);
                        let solve_us: f64 = record
                            .get("spans")
                            .and_then(serde::Value::as_array)
                            .unwrap_or(&[])
                            .iter()
                            .filter(|s| {
                                s.get("name").and_then(serde::Value::as_str) == Some("solve")
                            })
                            .filter_map(|s| s.get("dur_us").and_then(serde::Value::as_f64))
                            .sum();
                        println!(
                            "  trace {} total={:.1}us solve={:.1}us ({:.0}%)  — inspect with \
                             `trace {addr} --id {}`",
                            record
                                .get("trace_id")
                                .and_then(serde::Value::as_str)
                                .unwrap_or("?"),
                            total_us,
                            solve_us,
                            if total_us > 0.0 {
                                100.0 * solve_us / total_us
                            } else {
                                0.0
                            },
                            record
                                .get("trace_id")
                                .and_then(serde::Value::as_str)
                                .unwrap_or("?"),
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// Validates the `--metrics-addr` endpoint like CI would with promtool:
/// health, content type, strict exposition grammar, and the presence of the
/// core series families.
fn check_metrics(addr: &str) -> ClientResult<()> {
    use oef_obs::MetricKind;
    let protocol = |message: String| oef_service::ClientError::Protocol(message);

    let (code, _, body) = http_get(addr, "/healthz")?;
    check("/healthz answers 200", code == 200)?;
    let health: serde::Value = serde_json::from_str(body.trim())
        .map_err(|e| protocol(format!("/healthz body is not JSON: {e}")))?;
    check(
        "/healthz reports status ok",
        health.get("status").and_then(serde::Value::as_str) == Some("ok"),
    )?;
    check(
        "/healthz reports uptime",
        health
            .get("uptime_secs")
            .and_then(serde::Value::as_f64)
            .is_some_and(|v| v >= 0.0),
    )?;
    check(
        "/healthz reports the shard count",
        health.get("shards").is_some() && health.get("journal_seq").is_some(),
    )?;

    let (code, head, body) = http_get(addr, "/metrics")?;
    check("/metrics answers 200", code == 200)?;
    check(
        "/metrics declares exposition format 0.0.4",
        head.to_ascii_lowercase().contains("text/plain") && head.contains("version=0.0.4"),
    )?;
    let exposition =
        oef_obs::parse(&body).map_err(|e| protocol(format!("invalid exposition: {e}")))?;
    check("exposition is non-empty", !exposition.families.is_empty())?;

    let family = |name: &str, kind: MetricKind| -> ClientResult<()> {
        let f = exposition
            .family(name)
            .ok_or_else(|| protocol(format!("check failed: family `{name}` is missing")))?;
        check(&format!("{name} is declared {kind:?}"), f.kind == kind)
    };
    family("oef_commands_processed_total", MetricKind::Counter)?;
    family("oef_commands_rejected_total", MetricKind::Counter)?;
    family("oef_queue_depth", MetricKind::Gauge)?;
    family("oef_uptime_seconds", MetricKind::Gauge)?;
    family("oef_solve_duration_seconds", MetricKind::Histogram)?;
    family("oef_warm_solves_total", MetricKind::Counter)?;
    family("oef_cold_solves_total", MetricKind::Counter)?;
    family("oef_basis_repairs_total", MetricKind::Counter)?;
    family("oef_churn_repairs_total", MetricKind::Counter)?;
    family("oef_refactorizations_total", MetricKind::Counter)?;
    family("oef_eta_pivots_total", MetricKind::Counter)?;
    family("oef_tenant_allocation", MetricKind::Gauge)?;
    family("oef_tenant_entitlement", MetricKind::Gauge)?;
    family("oef_max_envy", MetricKind::Gauge)?;
    family("oef_sharing_incentive", MetricKind::Gauge)?;
    family("oef_fairness_sample_age_seconds", MetricKind::Gauge)?;

    // The solve histogram must expose a complete per-shard series: a
    // cumulative +Inf bucket carrying the shard/policy/program labels, plus
    // _sum/_count.
    let solve = exposition
        .family("oef_solve_duration_seconds")
        .expect("presence checked above");
    check(
        "solve histogram has a per-shard +Inf bucket with policy/program labels",
        solve.samples.iter().any(|s| {
            s.name == "oef_solve_duration_seconds_bucket"
                && s.label("le") == Some("+Inf")
                && s.label("shard").is_some()
                && s.label("policy").is_some()
                && s.label("program").is_some()
        }),
    )?;
    check(
        "solve histogram has _sum and _count",
        solve
            .samples
            .iter()
            .any(|s| s.name == "oef_solve_duration_seconds_sum")
            && solve
                .samples
                .iter()
                .any(|s| s.name == "oef_solve_duration_seconds_count"),
    )?;
    check(
        "uptime advances",
        exposition
            .value("oef_uptime_seconds", &[])
            .is_some_and(|v| v >= 0.0),
    )?;
    // Exemplars (when the daemon traces) may only ride histogram `_bucket`
    // samples, must carry a trace_id label and a finite value.  The strict
    // parser already rejects exemplars elsewhere; assert the well-formedness
    // of the ones that made it through.
    let mut exemplars = 0usize;
    for family in &exposition.families {
        for sample in &family.samples {
            if let Some(exemplar) = &sample.exemplar {
                exemplars += 1;
                check(
                    &format!("exemplar on {} rides a histogram bucket", sample.name),
                    family.kind == MetricKind::Histogram && sample.name.ends_with("_bucket"),
                )?;
                check(
                    &format!("exemplar on {} carries a trace_id", sample.name),
                    exemplar.label("trace_id").is_some_and(|id| {
                        !id.is_empty() && id.chars().all(|c| c.is_ascii_hexdigit())
                    }),
                )?;
                check(
                    &format!("exemplar on {} has a finite value", sample.name),
                    exemplar.value.is_finite(),
                )?;
            }
        }
    }
    if exemplars > 0 {
        println!("ok: {exemplars} exemplar(s) validated");
    }
    println!(
        "ok: {} families, {} samples — exposition is valid",
        exposition.families.len(),
        exposition
            .families
            .iter()
            .map(|f| f.samples.len())
            .sum::<usize>(),
    );
    Ok(())
}

fn tick(addr: &str) -> ClientResult<()> {
    let round = ServiceClient::connect(addr)?.tick()?;
    println!(
        "round={} solver={:.6}s warm={} active_tenants={}",
        round.round,
        round.solver_time_secs,
        round.warm_start,
        round.tenants.len()
    );
    Ok(())
}

fn snapshot(addr: &str, file: &str) -> ClientResult<()> {
    let snapshot = ServiceClient::connect(addr)?.snapshot()?;
    // Atomic: an interrupted write must never leave a torn half-snapshot
    // where an operator expects a restorable file.
    oef_journal::atomic_write(std::path::Path::new(file), snapshot.as_bytes())
        .map_err(oef_service::ClientError::Io)?;
    println!("snapshot written to {file}");
    Ok(())
}

fn shutdown(addr: &str) -> ClientResult<()> {
    ServiceClient::connect(addr)?.shutdown()?;
    println!("daemon acknowledged shutdown");
    Ok(())
}

fn check(label: &str, ok: bool) -> ClientResult<()> {
    if ok {
        println!("ok: {label}");
        Ok(())
    } else {
        Err(oef_service::ClientError::Protocol(format!(
            "smoke check failed: {label}"
        )))
    }
}

fn smoke(addr: &str) -> ClientResult<()> {
    let mut client = ServiceClient::connect(addr)?;

    let before = client.status()?;
    check("daemon answers status", before.total_devices > 0)?;
    check(
        "a flagless daemon is a one-shard federation",
        before.shards.len() == 1,
    )?;

    let alice = client.join("smoke-alice", 1, &[1.0, 1.18, 1.39])?;
    let bob = client.join("smoke-bob", 1, &[1.0, 1.55, 2.15])?;
    check("handles are distinct", alice != bob)?;

    client.submit_job(alice, "vgg16", 2, 1e9)?;
    client.submit_job(bob, "lstm", 2, 1e9)?;

    let mut warm_rounds = 0;
    for i in 0..3 {
        let round = client.tick()?;
        check(
            &format!("round {i} schedules both tenants"),
            round.tenants.len() == 2,
        )?;
        check(
            &format!("round {i} hands out devices"),
            round.tenants.iter().map(|t| t.devices_held).sum::<usize>() > 0,
        )?;
        if round.warm_start {
            warm_rounds += 1;
        }
    }
    check("warm starts after the first round", warm_rounds >= 1)?;

    client.leave(alice)?;
    let round = client.tick()?;
    check(
        "departed tenant is no longer scheduled",
        round.tenants.len() == 1 && round.tenants[0].tenant == bob,
    )?;

    // Topology churn: host handles are stable across removal, and a removed
    // handle is dead forever — a re-added host gets a fresh one.
    let hosts_before = client.status()?.hosts;
    let added = client.add_host(0, 4)?;
    let survivors: Vec<u64> = client
        .status()?
        .topology
        .iter()
        .map(|h| h.host)
        .filter(|&h| h != added)
        .collect();
    check(
        "added host grows the topology",
        survivors.len() == hosts_before,
    )?;
    client.remove_host(added)?;
    let after_remove = client.status()?;
    check(
        "surviving handles are untouched by the removal",
        after_remove
            .topology
            .iter()
            .map(|h| h.host)
            .collect::<Vec<_>>()
            == survivors,
    )?;
    match client.remove_host(added) {
        Err(oef_service::ClientError::Service {
            code: oef_service::ErrorCode::UnknownHost,
            ..
        }) => {
            println!("ok: removed handle is dead (UnknownHost)");
        }
        other => {
            return Err(oef_service::ClientError::Protocol(format!(
                "smoke check failed: dead handle should be UnknownHost, got {other:?}"
            )))
        }
    }
    let readded = client.add_host(0, 4)?;
    check("re-added host gets a fresh handle", readded != added)?;
    client.remove_host(readded)?;
    let round = client.tick()?;
    check(
        "scheduling survives topology churn",
        round.tenants.len() == 1,
    )?;

    // With one shard there is nowhere to migrate to, and it is the
    // coordinator that says so: a self-move and a shard that does not exist.
    for (shard, expected) in [(0, "already lives on shard 0"), (1, "does not exist")] {
        match client.migrate_tenant(bob, shard) {
            Err(oef_service::ClientError::Service {
                code: oef_service::ErrorCode::InvalidArgument,
                message,
            }) if message.contains(expected) => {
                println!("ok: migrate to shard {shard} refused by the coordinator ({expected})");
            }
            other => {
                return Err(oef_service::ClientError::Protocol(format!(
                    "smoke check failed: migrate to shard {shard} should be refused with \
                     `{expected}`, got {other:?}"
                )))
            }
        }
    }

    let metrics = client.metrics()?;
    check("metrics count the rounds", metrics.rounds_solved >= 5)?;

    client.shutdown()?;
    println!("ok: daemon acknowledged shutdown");
    Ok(())
}

fn smoke_shard(addr: &str) -> ClientResult<()> {
    let mut client = ServiceClient::connect(addr)?;

    let before = client.status()?;
    check(
        "daemon is sharded (start it with --shards 2)",
        before.shards.len() >= 2,
    )?;
    let shards = before.shards.len();

    // Join enough tenants to span every shard under least-loaded placement.
    let mut handles = Vec::new();
    for i in 0..(2 * shards) {
        let handle = client.join(
            &format!("shard-smoke-{i}"),
            1,
            &[1.0, 1.2 + 0.05 * i as f64, 1.5 + 0.1 * i as f64],
        )?;
        client.submit_job(handle, "model", 1, 1e9)?;
        handles.push(handle);
    }
    let spanned: std::collections::HashSet<usize> =
        handles.iter().map(|&h| sharded::shard_of(h)).collect();
    check(
        &format!("tenants span all {shards} shards"),
        spanned.len() == shards,
    )?;

    // Cross-shard aggregation: the totals must be exactly the per-shard sums.
    let status = client.status()?;
    check(
        "Status.tenants equals the sum of the shard entries",
        status.tenants == 2 * shards
            && status.shards.iter().map(|s| s.tenants).sum::<usize>() == status.tenants,
    )?;
    check(
        "Status.hosts and devices aggregate across shards",
        status.shards.iter().map(|s| s.hosts).sum::<usize>() == status.hosts
            && status.shards.iter().map(|s| s.total_devices).sum::<usize>() == status.total_devices,
    )?;
    check(
        "topology handles carry every shard index",
        status
            .topology
            .iter()
            .map(|h| sharded::shard_of(h.host))
            .collect::<std::collections::HashSet<_>>()
            .len()
            == shards,
    )?;
    check("uptime is reported", status.uptime_secs >= 0.0)?;

    // A parallel round schedules every tenant on every shard.
    let round = client.tick()?;
    check(
        "parallel tick merges all shards' tenants",
        round.tenants.len() == 2 * shards,
    )?;
    check(
        "every scheduled tenant keys by its wire handle",
        round.tenants.iter().all(|t| handles.contains(&t.tenant)),
    )?;

    // Host churn on one shard must not disturb tenants on another: remove a
    // shard-1 host's worth of capacity, then drive a shard-0 tenant.
    let added = client.add_host(0, 4)?;
    let victim_shard = sharded::shard_of(added);
    let other_tenant = handles
        .iter()
        .copied()
        .find(|&h| sharded::shard_of(h) != victim_shard)
        .expect("tenants span shards");
    client.remove_host(added)?;
    client.update_speedups(other_tenant, &[1.0, 1.3, 1.7])?;
    let round = client.tick()?;
    check(
        "tenant on another shard survives host churn",
        round.tenants.iter().any(|t| t.tenant == other_tenant),
    )?;

    let metrics = client.metrics()?;
    check("federation counts its rounds", metrics.rounds_solved >= 2)?;
    check(
        "metrics aggregate tenants across shards",
        metrics.tenants == 2 * shards,
    )?;

    // Live migration over the wire: move one tenant to another shard, then
    // prove its old handle still answers — before and after a
    // snapshot/restore round trip (the forwarding table is durable state).
    let mover = handles[0];
    let target = (sharded::shard_of(mover) + 1) % shards;
    let fresh = client.migrate_tenant(mover, target)?;
    check(
        "migration re-mints the handle on the target shard",
        fresh != mover && sharded::shard_of(fresh) == target,
    )?;
    client.update_speedups(mover, &[1.0, 1.25, 1.60])?;
    println!("ok: pre-migration handle still answers");
    let job = client.submit_job(mover, "forwarded", 1, 1e8)?;
    let round = client.tick()?;
    check(
        "migrated tenant is scheduled under its new handle",
        round.tenants.iter().any(|t| t.tenant == fresh),
    )?;
    let status = client.status()?;
    check(
        "forwarding table reports the migration",
        status.forwarding_entries >= 1 && status.forwarding_depth >= 1,
    )?;
    let metrics = client.metrics()?;
    check("metrics count the migration", metrics.tenants_migrated >= 1)?;

    let snapshot = client.snapshot()?;
    let restored = client.restore(&snapshot)?;
    check("restore keeps every tenant", restored == 2 * shards)?;
    client.finish_job(mover, job)?;
    println!("ok: pre-migration handle and job id survive snapshot/restore");

    // One rebalance pass must answer (usually with zero moves here — the
    // smoke population is balanced).
    let report = client.rebalance()?;
    check(
        "rebalance replies within its threshold",
        report.imbalance_after <= report.threshold || !report.moves.is_empty(),
    )?;

    client.shutdown()?;
    println!("ok: sharded daemon acknowledged shutdown");
    Ok(())
}

/// What `smoke-crash-prepare` records and `smoke-crash-verify` checks: the
/// exact state CI expects the recovered daemon to reproduce.
#[derive(serde::Serialize, serde::Deserialize)]
struct CrashRecord {
    /// Rounds run before the crash.
    round: usize,
    /// One entry per pre-crash tenant.
    tenants: Vec<RecordedTenant>,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct RecordedTenant {
    /// Wire handle minted before the crash; must still resolve after.
    handle: u64,
    /// A job submitted before the crash; must still be finishable after.
    job: u64,
    /// Fractional allocation of the last pre-crash round.
    gpu_shares: Vec<f64>,
    /// Promised throughput of the last pre-crash round.
    estimated_throughput: f64,
}

/// Tolerance for allocation comparisons: the recovered daemon replays the
/// same commands against the same snapshot, so only float formatting noise
/// is admissible.
const CRASH_EPSILON: f64 = 1e-6;

fn smoke_crash_prepare(addr: &str, file: &str) -> ClientResult<()> {
    let mut client = ServiceClient::connect(addr)?;

    let alice = client.join("crash-alice", 1, &[1.0, 1.18, 1.39])?;
    let bob = client.join("crash-bob", 2, &[1.0, 1.55, 2.15])?;
    let alice_job = client.submit_job(alice, "vgg16", 2, 1e9)?;
    let bob_job = client.submit_job(bob, "lstm", 2, 1e9)?;

    let mut last = None;
    for i in 0..3 {
        let round = client.tick()?;
        check(
            &format!("round {i} schedules both tenants"),
            round.tenants.len() == 2,
        )?;
        last = Some(round);
    }
    let last = last.expect("three rounds ran");

    let recorded = |handle: u64, job: u64| -> ClientResult<RecordedTenant> {
        let t = last
            .tenants
            .iter()
            .find(|t| t.tenant == handle)
            .ok_or_else(|| {
                oef_service::ClientError::Protocol(format!(
                    "tenant {} missing from the last pre-crash round",
                    sharded::format(handle)
                ))
            })?;
        Ok(RecordedTenant {
            handle,
            job,
            gpu_shares: t.gpu_shares.clone(),
            estimated_throughput: t.estimated_throughput,
        })
    };
    let record = CrashRecord {
        round: client.status()?.round,
        tenants: vec![recorded(alice, alice_job)?, recorded(bob, bob_job)?],
    };
    let json = serde_json::to_string(&record)
        .map_err(|e| oef_service::ClientError::Protocol(e.to_string()))?;
    oef_journal::atomic_write(std::path::Path::new(file), json.as_bytes())
        .map_err(oef_service::ClientError::Io)?;
    println!(
        "ok: recorded {} tenant(s) at round {} into {file} — kill the daemon now",
        record.tenants.len(),
        record.round
    );
    Ok(())
}

fn smoke_crash_verify(addr: &str, file: &str) -> ClientResult<()> {
    let source = std::fs::read_to_string(file).map_err(oef_service::ClientError::Io)?;
    let record: CrashRecord = serde_json::from_str(&source)
        .map_err(|e| oef_service::ClientError::Protocol(format!("bad record {file}: {e}")))?;
    let mut client = ServiceClient::connect(addr)?;

    let status = client.status()?;
    check(
        "recovered daemon is at the pre-crash round",
        status.round == record.round,
    )?;
    check(
        "recovered daemon holds every pre-crash tenant",
        status.tenants == record.tenants.len(),
    )?;

    // A fresh round against recovered state must reproduce the pre-crash
    // allocation: same tenants, same jobs, same profiles → the LP sees the
    // same inputs.  (`devices_held` is excluded on purpose — it tracks
    // rounding deviations that legitimately alternate between consecutive
    // rounds.)
    let round = client.tick()?;
    for tenant in &record.tenants {
        let t = round
            .tenants
            .iter()
            .find(|t| t.tenant == tenant.handle)
            .ok_or_else(|| {
                oef_service::ClientError::Protocol(format!(
                    "smoke check failed: pre-crash handle {} is not scheduled after recovery",
                    sharded::format(tenant.handle)
                ))
            })?;
        check(
            &format!(
                "tenant {} gpu_shares match to {CRASH_EPSILON}",
                sharded::format(tenant.handle)
            ),
            t.gpu_shares.len() == tenant.gpu_shares.len()
                && t.gpu_shares
                    .iter()
                    .zip(&tenant.gpu_shares)
                    .all(|(a, b)| (a - b).abs() <= CRASH_EPSILON),
        )?;
        check(
            &format!(
                "tenant {} estimated_throughput matches to {CRASH_EPSILON}",
                sharded::format(tenant.handle)
            ),
            (t.estimated_throughput - tenant.estimated_throughput).abs() <= CRASH_EPSILON,
        )?;
    }

    // Every pre-crash handle and job id must still resolve.
    for tenant in &record.tenants {
        client.update_speedups(tenant.handle, &[1.0, 1.3, 1.7])?;
        client.finish_job(tenant.handle, tenant.job)?;
    }
    println!(
        "ok: recovered daemon reproduced round {} and resolved {} pre-crash handle(s)",
        record.round,
        record.tenants.len()
    );
    Ok(())
}
