//! Crash-recovery end-to-end tests: the fault-injection harness.
//!
//! The contract under test is *twin equivalence*: a journaled federation
//! that crashes at any scripted [`CrashPoint`] and recovers (snapshot +
//! deterministic journal-tail replay) must be indistinguishable — same
//! allocations to 1e-6, same handles, same job ids — from an uninterrupted
//! twin that ran the identical command script with no journal at all.  One
//! test per crash point, plus a `kill -9` test that murders the real
//! `oef-serviced` binary mid-trace and recovers it over loopback TCP, a
//! rebalance-specific test (the one apply-before-journal path), and a
//! clean-shutdown test proving the exit checkpoint makes tail replay
//! unnecessary.  The last two tests cover the binary's other way in: the
//! `--restore FILE` path (one format, every other version refused) and the
//! flags it validates before building anything.

use oef_cluster::ClusterTopology;
use oef_core::sharded;
use oef_journal::{CrashPoint, FaultPlan};
use oef_service::{Command, Response, RoundSummary, Server, ServiceClient, ServiceConfig};
use oef_shard::{placement_from_name, JournalOptions, Journaled, ShardCoordinator};
use std::io::BufRead;
use std::path::PathBuf;

fn coordinator(shards: usize) -> ShardCoordinator {
    ShardCoordinator::new(
        (0..shards)
            .map(|_| ClusterTopology::paper_cluster())
            .collect(),
        ServiceConfig::default(),
        placement_from_name("least-loaded").unwrap(),
    )
    .unwrap()
}

/// Aggressive durability knobs: per-command fsync, checkpoint every 4
/// commands, 4-record segments — so a short script still exercises group
/// commit, segment rolling and compaction.
fn opts() -> JournalOptions {
    JournalOptions {
        fsync_every: 1,
        compact_every: 4,
        segment_records: 4,
    }
}

/// A scratch journal directory under the system temp dir, cleaned before
/// use (test reruns must not recover yesterday's journal).
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oef-journal-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const PROFILES: [&[f64]; 4] = [
    &[1.0, 1.18, 1.39],
    &[1.0, 1.55, 2.15],
    &[1.0, 1.25, 1.55],
    &[1.0, 1.40, 1.90],
];

fn join_cmd(i: usize) -> Command {
    Command::TenantJoin {
        name: format!("crash-{i}"),
        weight: 1,
        speedup: PROFILES[i].to_vec(),
    }
}

fn submit_cmd(tenant: u64) -> Command {
    Command::SubmitJob {
        tenant,
        model: "model".into(),
        workers: 2,
        total_work: 1e9,
    }
}

/// The deterministic pre-crash history plus the handles and job ids it
/// mints.  Built by probing a throwaway coordinator: handle and job-id
/// minting is deterministic, so the probe's ids are exactly the ids every
/// real run (twin, journaled, recovered) will produce.
struct Script {
    commands: Vec<Command>,
    tenants: Vec<u64>,
    jobs: Vec<u64>,
    host: u64,
}

fn build_script() -> Script {
    let mut probe = coordinator(2);
    let mut tenants = Vec::new();
    let mut jobs = Vec::new();
    for i in 0..PROFILES.len() {
        match probe.apply(join_cmd(i), 0) {
            Response::TenantJoined { tenant } => tenants.push(tenant),
            other => panic!("probe join failed: {other:?}"),
        }
        match probe.apply(submit_cmd(tenants[i]), 0) {
            Response::JobSubmitted { job, .. } => jobs.push(job),
            other => panic!("probe submit failed: {other:?}"),
        }
    }
    let host = match probe.apply(
        Command::AddHost {
            gpu_type: 0,
            num_gpus: 4,
        },
        0,
    ) {
        Response::HostAdded { host } => host,
        other => panic!("probe add_host failed: {other:?}"),
    };

    // 18 mutating commands: with `compact_every: 4` the journaled run
    // checkpoints four times mid-script, and the migration crosses shards so
    // replay exercises the forwarding table.  (No `Rebalance` here — its
    // plan reads a wall-clock load signal, so a journal-less twin could
    // legitimately diverge; the dedicated test below covers it.)
    let mut commands = Vec::new();
    for i in 0..PROFILES.len() {
        commands.push(join_cmd(i));
        commands.push(submit_cmd(tenants[i]));
    }
    commands.push(Command::Tick);
    commands.push(Command::UpdateSpeedups {
        tenant: tenants[0],
        speedup: vec![1.0, 1.30, 1.70],
    });
    commands.push(Command::Tick);
    commands.push(Command::AddHost {
        gpu_type: 0,
        num_gpus: 4,
    });
    commands.push(Command::Tick);
    commands.push(Command::MigrateTenant {
        tenant: tenants[1],
        shard: (sharded::shard_of(tenants[1]) + 1) % 2,
    });
    commands.push(Command::Tick);
    commands.push(Command::RemoveHost { handle: host });
    commands.push(Command::Tick);
    commands.push(Command::Tick);
    Script {
        commands,
        tenants,
        jobs,
        host,
    }
}

fn tick_coordinator(c: &mut ShardCoordinator) -> RoundSummary {
    match c.apply(Command::Tick, 0) {
        Response::RoundCompleted(summary) => summary,
        other => panic!("twin tick failed: {other:?}"),
    }
}

fn tick_journaled(j: &mut Journaled) -> RoundSummary {
    match j.try_apply(Command::Tick, 0).expect("no fault armed") {
        Response::RoundCompleted(summary) => summary,
        other => panic!("journaled tick failed: {other:?}"),
    }
}

fn assert_rounds_match(a: &RoundSummary, b: &RoundSummary) {
    assert_eq!(a.round, b.round, "round index");
    assert_eq!(a.tenants.len(), b.tenants.len(), "active tenants");
    for (s, t) in a.tenants.iter().zip(&b.tenants) {
        assert_eq!(s.tenant, t.tenant, "wire handle at round {}", a.round);
        assert!(
            (s.estimated_throughput - t.estimated_throughput).abs() < 1e-6,
            "round {}: estimated {} vs {}",
            a.round,
            s.estimated_throughput,
            t.estimated_throughput
        );
        assert!(
            (s.actual_throughput - t.actual_throughput).abs() < 1e-6,
            "round {}: actual {} vs {}",
            a.round,
            s.actual_throughput,
            t.actual_throughput
        );
        assert_eq!(
            s.devices_held, t.devices_held,
            "devices at round {}",
            a.round
        );
        for (u, v) in s.gpu_shares.iter().zip(&t.gpu_shares) {
            assert!((u - v).abs() < 1e-6, "round {}: share {u} vs {v}", a.round);
        }
    }
}

/// The equivalence oracle: recovered and twin must answer every probe
/// identically — status aggregates, two more scheduling rounds to 1e-6, and
/// byte-identical responses for every pre-crash handle and job id.
fn assert_twins(recovered: &mut Journaled, twin: &mut ShardCoordinator, script: &Script) {
    let (twin_status, recovered_status) = match (
        twin.apply(Command::Status, 0),
        recovered.try_apply(Command::Status, 0).expect("no fault"),
    ) {
        (Response::Status(a), Response::Status(b)) => (a, b),
        other => panic!("status failed: {other:?}"),
    };
    assert_eq!(twin_status.round, recovered_status.round);
    assert_eq!(twin_status.tenants, recovered_status.tenants);
    assert_eq!(twin_status.jobs, recovered_status.jobs);
    assert_eq!(twin_status.hosts, recovered_status.hosts);
    assert_eq!(twin_status.total_devices, recovered_status.total_devices);
    assert_eq!(
        twin_status.forwarding_entries,
        recovered_status.forwarding_entries
    );
    // Per-shard state, minus `solve_ewma_secs` (a wall-clock load signal
    // that legitimately differs between runs).
    assert_eq!(twin_status.shards.len(), recovered_status.shards.len());
    for (a, b) in twin_status.shards.iter().zip(&recovered_status.shards) {
        assert_eq!(a.shard, b.shard);
        assert_eq!(a.round, b.round);
        assert_eq!(a.tenants, b.tenants);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.hosts, b.hosts);
        assert_eq!(a.total_devices, b.total_devices);
    }

    for _ in 0..2 {
        assert_rounds_match(&tick_journaled(recovered), &tick_coordinator(twin));
    }

    // Every pre-crash handle and job id resolves, with identical outcomes.
    for (i, &tenant) in script.tenants.iter().enumerate() {
        let probe = Command::UpdateSpeedups {
            tenant,
            speedup: vec![1.0, 1.22, 1.61],
        };
        let twin_reply = twin.apply(probe.clone(), 0);
        let recovered_reply = recovered.try_apply(probe, 0).expect("no fault");
        assert!(
            matches!(twin_reply, Response::SpeedupsUpdated { .. }),
            "handle {} dead on twin: {twin_reply:?}",
            sharded::format(tenant)
        );
        assert_eq!(
            twin_reply,
            recovered_reply,
            "handle {}",
            sharded::format(tenant)
        );

        let finish = Command::JobFinished {
            tenant,
            job: script.jobs[i],
        };
        let twin_reply = twin.apply(finish.clone(), 0);
        let recovered_reply = recovered.try_apply(finish, 0).expect("no fault");
        assert!(
            matches!(twin_reply, Response::JobFinished { .. }),
            "job {} dead on twin: {twin_reply:?}",
            script.jobs[i]
        );
        assert_eq!(recovered_reply, twin_reply, "job {}", script.jobs[i]);
    }

    // The removed host stays dead on both sides.
    let dead = Command::RemoveHost {
        handle: script.host,
    };
    assert_eq!(
        twin.apply(dead.clone(), 0),
        recovered.try_apply(dead, 0).expect("no fault")
    );
}

/// Drives the script into an armed journaled federation until the fault
/// fires, recovers from the crash files, finishes the script, and checks
/// twin equivalence.
fn crash_and_recover(tag: &str, plan: FaultPlan) {
    let script = build_script();
    let dir = fresh_dir(tag);

    let mut twin = coordinator(2);
    for command in &script.commands {
        twin.apply(command.clone(), 0);
    }

    let mut journaled = Journaled::create(coordinator(2), &dir, opts())
        .unwrap()
        .with_faults(plan);
    let mut crashed_at = None;
    let mut index = 0;
    while index < script.commands.len() {
        match journaled.try_apply(script.commands[index].clone(), 0) {
            Ok(_) => index += 1,
            Err(_) => {
                crashed_at = Some(index);
                break;
            }
        }
    }
    let crashed_at = crashed_at.expect("the armed fault must fire inside the script");
    // A real crash destroys the process; dropping without sync or
    // checkpoint is the in-process equivalent.
    drop(journaled);

    let (mut recovered, summary) = Journaled::recover(&dir, opts()).unwrap();
    // Pre-append crashes lose the command entirely (it was never journaled):
    // resume by re-issuing it.  Every other point fires with the command
    // already journaled, so replay has applied it — resume after it.
    let resume_from = if plan.point == CrashPoint::PreAppend {
        crashed_at
    } else {
        assert!(
            summary.replayed > 0 || summary.base_seq > 0,
            "recovery saw neither snapshot progress nor journal tail: {summary:?}"
        );
        crashed_at + 1
    };
    for command in &script.commands[resume_from..] {
        recovered
            .try_apply(command.clone(), 0)
            .expect("no fault armed after recovery");
    }

    assert_twins(&mut recovered, &mut twin, &script);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_pre_append_recovers_to_twin() {
    crash_and_recover(
        "pre-append",
        FaultPlan {
            point: CrashPoint::PreAppend,
            after: 9,
        },
    );
}

#[test]
fn crash_post_append_pre_apply_recovers_to_twin() {
    crash_and_recover(
        "post-append",
        FaultPlan {
            point: CrashPoint::PostAppendPreApply,
            after: 11,
        },
    );
}

#[test]
fn crash_mid_snapshot_write_recovers_to_twin() {
    // Fires inside the second checkpoint (8th journaled command): the
    // half-written snapshot temp file must be ignored and the previous
    // checkpoint + full tail replayed.
    crash_and_recover(
        "mid-snapshot",
        FaultPlan {
            point: CrashPoint::MidSnapshotWrite,
            after: 2,
        },
    );
}

#[test]
fn crash_mid_compaction_recovers_to_twin() {
    // Fires after the new checkpoint landed but before covered segments are
    // deleted: recovery must skip the now-stale records, not replay them.
    crash_and_recover(
        "mid-compaction",
        FaultPlan {
            point: CrashPoint::MidCompaction,
            after: 2,
        },
    );
}

/// `Rebalance` is the one apply-before-journal command (its plan reads a
/// wall-clock load EWMA, so the *trail* of executed moves is journaled
/// instead).  Force a rebalance that actually moves tenants, crash on the
/// next command, and the recovered federation must hold the exact post-
/// rebalance placement and answer every old handle.
#[test]
fn rebalance_trail_survives_crash() {
    let dir = fresh_dir("rebalance");
    let mut journaled = Journaled::create(coordinator(2), &dir, opts()).unwrap();

    let mut tenants = Vec::new();
    for i in 0..4 {
        match journaled.try_apply(join_cmd(i), 0).unwrap() {
            Response::TenantJoined { tenant } => tenants.push(tenant),
            other => panic!("join failed: {other:?}"),
        }
        journaled.try_apply(submit_cmd(tenants[i]), 0).unwrap();
    }
    // Pile everything onto shard 0 so the rebalancer has real work.
    for &tenant in &tenants {
        if sharded::shard_of(tenant) != 0 {
            let moved = journaled
                .try_apply(Command::MigrateTenant { tenant, shard: 0 }, 0)
                .unwrap();
            assert!(
                matches!(moved, Response::TenantMigrated { .. }),
                "{moved:?}"
            );
        }
    }
    journaled.try_apply(Command::Tick, 0).unwrap();

    let report = match journaled.try_apply(Command::Rebalance, 0).unwrap() {
        Response::Rebalanced(report) => report,
        other => panic!("rebalance failed: {other:?}"),
    };
    assert!(
        !report.moves.is_empty(),
        "fixture must force at least one move, got {report:?}"
    );
    let moved_handles: Vec<u64> = report.moves.iter().map(|m| m.previous).collect();
    let placement_before = match journaled.try_apply(Command::Status, 0).unwrap() {
        Response::Status(status) => status
            .shards
            .iter()
            .map(|s| (s.shard, s.tenants, s.jobs))
            .collect::<Vec<_>>(),
        other => panic!("status failed: {other:?}"),
    };

    // Crash on the next mutating command, then recover.
    let mut journaled = journaled.with_faults(FaultPlan {
        point: CrashPoint::PreAppend,
        after: 1,
    });
    assert!(journaled.try_apply(Command::Tick, 0).is_err());
    drop(journaled);

    let (mut recovered, _) = Journaled::recover(&dir, opts()).unwrap();
    // The journaled trail reproduced the exact post-rebalance placement.
    let placement_after = match recovered.try_apply(Command::Status, 0).unwrap() {
        Response::Status(status) => status
            .shards
            .iter()
            .map(|s| (s.shard, s.tenants, s.jobs))
            .collect::<Vec<_>>(),
        other => panic!("status failed: {other:?}"),
    };
    assert_eq!(placement_before, placement_after);
    // Every pre-rebalance handle still answers through the forwarding table.
    for old_handle in moved_handles {
        let reply = recovered
            .try_apply(
                Command::UpdateSpeedups {
                    tenant: old_handle,
                    speedup: vec![1.0, 1.2, 1.5],
                },
                0,
            )
            .unwrap();
        assert!(
            matches!(reply, Response::SpeedupsUpdated { .. }),
            "rebalanced handle {} dead after recovery: {reply:?}",
            sharded::format(old_handle)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clean shutdown checkpoints on exit, so a restart replays nothing.
#[test]
fn clean_shutdown_never_needs_tail_replay() {
    let dir = fresh_dir("clean-shutdown");
    let journaled = Journaled::create(coordinator(1), &dir, opts()).unwrap();
    let server = Server::spawn(journaled, "127.0.0.1:0").unwrap();

    let mut client = ServiceClient::connect(server.local_addr()).unwrap();
    let tenant = client.join("clean", 1, &[1.0, 1.2, 1.4]).unwrap();
    client.submit_job(tenant, "model", 2, 1e9).unwrap();
    client.tick().unwrap();
    client.shutdown().unwrap();
    server.join();

    let (mut recovered, summary) = Journaled::recover(&dir, opts()).unwrap();
    assert_eq!(summary.replayed, 0, "clean shutdown must not leave a tail");
    assert_eq!(summary.torn_bytes, 0);
    assert_eq!(summary.gap_dropped, 0);
    let reply = recovered
        .try_apply(
            Command::UpdateSpeedups {
                tenant,
                speedup: vec![1.0, 1.3, 1.6],
            },
            0,
        )
        .unwrap();
    assert!(
        matches!(reply, Response::SpeedupsUpdated { .. }),
        "{reply:?}"
    );
    assert_eq!(recovered.rounds_run(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns the real daemon binary and returns (child, listening address).
fn spawn_serviced(args: &[&str]) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_oef-serviced"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn oef-serviced");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before listening")
            .expect("daemon stdout");
        if let Some(addr) = line.strip_prefix("oef-serviced listening on ") {
            break addr.to_string();
        }
    };
    // Leak the reader on a detached thread so the daemon never blocks on a
    // full stdout pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// The ultimate fault: `kill -9` the real daemon mid-trace, restart it from
/// its journal directory, and the recovered process must match an
/// in-process twin over the wire.
#[test]
fn kill_nine_mid_trace_recovers_over_the_wire() {
    let dir = fresh_dir("kill9");
    let dir_arg = dir.to_str().unwrap().to_string();
    let (mut child, addr) = spawn_serviced(&[
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
        "--journal-dir",
        &dir_arg,
        "--fsync-every",
        "1",
        "--compact-every",
        "5",
    ]);

    let mut twin = coordinator(2);
    let mut client = ServiceClient::connect(&addr).unwrap();
    let mut tenants = Vec::new();
    let mut jobs = Vec::new();
    for i in 0..PROFILES.len() {
        let tenant = client.join(&format!("crash-{i}"), 1, PROFILES[i]).unwrap();
        let job = client.submit_job(tenant, "model", 2, 1e9).unwrap();
        match twin.apply(join_cmd(i), 0) {
            Response::TenantJoined { tenant: t } => assert_eq!(t, tenant, "twin diverged"),
            other => panic!("twin join failed: {other:?}"),
        }
        twin.apply(submit_cmd(tenant), 0);
        tenants.push(tenant);
        jobs.push(job);
    }
    for _ in 0..2 {
        let wire = client.tick().unwrap();
        let local = tick_coordinator(&mut twin);
        assert_rounds_match(&wire, &local);
    }

    // SIGKILL: no drop handlers, no flushes — only the journal survives.
    child.kill().expect("kill -9 the daemon");
    let _ = child.wait();

    let (mut child, addr) = spawn_serviced(&[
        "--addr",
        "127.0.0.1:0",
        "--journal-dir",
        &dir_arg,
        "--fsync-every",
        "1",
        "--compact-every",
        "5",
    ]);
    let mut client = ServiceClient::connect(&addr).unwrap();

    let status = client.status().unwrap();
    assert_eq!(status.tenants, tenants.len());
    assert_eq!(status.round, 2);
    let wire = client.tick().unwrap();
    let local = tick_coordinator(&mut twin);
    assert_rounds_match(&wire, &local);
    for (i, &tenant) in tenants.iter().enumerate() {
        client.update_speedups(tenant, &[1.0, 1.25, 1.6]).unwrap();
        twin.apply(
            Command::UpdateSpeedups {
                tenant,
                speedup: vec![1.0, 1.25, 1.6],
            },
            0,
        );
        client.finish_job(tenant, jobs[i]).unwrap();
        twin.apply(
            Command::JobFinished {
                tenant,
                job: jobs[i],
            },
            0,
        );
    }
    let wire = client.tick().unwrap();
    let local = tick_coordinator(&mut twin);
    assert_rounds_match(&wire, &local);

    client.shutdown().unwrap();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the daemon binary with flags it must refuse and returns its stderr,
/// asserting the exit status is the usage/refusal code.
fn refused_by_serviced(args: &[&str]) -> String {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_oef-serviced"))
        .args(args)
        .output()
        .expect("run oef-serviced");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    stderr
}

/// The one restore path, at the binary: a flagless daemon's wire `Snapshot`
/// is the v5 envelope, `--restore` of that file resumes it — next round equal
/// to an in-process twin, pre-snapshot handles and job ids resolving — and a
/// file of any other version, a bare shard snapshot included, is refused
/// with the version found and the one supported.
#[test]
fn restore_file_resumes_the_daemon_and_other_versions_are_refused() {
    let dir = fresh_dir("restore");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("state.json");
    let file_arg = file.to_str().unwrap().to_string();

    let (mut child, addr) = spawn_serviced(&["--addr", "127.0.0.1:0"]);
    let mut twin = coordinator(1);
    let mut client = ServiceClient::connect(&addr).unwrap();
    let mut tenants = Vec::new();
    let mut jobs = Vec::new();
    for i in 0..2 {
        let tenant = client.join(&format!("crash-{i}"), 1, PROFILES[i]).unwrap();
        jobs.push(client.submit_job(tenant, "model", 2, 1e9).unwrap());
        twin.apply(join_cmd(i), 0);
        twin.apply(submit_cmd(tenant), 0);
        tenants.push(tenant);
    }
    assert_rounds_match(&client.tick().unwrap(), &tick_coordinator(&mut twin));
    let snapshot = client.snapshot().unwrap();
    assert_eq!(snapshot, twin.snapshot_json().unwrap());
    std::fs::write(&file, &snapshot).unwrap();
    client.shutdown().unwrap();
    let _ = child.wait();

    let (mut child, addr) = spawn_serviced(&["--addr", "127.0.0.1:0", "--restore", &file_arg]);
    let mut client = ServiceClient::connect(&addr).unwrap();
    let status = client.status().unwrap();
    assert_eq!(
        (status.tenants, status.round, status.shards.len()),
        (2, 1, 1)
    );
    assert_rounds_match(&client.tick().unwrap(), &tick_coordinator(&mut twin));
    for (&tenant, &job) in tenants.iter().zip(&jobs) {
        client.update_speedups(tenant, &[1.0, 1.25, 1.6]).unwrap();
        client.finish_job(tenant, job).unwrap();
    }
    client.shutdown().unwrap();
    let _ = child.wait();

    let bare_shard = twin.shards()[0].snapshot_json().unwrap();
    let v4 = snapshot.replacen("\"version\":5", "\"version\":4", 1);
    for (text, found) in [(bare_shard, 2), (v4, 4)] {
        std::fs::write(&file, text).unwrap();
        let stderr = refused_by_serviced(&["--addr", "127.0.0.1:0", "--restore", &file_arg]);
        assert!(
            stderr.contains(&format!(
                "version {found} is not supported (coordinator supports 5)"
            )),
            "{stderr}"
        );
    }
    // The envelope carries the shard count; a flag that contradicts it is
    // refused before the file is even read.
    let stderr = refused_by_serviced(&["--restore", &file_arg, "--shards", "2"]);
    assert!(stderr.contains("--shards"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flags are refused by presence, not by comparing their value with the
/// default, and the placement name is checked at every shard count.
#[test]
fn journal_and_placement_flags_are_validated_before_anything_is_built() {
    let stderr = refused_by_serviced(&["--addr", "127.0.0.1:0", "--fsync-every", "1"]);
    assert!(
        stderr.contains("--fsync-every needs --journal-dir"),
        "{stderr}"
    );
    let stderr = refused_by_serviced(&["--addr", "127.0.0.1:0", "--compact-every", "4096"]);
    assert!(
        stderr.contains("--compact-every needs --journal-dir"),
        "{stderr}"
    );
    let stderr = refused_by_serviced(&["--addr", "127.0.0.1:0", "--placement", "bogus"]);
    assert!(
        stderr.contains("unknown placement `bogus` (supported: least-loaded, round-robin)"),
        "{stderr}"
    );
}
