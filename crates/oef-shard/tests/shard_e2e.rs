//! End-to-end tests of the sharded federation.
//!
//! The headline test is restart equivalence across the shard boundary: a
//! federation that snapshots mid-run and restores into a brand-new
//! coordinator must reproduce an uninterrupted run's allocations to 1e-6 on
//! every shard — including host churn straddling the snapshot and a tenant
//! placed *after* the restore (the placement cursor travels with the
//! envelope).  A second test drives the federation over real loopback TCP
//! and proves a tenant's handle keeps working while a *different* shard
//! churns hosts.  A third is differential: a 1-shard coordinator — what a
//! flagless `oef-serviced` serves — and a bare `SchedulerService` fed the same
//! script return the same replies, command for command.

use oef_cluster::ClusterTopology;
use oef_core::sharded;
use oef_service::{
    Command, ErrorCode, Response, RoundSummary, SchedulerService, Server, ServiceClient,
    ServiceConfig, ServiceLimits,
};
use oef_shard::{placement_from_name, FederatedSnapshot, ShardCoordinator};

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

fn join(c: &mut ShardCoordinator, name: &str, speedup: &[f64]) -> u64 {
    match c.apply(
        Command::TenantJoin {
            name: name.into(),
            weight: 1,
            speedup: speedup.to_vec(),
        },
        0,
    ) {
        Response::TenantJoined { tenant } => tenant,
        other => panic!("join failed: {other:?}"),
    }
}

fn submit(c: &mut ShardCoordinator, tenant: u64) {
    let r = c.apply(
        Command::SubmitJob {
            tenant,
            model: "model".into(),
            workers: 2,
            total_work: 1e9,
        },
        0,
    );
    assert!(matches!(r, Response::JobSubmitted { .. }), "{r:?}");
}

fn tick(c: &mut ShardCoordinator) -> RoundSummary {
    match c.apply(Command::Tick, 0) {
        Response::RoundCompleted(summary) => summary,
        other => panic!("tick failed: {other:?}"),
    }
}

fn assert_rounds_match(a: &[RoundSummary], b: &[RoundSummary]) {
    assert_eq!(a.len(), b.len());
    for (round, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.round, y.round, "round index at {round}");
        assert_eq!(
            x.tenants.len(),
            y.tenants.len(),
            "active tenants at round {round}"
        );
        for (s, t) in x.tenants.iter().zip(&y.tenants) {
            assert_eq!(s.tenant, t.tenant, "wire handle at round {round}");
            assert!(
                (s.estimated_throughput - t.estimated_throughput).abs() < 1e-6,
                "round {round}: estimated {} vs {}",
                s.estimated_throughput,
                t.estimated_throughput
            );
            assert!(
                (s.actual_throughput - t.actual_throughput).abs() < 1e-6,
                "round {round}: actual {} vs {}",
                s.actual_throughput,
                t.actual_throughput
            );
            assert_eq!(s.devices_held, t.devices_held, "devices at round {round}");
            for (u, v) in s.gpu_shares.iter().zip(&t.gpu_shares) {
                assert!((u - v).abs() < 1e-6, "round {round}: share {u} vs {v}");
            }
        }
    }
}

/// The first half of the scripted session, shared by both runs: 4 tenants
/// spread over 2 shards, 3 rounds, a host added, 2 more rounds.
fn first_half(c: &mut ShardCoordinator) -> (Vec<u64>, u64, Vec<RoundSummary>) {
    let profiles: [&[f64]; 4] = [
        &[1.0, 1.18, 1.39],
        &[1.0, 1.55, 2.15],
        &[1.0, 1.25, 1.55],
        &[1.0, 1.40, 1.90],
    ];
    let mut handles = Vec::new();
    for (i, profile) in profiles.iter().enumerate() {
        let h = join(c, &format!("tenant-{i}"), profile);
        submit(c, h);
        handles.push(h);
    }
    let mut rounds = Vec::new();
    for _ in 0..3 {
        rounds.push(tick(c));
    }
    let host = match c.apply(
        Command::AddHost {
            gpu_type: 0,
            num_gpus: 4,
        },
        0,
    ) {
        Response::HostAdded { host } => host,
        other => panic!("add host failed: {other:?}"),
    };
    for _ in 0..2 {
        rounds.push(tick(c));
    }
    (handles, host, rounds)
}

/// The second half: the pre-snapshot host is removed, a fifth tenant joins
/// (exercising post-restore placement), and 3 more rounds run.
fn second_half(c: &mut ShardCoordinator, host: u64) -> (u64, Vec<RoundSummary>) {
    let r = c.apply(Command::RemoveHost { handle: host }, 0);
    assert!(
        matches!(r, Response::HostRemoved { .. }),
        "host handle minted before the snapshot must stay valid after it: {r:?}"
    );
    let late = join(c, "late-tenant", &[1.0, 1.30, 1.70]);
    submit(c, late);
    let mut rounds = Vec::new();
    for _ in 0..3 {
        rounds.push(tick(c));
    }
    (late, rounds)
}

#[test]
fn federated_restore_matches_uninterrupted_run_within_1e6() {
    // --- reference: one coordinator runs the whole script uninterrupted.
    let mut uninterrupted = coordinator(2);
    let (handles, host, mut expected) = first_half(&mut uninterrupted);
    let (expected_late, tail) = second_half(&mut uninterrupted, host);
    expected.extend(tail);
    assert!(
        handles
            .iter()
            .map(|&h| sharded::shard_of(h))
            .collect::<std::collections::HashSet<_>>()
            .len()
            == 2,
        "script must actually span both shards"
    );

    // --- interrupted: same script, but snapshot after the first half and
    // resume in a brand-new coordinator.
    let mut original = coordinator(2);
    let (_, host_b, mut observed) = first_half(&mut original);
    assert_eq!(host_b, host, "federations mint identical handles");
    let Response::Snapshot { snapshot } = original.apply(Command::Snapshot, 0) else {
        panic!("snapshot failed");
    };
    drop(original);
    let mut restored = ShardCoordinator::from_federated_json(&snapshot).unwrap();
    assert_eq!(restored.num_shards(), 2);
    assert_eq!(restored.rounds_run(), 5);
    let (observed_late, tail) = second_half(&mut restored, host_b);
    observed.extend(tail);

    assert_eq!(
        observed_late, expected_late,
        "post-restore tenant lands on the same shard with the same handle"
    );
    assert_rounds_match(&expected, &observed);

    // Per-shard states agree exactly, not just through round summaries.
    let mut twin = coordinator(2);
    let (_, twin_host, _) = first_half(&mut twin);
    second_half(&mut twin, twin_host);
    for (shard, (a, b)) in twin.shards().iter().zip(restored.shards()).enumerate() {
        assert_eq!(
            a.tenant_handles(),
            b.tenant_handles(),
            "shard {shard} tenant identity"
        );
        assert_eq!(a.state(), b.state(), "shard {shard} cluster state");
    }
}

#[test]
fn tenant_handle_survives_other_shards_host_churn_over_tcp() {
    let server = Server::spawn(coordinator(2), "127.0.0.1:0").expect("daemon binds");
    let mut client = ServiceClient::connect(server.local_addr()).expect("client connects");

    // Two tenants: least-loaded puts them on different shards.
    let alice = client.join("alice", 1, &[1.0, 1.18, 1.39]).unwrap();
    let bob = client.join("bob", 1, &[1.0, 1.55, 2.15]).unwrap();
    client.submit_job(alice, "vgg16", 2, 1e9).unwrap();
    client.submit_job(bob, "lstm", 2, 1e9).unwrap();
    assert_ne!(sharded::shard_of(alice), sharded::shard_of(bob));

    let round = client.tick().unwrap();
    assert_eq!(round.tenants.len(), 2);

    // Churn hosts on bob's shard only: add capacity, tick, remove it again.
    let bob_shard = sharded::shard_of(bob);
    let added = loop {
        // Least-loaded host placement fills the smaller shard first; keep
        // adding until one lands on bob's shard (first add already does, as
        // both shards start equal and ties break low — force it instead).
        let h = client.add_host(0, 4).unwrap();
        if sharded::shard_of(h) == bob_shard {
            break h;
        }
        client.tick().unwrap();
    };
    client.tick().unwrap();
    client.remove_host(added).unwrap();

    // Alice's handle — minted by the *other* shard — still works for every
    // handle-carrying command.
    client.update_speedups(alice, &[1.0, 1.20, 1.45]).unwrap();
    let job = client.submit_job(alice, "resnet", 1, 1e6).unwrap();
    client.finish_job(alice, job).unwrap();
    let round = client.tick().unwrap();
    assert!(
        round.tenants.iter().any(|t| t.tenant == alice),
        "alice still scheduled after shard {bob_shard} churned"
    );

    // And bob's shard state is consistent too.
    let status = client.status().unwrap();
    assert_eq!(status.tenants, 2);
    assert_eq!(
        status.shards.iter().map(|s| s.tenants).sum::<usize>(),
        2,
        "per-shard entries stay in sync with the aggregate"
    );

    client.shutdown().unwrap();
    server.join();
}

/// A reply as the wire would carry it, minus the one field that reads the
/// wall clock (how long this particular solve took).
fn wire_text(mut reply: Response) -> String {
    if let Response::RoundCompleted(round) = &mut reply {
        round.solver_time_secs = 0.0;
    }
    serde_json::to_string(&reply).unwrap()
}

/// The promise the flagless daemon makes now that it is always a federation:
/// shard 0 is the identity handle encoding and one shard ticks serially, so
/// every command a bare service answers, a 1-shard coordinator answers with
/// the same bytes — handles, round summaries, error codes and messages.
#[test]
fn one_shard_coordinator_answers_exactly_as_a_bare_service() {
    let config = ServiceConfig {
        limits: ServiceLimits {
            max_tenants: 3,
            ..ServiceLimits::default()
        },
        ..ServiceConfig::default()
    };
    let mut bare = SchedulerService::new(ClusterTopology::paper_cluster(), config.clone()).unwrap();
    let mut federated = ShardCoordinator::new(
        vec![ClusterTopology::paper_cluster()],
        config,
        placement_from_name("least-loaded").unwrap(),
    )
    .unwrap();
    let mut both = |command: Command| -> Response {
        let from_bare = bare.apply(command.clone(), 0);
        let from_federation = federated.apply(command.clone(), 0);
        assert_eq!(
            wire_text(from_federation),
            wire_text(from_bare.clone()),
            "replies diverged on {command:?}"
        );
        from_bare
    };
    let refused = |reply: Response| match reply {
        Response::Error { code, .. } => code,
        other => panic!("expected a refusal, got {other:?}"),
    };

    let profiles: [&[f64]; 3] = [&[1.0, 1.18, 1.39], &[1.0, 1.55, 2.15], &[1.0, 1.25, 1.55]];
    let mut tenants = Vec::new();
    for (i, profile) in profiles.iter().enumerate() {
        let Response::TenantJoined { tenant } = both(Command::TenantJoin {
            name: format!("tenant-{i}"),
            weight: 1,
            speedup: profile.to_vec(),
        }) else {
            panic!("join {i} failed");
        };
        tenants.push(tenant);
    }
    let over_quota = both(Command::TenantJoin {
        name: "one-too-many".into(),
        weight: 1,
        speedup: vec![1.0, 1.3, 1.7],
    });
    assert_eq!(refused(over_quota), ErrorCode::QuotaExceeded);
    let mut jobs = Vec::new();
    for &tenant in &tenants {
        let Response::JobSubmitted { job, .. } = both(Command::SubmitJob {
            tenant,
            model: "model".into(),
            workers: 2,
            total_work: 1e9,
        }) else {
            panic!("submit failed");
        };
        jobs.push(job);
    }
    for _ in 0..3 {
        let Response::RoundCompleted(round) = both(Command::Tick) else {
            panic!("tick failed");
        };
        assert_eq!(round.tenants.len(), 3);
    }
    let add_host = || Command::AddHost {
        gpu_type: 0,
        num_gpus: 4,
    };
    let Response::HostAdded { host } = both(add_host()) else {
        panic!("add host failed");
    };
    both(Command::Tick);
    both(Command::RemoveHost { handle: host });
    let dead_host = both(Command::RemoveHost { handle: host });
    assert_eq!(refused(dead_host), ErrorCode::UnknownHost);
    let Response::HostAdded { host: readded } = both(add_host()) else {
        panic!("re-add host failed");
    };
    assert_ne!(readded, host, "a removed handle is dead forever");
    both(Command::UpdateSpeedups {
        tenant: tenants[1],
        speedup: vec![1.0, 1.6, 2.3],
    });
    both(Command::JobFinished {
        tenant: tenants[2],
        job: jobs[2],
    });
    both(Command::TenantLeave { tenant: tenants[0] });
    let Response::RoundCompleted(round) = both(Command::Tick) else {
        panic!("tick failed");
    };
    assert!(round.tenants.iter().all(|t| t.tenant != tenants[0]));
    let stale = both(Command::SubmitJob {
        tenant: tenants[0],
        model: "model".into(),
        workers: 1,
        total_work: 1e6,
    });
    assert_eq!(refused(stale), ErrorCode::UnknownTenant);

    // `Status` and `Snapshot` are supersets on the federation side: compare
    // what both report.  The bare core has no shard list or forwarding
    // table; uptime is a wall clock.
    let (Response::Status(mut from_bare), Response::Status(mut from_federation)) = (
        bare.apply(Command::Status, 0),
        federated.apply(Command::Status, 0),
    ) else {
        panic!("status failed");
    };
    assert_eq!(from_federation.shards.len(), 1);
    assert_eq!(from_federation.shards[0].tenants, from_bare.tenants);
    from_federation.shards.clear();
    from_bare.uptime_secs = 0.0;
    from_federation.uptime_secs = 0.0;
    assert_eq!(from_federation, from_bare);

    // The federation's snapshot is the v5 envelope; its only shard entry is
    // the bare core's snapshot, byte for byte.
    let (
        Response::Snapshot {
            snapshot: from_bare,
        },
        Response::Snapshot {
            snapshot: from_federation,
        },
    ) = (
        bare.apply(Command::Snapshot, 0),
        federated.apply(Command::Snapshot, 0),
    )
    else {
        panic!("snapshot failed");
    };
    let envelope: FederatedSnapshot = serde_json::from_str(&from_federation).unwrap();
    assert_eq!(envelope.round, 5);
    assert!(envelope.forwarding.is_empty());
    assert_eq!(envelope.shards.len(), 1);
    assert_eq!(
        serde_json::to_string(&envelope.shards[0]).unwrap(),
        from_bare
    );
}
