//! A federated snapshot is written straight from the shards' live state and
//! restored straight from the parsed envelope.  Neither shortcut may change a
//! byte of the document or drop a validation: the envelope must equal what
//! the `Value`-tree path wrote, survive restore → snapshot unchanged, and
//! every "wrong version" refusal must still fire with its message.

use oef_cluster::ClusterTopology;
use oef_service::{Command, Response, SchedulerService, ServiceConfig, ServiceError};
use oef_shard::{placement_from_name, FederatedSnapshot, ShardCoordinator};
use proptest::prelude::*;
use serde::Serialize;

fn through_tree<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.serialize().write_json(&mut out).unwrap();
    out
}

fn coordinator(shards: usize) -> ShardCoordinator {
    ShardCoordinator::new(
        (0..shards)
            .map(|_| ClusterTopology::paper_cluster())
            .collect(),
        ServiceConfig::default(),
        placement_from_name("round-robin").unwrap(),
    )
    .unwrap()
}

fn join(c: &mut ShardCoordinator, name: &str) -> u64 {
    match c.apply(
        Command::TenantJoin {
            name: name.to_string(),
            weight: 1,
            speedup: vec![1.0, 1.3, 1.9],
        },
        0,
    ) {
        Response::TenantJoined { tenant } => tenant,
        other => panic!("join failed: {other:?}"),
    }
}

/// A 4-shard federation that has lived a little: tenants with jobs on every
/// shard, rounds run, and migrations (driven through stale aliases too) so
/// the forwarding table holds chains.
fn busy_federation(moves: &[(u16, u16)]) -> ShardCoordinator {
    let mut c = coordinator(4);
    let mut aliases: Vec<Vec<u64>> = (0..10)
        .map(|t| vec![join(&mut c, &format!("tenant-{t}-😀"))])
        .collect();
    for handles in &aliases {
        c.apply(
            Command::SubmitJob {
                tenant: handles[0],
                model: "resnet\"50\"".to_string(),
                workers: 2,
                total_work: 1e6,
            },
            0,
        );
    }
    c.apply(Command::Tick, 0);
    for &(pick, target) in moves {
        let handles = &mut aliases[usize::from(pick) % 10];
        let alias = handles[usize::from(target) % handles.len()];
        if let Response::TenantMigrated { tenant, .. } = c.apply(
            Command::MigrateTenant {
                tenant: alias,
                shard: usize::from(target) % 4,
            },
            0,
        ) {
            handles.push(tenant);
        }
    }
    c.apply(Command::Tick, 0);
    c
}

fn refusal(snapshot: &str) -> String {
    match ShardCoordinator::from_federated_json(snapshot) {
        Err(ServiceError::BadSnapshot(reason)) => reason,
        Err(other) => panic!("expected BadSnapshot, got {other:?}"),
        Ok(_) => panic!("snapshot must be refused"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn envelopes_survive_restore_and_match_the_tree_path(
        moves in proptest::collection::vec((0u16..=999, 0u16..=999), 1..12),
    ) {
        let c = busy_federation(&moves);
        let written = c.snapshot_json().unwrap();

        // The owned envelope (shard entries as raw trees) is the same
        // document through both encoders.
        let owned: FederatedSnapshot = serde_json::from_str(&written).unwrap();
        prop_assert_eq!(owned.shards.len(), 4);
        prop_assert_eq!(owned.forwarding.len(), c.forwarding_entries());
        prop_assert_eq!(&serde_json::to_string(&owned).unwrap(), &written);
        prop_assert_eq!(&through_tree(&owned), &written);
        prop_assert_eq!(&serde_json::from_str::<FederatedSnapshot>(&written).unwrap(), &owned);

        // Each shard entry is bit for bit what that shard writes on its own.
        for (entry, shard) in owned.shards.iter().zip(c.shards()) {
            prop_assert_eq!(through_tree(entry), shard.snapshot_json().unwrap());
        }

        // Restore → snapshot is the identity on the text.
        let restored = ShardCoordinator::from_federated_json(&written).unwrap();
        prop_assert_eq!(restored.forwarding_entries(), c.forwarding_entries());
        prop_assert_eq!(restored.snapshot_json().unwrap(), written);
    }
}

#[test]
fn a_four_shard_federation_with_forwarding_chains_round_trips_byte_for_byte() {
    // Tenant 0 moves three times (the last two through its oldest alias),
    // tenant 1 once: chains of depth > 1 before compression.
    let c = busy_federation(&[(0, 1), (0, 2), (0, 3), (1, 2), (5, 0)]);
    assert!(c.forwarding_entries() >= 3, "{}", c.forwarding_entries());
    let written = c.snapshot_json().unwrap();
    assert!(written.starts_with("{\"version\":5,\"round\":2,\"journal_seq\":0,\"placement\":"));
    let restored = ShardCoordinator::from_federated_json(&written).unwrap();
    assert_eq!(restored.snapshot_json().unwrap(), written);
    // The wire command and the direct path agree.
    let mut c = c;
    let Response::Snapshot { snapshot } = c.apply(Command::Snapshot, 0) else {
        panic!("snapshot failed");
    };
    assert_eq!(snapshot, written);
}

#[test]
fn wrong_version_refusals_keep_their_messages() {
    let c = busy_federation(&[(0, 1)]);
    let v5 = c.snapshot_json().unwrap();

    // One arm refuses every version but 5 — a bare shard snapshot (2)
    // offered as a federation included — naming both versions.
    let v2 = c.shards()[0].snapshot_json().unwrap();
    assert_eq!(
        refusal(&v2),
        "federated snapshot version 2 is not supported (coordinator supports 5)"
    );
    for other in [3, 4, 9] {
        let reason = refusal(&v5.replacen("\"version\":5", &format!("\"version\":{other}"), 1));
        assert_eq!(
            reason,
            format!("federated snapshot version {other} is not supported (coordinator supports 5)")
        );
    }
    let reason = refusal(&v5.replacen("\"version\":5", "\"version\":\"5\"", 1));
    assert!(reason.contains("no numeric `version` field"), "{reason}");

    // A shard entry of another layout version hits the per-shard gate — by
    // version, before any "missing field" noise — and names the shard.
    let first_shard = v5
        .find("\"shards\":[{\"version\":2")
        .expect("envelope layout");
    let mut stale = v5.clone();
    stale.replace_range(
        first_shard..first_shard + "\"shards\":[{\"version\":2".len(),
        "\"shards\":[{\"version\":1",
    );
    let reason = refusal(&stale);
    assert!(reason.starts_with("shard 0: "), "{reason}");
    assert!(
        reason.contains("snapshot version 1 is not supported"),
        "{reason}"
    );
    // The shard core on its own refuses the same entry with the same words.
    let v1 = v2.replacen("\"version\":2", "\"version\":1", 1);
    let Err(ServiceError::BadSnapshot(unsharded)) = SchedulerService::from_snapshot_json(&v1)
    else {
        panic!("v1 must be refused");
    };
    assert!(reason.ends_with(&unsharded), "{reason} / {unsharded}");

    // Structural damage to the envelope is still a structured refusal.
    let reason = refusal(&v5.replacen("\"shards\":[", "\"shardz\":[", 1));
    assert!(reason.contains("no `shards` array"), "{reason}");
    let reason = refusal(&v5.replacen(",\"journal_seq\":0", "", 1));
    assert!(reason.contains("missing field `journal_seq`"), "{reason}");
}
