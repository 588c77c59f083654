//! The federated (v5) snapshot envelope — the one durable format of a
//! daemon.
//!
//! A daemon is N independent schedulers behind one router (N = 1 unless
//! `--shards` says otherwise), so its durable state is exactly N independent
//! [`oef_service::ServiceSnapshot`]s — each `shards[]` entry is bit-for-bit
//! what that shard core writes on its own, and restores through that core's
//! own version gate and validations — plus the router's own state: the
//! coordinator round counter, the placement strategy's cursor, the
//! **handle-forwarding table** (old handle → live handle, one entry per
//! migration not yet retired by its tenant leaving), the **rebalancer
//! configuration** and the **journal sequence number** the snapshot covers.
//! Restoring the envelope therefore reproduces not only every shard's
//! allocations but also where the next tenant lands, which old handles still
//! route, what the next `Rebalance` pass plans, and — under a write-ahead
//! journal (`oef-journal`) — exactly which commands remain to replay:
//! restart equivalence across a migration straddling the snapshot boundary.
//!
//! `--restore`, the wire `Restore` command and journal checkpoints all read
//! this envelope and nothing else: a document whose `version` is not
//! [`FEDERATED_SNAPSHOT_VERSION`] — a bare shard snapshot included — is
//! refused by one structured error naming the version found and the one
//! supported.

use oef_rebalance::RebalancerConfig;
use serde::{Deserialize, Serialize};

/// Version stamp of the federated envelope.
pub const FEDERATED_SNAPSHOT_VERSION: u32 = 5;

/// Serialized state of the placement strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementState {
    /// Strategy wire name (see `placement_from_name`).
    pub strategy: String,
    /// Opaque strategy cursor (0 for stateless strategies).
    pub cursor: u64,
}

/// One handle-forwarding edge: a handle retired by a migration and the
/// handle that replaced it (itself possibly retired by a later migration —
/// lookups chase the chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardingEntry {
    /// The retired handle a client may still hold.
    pub from: u64,
    /// The handle it forwards to.
    pub to: u64,
}

/// The serialized form of a `ShardCoordinator`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedSnapshot {
    /// Envelope version ([`FEDERATED_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Coordinator rounds completed at the moment of the snapshot.
    pub round: usize,
    /// Last journal sequence number this snapshot covers (0 when no journal
    /// is configured): replay starts at `journal_seq + 1`.
    pub journal_seq: u64,
    /// Placement strategy and its cursor.
    pub placement: PlacementState,
    /// Handle-forwarding table, sorted by `from` for a canonical encoding.
    pub forwarding: Vec<ForwardingEntry>,
    /// Rebalancer configuration (policy, threshold, move cap, load weights).
    pub rebalancer: RebalancerConfig,
    /// One v2 snapshot object per shard, in shard-index order.  Kept as raw
    /// JSON values so each entry round-trips through the unsharded restore
    /// path (and its full validation) unchanged.
    pub shards: Vec<serde::Value>,
}

/// The encode-side twin of [`FederatedSnapshot`]: the same fields under the
/// same names in the same order, with every shard entry a view borrowing
/// that shard's live state — so a coordinator writes the whole envelope into
/// one buffer without cloning, or re-parsing, any shard.
#[derive(Debug, Serialize)]
pub(crate) struct FederatedSnapshotRef<'a> {
    pub version: u32,
    pub round: usize,
    pub journal_seq: u64,
    pub placement: PlacementState,
    pub forwarding: Vec<ForwardingEntry>,
    pub rebalancer: &'a RebalancerConfig,
    pub shards: Vec<oef_service::ServiceSnapshotRef<'a>>,
}

/// The decode-side counterpart: a v5 envelope minus its `shards`, which a
/// restoring coordinator reads in place from the parsed document rather than
/// copying out of it.
#[derive(Debug, Deserialize)]
pub(crate) struct FederatedSnapshotHeader {
    pub round: usize,
    pub journal_seq: u64,
    pub placement: PlacementState,
    pub forwarding: Vec<ForwardingEntry>,
    pub rebalancer: RebalancerConfig,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardCoordinator;
    use oef_cluster::ClusterTopology;
    use oef_service::{Command, ServiceConfig, ServiceError};

    /// A one-shard federation after one round, as its envelope and as the
    /// bare shard snapshot inside it.
    fn envelope_and_shard_entry() -> (String, String) {
        let mut coordinator = ShardCoordinator::new(
            vec![ClusterTopology::paper_cluster()],
            ServiceConfig::default(),
            crate::placement_from_name("least-loaded").unwrap(),
        )
        .unwrap();
        coordinator.apply(
            Command::TenantJoin {
                name: "alice".into(),
                weight: 1,
                speedup: vec![1.0, 1.2, 1.4],
            },
            0,
        );
        coordinator.apply(Command::Tick, 0);
        (
            coordinator.snapshot_json().unwrap(),
            coordinator.shards()[0].snapshot_json().unwrap(),
        )
    }

    #[test]
    fn envelope_round_trips_through_json() {
        let (json, _) = envelope_and_shard_entry();
        let mut envelope: FederatedSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(envelope.version, FEDERATED_SNAPSHOT_VERSION);
        assert_eq!(envelope.round, 1);
        assert_eq!(envelope.shards.len(), 1);
        envelope.forwarding.push(ForwardingEntry {
            from: (1u64 << 56) | 1,
            to: 2,
        });
        let json = serde_json::to_string(&envelope).unwrap();
        let back: FederatedSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, envelope);
    }

    #[test]
    fn corrupt_v2_input_is_refused() {
        let (envelope, entry) = envelope_and_shard_entry();
        assert!(
            envelope.contains(&entry),
            "fixtures must hit the shard entry"
        );
        // A shard entry is a v2 `ServiceSnapshot` and restores through the
        // shard core's own gate: a gutted entry and a v1 entry are refused
        // there, naming the shard, instead of being laundered into a
        // federation by the v5 shell around them.
        let v1 = entry.replacen("\"version\":2", "\"version\":1", 1);
        for corrupt in ["{\"version\":2}", v1.as_str()] {
            let err = ShardCoordinator::from_federated_json(&envelope.replace(&entry, corrupt))
                .unwrap_err();
            let ServiceError::BadSnapshot(reason) = err else {
                panic!("expected BadSnapshot, got {err:?}");
            };
            assert!(reason.starts_with("shard 0: "), "{reason}");
        }
        assert!(matches!(
            ShardCoordinator::from_federated_json("not json").unwrap_err(),
            ServiceError::BadSnapshot(_)
        ));
    }
}
