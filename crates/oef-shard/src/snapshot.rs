//! Federated (v5) snapshots: per-shard v2 snapshots plus everything the
//! router itself owns.
//!
//! A sharded daemon is N independent schedulers behind one router, so its
//! durable state is exactly N independent v2 [`oef_service::ServiceSnapshot`]s
//! — each shard's snapshot is bit-for-bit what that shard would have written
//! as an unsharded daemon — plus the router's own state: the coordinator
//! round counter, the placement strategy's cursor, the **handle-forwarding
//! table** (old handle → live handle, one entry per migration not yet retired
//! by its tenant leaving) and the **rebalancer configuration**.  Restoring
//! the envelope therefore reproduces not only every shard's allocations but
//! also where the next tenant lands, which old handles still route, and what
//! the next `Rebalance` pass plans — restart equivalence across a migration
//! straddling the snapshot boundary.  Since v5 the envelope also records the
//! **journal sequence number** the snapshot covers, so a write-ahead journal
//! (`oef-journal`) replays exactly the commands the snapshot does not.
//!
//! **Version history.**  v2 is a single-shard [`oef_service::ServiceSnapshot`]
//! (still the format of unsharded daemons); v3 was PR 4's envelope without
//! forwarding or rebalancer state; v4 added those but predates the journal
//! epoch; v5 is this envelope.  `oef-servicectl migrate-snapshot` wraps a v2
//! snapshot into a single-shard v5 envelope ([`wrap_v2_snapshot`]) and
//! upgrades v3/v4 envelopes in place ([`upgrade_v3_snapshot`],
//! [`upgrade_v4_snapshot`] — missing state starts at its defaults: an empty
//! forwarding table, the default rebalancer, journal sequence 0, which is
//! exactly the state those federations were in).  v1 remains unmigratable and
//! is refused with a structured error.

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

/// Errors wrapping or upgrading snapshots into a v5 envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrateError {
    /// The input was not a valid snapshot of the expected version.
    BadSnapshot(String),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::BadSnapshot(reason) => write!(f, "bad snapshot: {reason}"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// Wraps a v2 service snapshot into a single-shard v5 envelope (shard 0, so
/// every handle in the snapshot keeps its exact wire value).  The forwarding
/// table starts empty — an unsharded daemon never migrated anything — and
/// the rebalancer at its defaults.
///
/// The input is fully validated by the unsharded restore path first — a
/// corrupt v2 snapshot is refused here, not at some later daemon start.
///
/// # Errors
///
/// Fails when the input does not parse, carries the wrong version, or fails
/// any of the v2 restore validations.
pub fn wrap_v2_snapshot(v2_json: &str) -> Result<FederatedSnapshot, MigrateError> {
    let value: serde::Value =
        serde_json::from_str(v2_json).map_err(|e| MigrateError::BadSnapshot(e.to_string()))?;
    // Full validation: identity maps, topology invariants, policy name.
    oef_service::SchedulerService::from_snapshot_value(&value)
        .map_err(|e| MigrateError::BadSnapshot(e.to_string()))?;
    let round = value
        .get("round")
        .and_then(serde::Value::as_u64)
        .ok_or_else(|| MigrateError::BadSnapshot("no numeric `round` field".to_string()))?;
    Ok(FederatedSnapshot {
        version: FEDERATED_SNAPSHOT_VERSION,
        round: round as usize,
        journal_seq: 0,
        placement: PlacementState {
            strategy: "least-loaded".to_string(),
            cursor: 0,
        },
        forwarding: Vec::new(),
        rebalancer: RebalancerConfig::default(),
        shards: vec![value],
    })
}

/// Upgrades a v3 federated envelope (PR 4's layout: no forwarding table, no
/// rebalancer state) to v5.  A v3 federation never migrated a tenant nor
/// journaled a command, so the faithful upgrade is an empty forwarding table,
/// the default rebalancer configuration and journal sequence 0; round,
/// placement cursor and every per-shard snapshot pass through unchanged
/// (each re-validated through the full v2 restore path).
///
/// # Errors
///
/// Fails when the input does not parse, is not version 3, or any shard entry
/// fails v2 validation.
pub fn upgrade_v3_snapshot(v3_json: &str) -> Result<FederatedSnapshot, MigrateError> {
    let value: serde::Value =
        serde_json::from_str(v3_json).map_err(|e| MigrateError::BadSnapshot(e.to_string()))?;
    match value.get("version").and_then(serde::Value::as_u64) {
        Some(3) => {}
        Some(v) => {
            return Err(MigrateError::BadSnapshot(format!(
                "expected a v3 federated envelope, found version {v}"
            )));
        }
        None => {
            return Err(MigrateError::BadSnapshot(
                "snapshot has no numeric `version` field".to_string(),
            ));
        }
    }
    let round = value
        .get("round")
        .and_then(serde::Value::as_u64)
        .ok_or_else(|| MigrateError::BadSnapshot("no numeric `round` field".to_string()))?;
    let placement = value
        .get("placement")
        .ok_or_else(|| MigrateError::BadSnapshot("no `placement` field".to_string()))
        .and_then(|p| {
            PlacementState::deserialize(p).map_err(|e| MigrateError::BadSnapshot(e.to_string()))
        })?;
    let shards = value
        .get("shards")
        .and_then(serde::Value::as_array)
        .ok_or_else(|| MigrateError::BadSnapshot("no `shards` array".to_string()))?;
    if shards.is_empty() {
        return Err(MigrateError::BadSnapshot(
            "v3 envelope holds no shards".to_string(),
        ));
    }
    for (i, entry) in shards.iter().enumerate() {
        oef_service::SchedulerService::from_snapshot_value(entry)
            .map_err(|e| MigrateError::BadSnapshot(format!("shard {i}: {e}")))?;
    }
    Ok(FederatedSnapshot {
        version: FEDERATED_SNAPSHOT_VERSION,
        round: round as usize,
        journal_seq: 0,
        placement,
        forwarding: Vec::new(),
        rebalancer: RebalancerConfig::default(),
        shards: shards.to_vec(),
    })
}

/// Upgrades a v4 federated envelope (PR 5's layout: forwarding table and
/// rebalancer state, but no journal sequence) to v5.  A v4 federation never
/// journaled a command, so the faithful upgrade stamps journal sequence 0 —
/// everything else passes through unchanged (each shard re-validated through
/// the full v2 restore path).
///
/// # Errors
///
/// Fails when the input does not parse, is not version 4, or any shard entry
/// fails v2 validation.
pub fn upgrade_v4_snapshot(v4_json: &str) -> Result<FederatedSnapshot, MigrateError> {
    let value: serde::Value =
        serde_json::from_str(v4_json).map_err(|e| MigrateError::BadSnapshot(e.to_string()))?;
    match value.get("version").and_then(serde::Value::as_u64) {
        Some(4) => {}
        Some(v) => {
            return Err(MigrateError::BadSnapshot(format!(
                "expected a v4 federated envelope, found version {v}"
            )));
        }
        None => {
            return Err(MigrateError::BadSnapshot(
                "snapshot has no numeric `version` field".to_string(),
            ));
        }
    }
    let round = value
        .get("round")
        .and_then(serde::Value::as_u64)
        .ok_or_else(|| MigrateError::BadSnapshot("no numeric `round` field".to_string()))?;
    let placement = value
        .get("placement")
        .ok_or_else(|| MigrateError::BadSnapshot("no `placement` field".to_string()))
        .and_then(|p| {
            PlacementState::deserialize(p).map_err(|e| MigrateError::BadSnapshot(e.to_string()))
        })?;
    let forwarding = value
        .get("forwarding")
        .ok_or_else(|| MigrateError::BadSnapshot("no `forwarding` field".to_string()))
        .and_then(|f| {
            Vec::<ForwardingEntry>::deserialize(f)
                .map_err(|e| MigrateError::BadSnapshot(e.to_string()))
        })?;
    let rebalancer = value
        .get("rebalancer")
        .ok_or_else(|| MigrateError::BadSnapshot("no `rebalancer` field".to_string()))
        .and_then(|r| {
            RebalancerConfig::deserialize(r).map_err(|e| MigrateError::BadSnapshot(e.to_string()))
        })?;
    let shards = value
        .get("shards")
        .and_then(serde::Value::as_array)
        .ok_or_else(|| MigrateError::BadSnapshot("no `shards` array".to_string()))?;
    if shards.is_empty() {
        return Err(MigrateError::BadSnapshot(
            "v4 envelope holds no shards".to_string(),
        ));
    }
    for (i, entry) in shards.iter().enumerate() {
        oef_service::SchedulerService::from_snapshot_value(entry)
            .map_err(|e| MigrateError::BadSnapshot(format!("shard {i}: {e}")))?;
    }
    Ok(FederatedSnapshot {
        version: FEDERATED_SNAPSHOT_VERSION,
        round: round as usize,
        journal_seq: 0,
        placement,
        forwarding,
        rebalancer,
        shards: shards.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oef_cluster::ClusterTopology;
    use oef_service::{Command, Response, SchedulerService, ServiceConfig};

    fn v2_snapshot() -> String {
        let mut service =
            SchedulerService::new(ClusterTopology::paper_cluster(), ServiceConfig::default())
                .unwrap();
        service.apply(
            Command::TenantJoin {
                name: "alice".into(),
                weight: 1,
                speedup: vec![1.0, 1.2, 1.4],
            },
            0,
        );
        service.apply(Command::Tick, 0);
        match service.apply(Command::Snapshot, 0) {
            Response::Snapshot { snapshot } => snapshot,
            other => panic!("snapshot failed: {other:?}"),
        }
    }

    /// A v3 envelope as PR 4 wrote it: no forwarding, no rebalancer.
    fn v3_envelope() -> String {
        format!(
            "{{\"version\":3,\"round\":1,\"placement\":{{\"strategy\":\"round-robin\",\
             \"cursor\":5}},\"shards\":[{}]}}",
            v2_snapshot()
        )
    }

    /// A v4 envelope as PR 5 wrote it: forwarding and rebalancer state, but
    /// no journal sequence.
    fn v4_envelope() -> String {
        let rebalancer = serde_json::to_string(&RebalancerConfig::default()).unwrap();
        format!(
            "{{\"version\":4,\"round\":2,\"placement\":{{\"strategy\":\"round-robin\",\
             \"cursor\":7}},\"forwarding\":[{{\"from\":72057594037927937,\"to\":2}}],\
             \"rebalancer\":{rebalancer},\"shards\":[{}]}}",
            v2_snapshot()
        )
    }

    #[test]
    fn envelope_round_trips_through_json() {
        let mut wrapped = wrap_v2_snapshot(&v2_snapshot()).unwrap();
        wrapped.forwarding.push(ForwardingEntry {
            from: (1u64 << 56) | 1,
            to: 2,
        });
        assert_eq!(wrapped.version, FEDERATED_SNAPSHOT_VERSION);
        assert_eq!(wrapped.round, 1);
        assert_eq!(wrapped.shards.len(), 1);
        let json = serde_json::to_string(&wrapped).unwrap();
        let back: FederatedSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, wrapped);
    }

    #[test]
    fn v3_envelopes_upgrade_preserving_round_and_cursor() {
        let upgraded = upgrade_v3_snapshot(&v3_envelope()).unwrap();
        assert_eq!(upgraded.version, FEDERATED_SNAPSHOT_VERSION);
        assert_eq!(upgraded.round, 1);
        assert_eq!(upgraded.placement.strategy, "round-robin");
        assert_eq!(upgraded.placement.cursor, 5);
        assert!(upgraded.forwarding.is_empty(), "v3 never migrated");
        assert_eq!(upgraded.rebalancer, RebalancerConfig::default());
        assert_eq!(upgraded.shards.len(), 1);
    }

    #[test]
    fn v4_envelopes_upgrade_preserving_forwarding_and_rebalancer() {
        let upgraded = upgrade_v4_snapshot(&v4_envelope()).unwrap();
        assert_eq!(upgraded.version, FEDERATED_SNAPSHOT_VERSION);
        assert_eq!(upgraded.round, 2);
        assert_eq!(upgraded.journal_seq, 0, "v4 never journaled");
        assert_eq!(upgraded.placement.cursor, 7);
        assert_eq!(
            upgraded.forwarding,
            vec![ForwardingEntry {
                from: (1u64 << 56) | 1,
                to: 2,
            }],
            "the forwarding table must survive the upgrade verbatim"
        );
        assert_eq!(upgraded.rebalancer, RebalancerConfig::default());
        assert_eq!(upgraded.shards.len(), 1);
    }

    #[test]
    fn v4_upgrade_refuses_wrong_versions_and_corrupt_shards() {
        let err = upgrade_v4_snapshot(&v2_snapshot()).unwrap_err();
        assert!(matches!(err, MigrateError::BadSnapshot(_)));
        let err = upgrade_v4_snapshot(&v3_envelope()).unwrap_err();
        assert!(matches!(err, MigrateError::BadSnapshot(_)));
        let corrupt = v4_envelope().replace("\"version\":2", "\"version\":7");
        assert_ne!(corrupt, v4_envelope(), "fixture must hit the shard entry");
        assert!(matches!(
            upgrade_v4_snapshot(&corrupt).unwrap_err(),
            MigrateError::BadSnapshot(_)
        ));
    }

    #[test]
    fn v3_upgrade_refuses_wrong_versions_and_corrupt_shards() {
        // A v2 snapshot is not a v3 envelope.
        let err = upgrade_v3_snapshot(&v2_snapshot()).unwrap_err();
        assert!(matches!(err, MigrateError::BadSnapshot(_)));
        // A corrupt shard entry fails the per-shard v2 validation.
        let corrupt = v3_envelope().replace("\"version\":2", "\"version\":7");
        assert!(matches!(
            upgrade_v3_snapshot(&corrupt).unwrap_err(),
            MigrateError::BadSnapshot(_)
        ));
    }

    #[test]
    fn corrupt_v2_input_is_refused() {
        let err = wrap_v2_snapshot("{\"version\":2}").unwrap_err();
        assert!(matches!(err, MigrateError::BadSnapshot(_)));
        let err = wrap_v2_snapshot("not json").unwrap_err();
        assert!(matches!(err, MigrateError::BadSnapshot(_)));
        // v1 snapshots stay dead: the wrapper refuses them the same way the
        // unsharded daemon does, instead of laundering them into a v5 shell.
        let v1 = v2_snapshot().replace("\"version\":2", "\"version\":1");
        assert!(matches!(
            wrap_v2_snapshot(&v1).unwrap_err(),
            MigrateError::BadSnapshot(_)
        ));
    }
}
