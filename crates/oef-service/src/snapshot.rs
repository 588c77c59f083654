//! Durable snapshot of the full service state.
//!
//! A snapshot captures everything a restarted daemon needs to resume
//! mid-trace: the cluster state (topology, tenants, jobs, progress), the
//! service clock, the stable tenant handles, plus the configuration the
//! state was produced under.  Solver caches are deliberately *not* captured
//! — they are per-process working state, and the first post-restore solve
//! rebuilds them (cold) without changing any allocation.
//!
//! **Versioning.**  The `version` field gates compatibility: a daemon only
//! restores snapshots of its own layout version and refuses others with a
//! structured error (never a panic mid-parse).  v2 (current) stores both
//! identity maps as full generational slot-maps — the host handle map rides
//! inside the topology, the tenant one in `tenant_handles` — including slot
//! generations and free-list order, so a restored daemon rejects exactly the
//! stale handles the original would have and mints exactly the handles the
//! original would have minted.  v1 predates stable host handles (hosts were
//! dense wire indices and tenant handles came from an external counter);
//! there is no faithful migration, so v1 snapshots are rejected.

use crate::service::ServiceConfig;
use oef_cluster::{ClusterState, RoundingPlacer};
use oef_core::TenantIndexMap;
use serde::{Deserialize, Serialize};

/// Layout version stamp embedded in every snapshot; bump on breaking changes.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The serialized form of a [`crate::SchedulerService`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Service configuration (policy, round length, quotas).
    pub config: ServiceConfig,
    /// Service time at the moment of the snapshot, in seconds.
    pub now_secs: f64,
    /// Rounds completed at the moment of the snapshot.
    pub round: usize,
    /// Full cluster state: topology (with the host handle map), tenants,
    /// jobs and their progress.
    pub state: ClusterState,
    /// Cumulative rounding deviations of the placer — without them a restart
    /// would grant different whole devices for the same fractional shares.
    pub rounding: RoundingPlacer,
    /// Stable tenant handle slot-map (generations and free list included, so
    /// handle identity survives the restart byte-for-byte).
    pub tenant_handles: TenantIndexMap,
}

/// The encode-side twin of [`ServiceSnapshot`]: the same fields under the
/// same names in the same order — so the same bytes — borrowed from a running
/// service.  Taking a snapshot therefore clones no state, and a federation
/// can write each shard straight into its envelope's buffer.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServiceSnapshotRef<'a> {
    /// See [`ServiceSnapshot::version`].
    pub version: u32,
    /// See [`ServiceSnapshot::config`].
    pub config: &'a ServiceConfig,
    /// See [`ServiceSnapshot::now_secs`].
    pub now_secs: f64,
    /// See [`ServiceSnapshot::round`].
    pub round: usize,
    /// See [`ServiceSnapshot::state`].
    pub state: &'a ClusterState,
    /// See [`ServiceSnapshot::rounding`].
    pub rounding: &'a RoundingPlacer,
    /// See [`ServiceSnapshot::tenant_handles`].
    pub tenant_handles: &'a TenantIndexMap,
}

#[cfg(test)]
mod tests {
    use super::*;
    use oef_cluster::{ClusterTopology, GpuType, Tenant};
    use oef_core::SpeedupVector;

    #[test]
    fn snapshot_json_round_trips() {
        let mut topology = ClusterTopology::paper_cluster();
        let extra = topology.add_host(GpuType(2), 4).unwrap();
        topology.remove_host(extra).unwrap();
        let mut state = ClusterState::new(topology);
        state.add_tenant(Tenant::new(
            0,
            "alice",
            SpeedupVector::new(vec![1.0, 1.2, 1.4]).unwrap(),
        ));
        let mut handles = TenantIndexMap::new();
        handles.insert();
        let snapshot = ServiceSnapshot {
            version: SNAPSHOT_VERSION,
            config: ServiceConfig::default(),
            now_secs: 1500.0,
            round: 5,
            state,
            rounding: RoundingPlacer::new(1, 3),
            tenant_handles: handles,
        };
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: ServiceSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);

        // The borrowed view is the same document, byte for byte.
        let view = ServiceSnapshotRef {
            version: snapshot.version,
            config: &snapshot.config,
            now_secs: snapshot.now_secs,
            round: snapshot.round,
            state: &snapshot.state,
            rounding: &snapshot.rounding,
            tenant_handles: &snapshot.tenant_handles,
        };
        assert_eq!(serde_json::to_string(&view).unwrap(), json);
    }
}
