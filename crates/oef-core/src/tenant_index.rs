//! Stable tenant handles over a dense, re-indexed tenant population.
//!
//! Batch experiments identify tenants by their position in a fixed vector, but
//! an online scheduler faces churn: tenants join and leave at arbitrary times,
//! while the allocation machinery (speedup matrices, allocation rows, the
//! rounding placer) wants *dense* indices `0..n` with no holes.  This map owns
//! that translation: external callers hold opaque `u64` handles that stay
//! valid for a tenant's whole lifetime, while the dense index of a tenant
//! shifts down whenever an earlier tenant is removed — exactly matching
//! `Vec::remove` compaction on the underlying tenant vector.
//!
//! The map is a thin veneer over the generational [`HandleMap`]: handles pack
//! a slot and a generation, so a departed tenant's handle is dead forever —
//! it can never alias a tenant that later recycles the slot — and no external
//! monotone counter needs to be carried through snapshots.

use crate::handle_map::HandleMap;
use serde::{Deserialize, Serialize};

/// Bidirectional map between stable `u64` tenant handles and dense indices.
///
/// ```
/// use oef_core::TenantIndexMap;
///
/// let mut map = TenantIndexMap::new();
/// let a = map.insert();
/// let b = map.insert();
/// let c = map.insert();
/// assert_eq!((map.index_of(a), map.index_of(b), map.index_of(c)),
///            (Some(0), Some(1), Some(2)));
///
/// // Removing b compacts the dense range: c shifts down, handles survive.
/// assert_eq!(map.remove(b), Some(1));
/// assert_eq!(map.index_of(c), Some(1));
/// assert_eq!(map.index_of(a), Some(0));
///
/// // A newcomer reusing b's slot gets a fresh handle; b stays dead.
/// let d = map.insert();
/// assert_ne!(d, b);
/// assert_eq!(map.index_of(b), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantIndexMap {
    map: HandleMap<()>,
}

impl TenantIndexMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live tenants.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Registers a tenant at the next dense index and returns its freshly
    /// minted stable handle (never 0, never a previously issued handle).
    pub fn insert(&mut self) -> u64 {
        self.map.insert(())
    }

    /// Dense index of a handle, if live.
    pub fn index_of(&self, handle: u64) -> Option<usize> {
        self.map.index_of(handle)
    }

    /// Whether a handle is live.
    pub fn contains(&self, handle: u64) -> bool {
        self.map.contains(handle)
    }

    /// Handle stored at a dense index.
    pub fn handle_at(&self, index: usize) -> Option<u64> {
        self.map.handle_at(index)
    }

    /// Handles in dense-index order (for snapshotting and reporting).
    pub fn handles(&self) -> &[u64] {
        self.map.handles()
    }

    /// Removes a handle, returning the dense index it occupied.  Every tenant
    /// with a larger dense index shifts down by one, mirroring `Vec::remove`
    /// on the parallel tenant vector.  The handle is dead afterwards: it
    /// never resolves again, even if its slot is recycled.
    pub fn remove(&mut self, handle: u64) -> Option<usize> {
        let index = self.map.index_of(handle)?;
        self.map.remove(handle);
        Some(index)
    }
}

impl Serialize for TenantIndexMap {
    fn serialize(&self) -> serde::Value {
        self.map.serialize()
    }

    fn write_json(&self, out: &mut String) -> std::result::Result<(), serde::Error> {
        self.map.write_json(out)
    }
}

impl Deserialize for TenantIndexMap {
    fn deserialize(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Ok(Self {
            map: HandleMap::deserialize(value)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_assigns_dense_indices_and_sequential_handles() {
        let mut map = TenantIndexMap::new();
        assert!(map.is_empty());
        let a = map.insert();
        let b = map.insert();
        assert_eq!((a, b), (1, 2), "fresh maps hand out 1, 2, …");
        assert_eq!(map.len(), 2);
        assert_eq!(map.index_of(b), Some(1));
        assert_eq!(map.handle_at(0), Some(a));
        assert_eq!(map.index_of(999), None);
        assert!(!map.contains(0), "0 is the null handle");
    }

    #[test]
    fn remove_compacts_later_indices() {
        let mut map = TenantIndexMap::new();
        let handles: Vec<u64> = (0..4).map(|_| map.insert()).collect();
        assert_eq!(map.remove(handles[1]), Some(1));
        assert_eq!(map.index_of(handles[0]), Some(0));
        assert_eq!(map.index_of(handles[2]), Some(1));
        assert_eq!(map.index_of(handles[3]), Some(2));
        assert_eq!(map.remove(handles[1]), None, "second removal is a no-op");
        assert_eq!(map.handles(), &[handles[0], handles[2], handles[3]]);
    }

    #[test]
    fn departed_handles_never_alias_newcomers() {
        let mut map = TenantIndexMap::new();
        let a = map.insert();
        let _b = map.insert();
        map.remove(a).unwrap();
        let c = map.insert();
        assert_ne!(c, a, "slot reuse must bump the generation");
        assert_eq!(map.index_of(a), None, "stale handle stays dead");
        assert_eq!(map.index_of(c), Some(1));
    }

    #[test]
    fn serde_round_trip_preserves_order_and_future_handles() {
        let mut map = TenantIndexMap::new();
        let handles: Vec<u64> = (0..3).map(|_| map.insert()).collect();
        map.remove(handles[0]).unwrap();
        let json = serde_json::to_string(&map).unwrap();
        let mut back: TenantIndexMap = serde_json::from_str(&json).unwrap();
        assert_eq!(back, map);
        let mut original = map;
        assert_eq!(
            back.insert(),
            original.insert(),
            "restored maps continue the identical handle sequence"
        );
    }

    #[test]
    fn corrupted_index_maps_are_rejected_on_restore() {
        let mut map = TenantIndexMap::new();
        let a = map.insert();
        map.insert();
        let json = serde_json::to_string(&map).unwrap();
        // A stale-generation handle in the dense list must be refused.
        let stale = json.replace(
            &format!("\"handles\":[{a},"),
            &format!("\"handles\":[{},", (7u64 << 32) | a),
        );
        assert_ne!(stale, json, "fixture must actually corrupt");
        assert!(serde_json::from_str::<TenantIndexMap>(&stale).is_err());
    }
}
