//! Generational slot-map with stable `u64` handles and dense iteration.
//!
//! Online middleware hands out references to internal objects (tenants,
//! hosts) that outlive arbitrary add/remove churn.  Two forces pull the data
//! layout in opposite directions: external callers want *stable* identities
//! that never renumber and never alias a later object, while the allocation
//! machinery (speedup matrices, rounding deviations, placement free-lists)
//! wants *dense* indices `0..n` with no holes.  [`HandleMap`] owns that
//! translation once, for any element type:
//!
//! * Handles are `u64`s packing a slot index and a per-slot generation.  A
//!   removed slot is recycled only with a bumped generation, so a stale
//!   handle can never resurrect and point at a newer occupant — lookups on it
//!   return `None` forever.
//! * Values live in a dense vector in insertion-compacted order; removal
//!   shifts later values down by one (mirroring `Vec::remove`), so dense
//!   indices stay hole-free for the numeric kernels.
//! * `handle -> dense index` and `dense index -> handle` are both O(1).
//!
//! The map serializes its *complete* identity state — slot generations and
//! the free-list order, not just the live entries — so a snapshot/restore
//! boundary preserves both stale-handle rejection and the exact handle
//! sequence future inserts will produce (restart equivalence).

use serde::{Deserialize, Serialize};

/// Sentinel for "no slot" in the free list.
const NIL: u32 = u32::MAX;

/// Generations wrap at this width so the top [`crate::sharded::SHARD_BITS`]
/// bits of every handle stay zero — reserved for a federation tier's shard
/// index (see [`crate::sharded`]).  24 bits still means a single slot must be
/// freed and recycled ~16.7M times before a stale handle could resurrect.
const GENERATION_MASK: u32 = (1 << crate::sharded::GENERATION_BITS) - 1;

/// One identity slot: its current generation plus either the dense index of
/// its live value (occupied) or the next slot in the free list (vacant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    generation: u32,
    /// Dense index when occupied; next free slot (or [`NIL`]) when vacant.
    index: u32,
    occupied: bool,
}

/// A slot-map: stable generational `u64` handles over densely stored values.
///
/// ```
/// use oef_core::HandleMap;
///
/// let mut map = HandleMap::new();
/// let a = map.insert("alpha");
/// let b = map.insert("beta");
/// assert_eq!((map.index_of(a), map.index_of(b)), (Some(0), Some(1)));
///
/// // Removal compacts the dense range but never renumbers handles.
/// assert_eq!(map.remove(a), Some("alpha"));
/// assert_eq!(map.index_of(b), Some(0));
///
/// // The freed slot is recycled under a new generation: the stale handle
/// // stays dead instead of aliasing the newcomer.
/// let c = map.insert("gamma");
/// assert_ne!(c, a);
/// assert_eq!(map.get(a), None);
/// assert_eq!(map.get(c), Some(&"gamma"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandleMap<T> {
    slots: Vec<Slot>,
    /// Head of the vacant-slot free list (LIFO), or [`NIL`].
    free_head: u32,
    /// Handle of each dense entry, in dense order.
    handles: Vec<u64>,
    /// Values in dense order, parallel to `handles`.
    values: Vec<T>,
}

impl<T> Default for HandleMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HandleMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free_head: NIL,
            handles: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Packs a slot index and generation into a wire handle.  Slot indices
    /// are offset by one so that `0` is never a valid handle — a convenient
    /// "null" for wire protocols — and so a fresh map hands out 1, 2, 3, …
    fn encode(slot: u32, generation: u32) -> u64 {
        (u64::from(generation) << 32) | u64::from(slot + 1)
    }

    /// Unpacks a handle into `(slot, generation)`; `None` for handle 0 or a
    /// slot index beyond any ever allocated.
    fn decode(&self, handle: u64) -> Option<(u32, u32)> {
        let low = (handle & 0xffff_ffff) as u32;
        if low == 0 {
            return None;
        }
        let slot = low - 1;
        if (slot as usize) >= self.slots.len() {
            return None;
        }
        Some((slot, (handle >> 32) as u32))
    }

    /// Resolves a handle to its slot index, if the handle is live.
    fn live_slot(&self, handle: u64) -> Option<u32> {
        let (slot, generation) = self.decode(handle)?;
        let s = &self.slots[slot as usize];
        (s.occupied && s.generation == generation).then_some(slot)
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Inserts a value at the next dense index and returns its stable handle.
    ///
    /// Vacant slots are recycled most-recently-freed first; each recycling
    /// bumps the slot's generation so the returned handle never equals any
    /// previously issued handle.
    pub fn insert(&mut self, value: T) -> u64 {
        let dense = self.values.len() as u32;
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            let s = &mut self.slots[slot as usize];
            self.free_head = s.index;
            s.index = dense;
            s.occupied = true;
            slot
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                index: dense,
                occupied: true,
            });
            slot
        };
        let handle = Self::encode(slot, self.slots[slot as usize].generation);
        self.handles.push(handle);
        self.values.push(value);
        handle
    }

    /// Removes a live handle, returning its value.  Later dense entries shift
    /// down by one (mirroring `Vec::remove` on the value vector); the freed
    /// slot's generation is bumped so the handle can never resurrect.
    pub fn remove(&mut self, handle: u64) -> Option<T> {
        let slot = self.live_slot(handle)?;
        let dense = self.slots[slot as usize].index as usize;
        let s = &mut self.slots[slot as usize];
        s.generation = (s.generation + 1) & GENERATION_MASK;
        s.occupied = false;
        s.index = self.free_head;
        self.free_head = slot;

        self.handles.remove(dense);
        let value = self.values.remove(dense);
        // Re-point the slots of every shifted entry at its new dense index.
        for (i, &h) in self.handles.iter().enumerate().skip(dense) {
            let (moved_slot, _) = self.decode(h).expect("live handle decodes");
            self.slots[moved_slot as usize].index = i as u32;
        }
        Some(value)
    }

    /// Whether a handle is live.
    pub fn contains(&self, handle: u64) -> bool {
        self.live_slot(handle).is_some()
    }

    /// Value behind a live handle.
    pub fn get(&self, handle: u64) -> Option<&T> {
        let slot = self.live_slot(handle)?;
        Some(&self.values[self.slots[slot as usize].index as usize])
    }

    /// Mutable value behind a live handle.
    pub fn get_mut(&mut self, handle: u64) -> Option<&mut T> {
        let slot = self.live_slot(handle)?;
        Some(&mut self.values[self.slots[slot as usize].index as usize])
    }

    /// Dense index of a live handle.
    pub fn index_of(&self, handle: u64) -> Option<usize> {
        let slot = self.live_slot(handle)?;
        Some(self.slots[slot as usize].index as usize)
    }

    /// Handle stored at a dense index.
    pub fn handle_at(&self, index: usize) -> Option<u64> {
        self.handles.get(index).copied()
    }

    /// Handles in dense order.
    pub fn handles(&self) -> &[u64] {
        &self.handles
    }

    /// Values in dense order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable values in dense order.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// `(handle, &value)` pairs in dense order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.handles.iter().copied().zip(self.values.iter())
    }
}

impl<T: Serialize> Serialize for HandleMap<T> {
    fn serialize(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "slots".to_string(),
                serde::Value::Array(
                    self.slots
                        .iter()
                        .map(|s| {
                            serde::Value::Array(vec![
                                s.generation.serialize(),
                                s.index.serialize(),
                                s.occupied.serialize(),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("free_head".to_string(), self.free_head.serialize()),
            ("handles".to_string(), self.handles.serialize()),
            ("values".to_string(), self.values.serialize()),
        ])
    }

    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        out.push_str("{\"slots\":[");
        for (i, s) in self.slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            (s.generation, s.index, s.occupied).write_json(out)?;
        }
        out.push_str("],\"free_head\":");
        self.free_head.write_json(out)?;
        out.push_str(",\"handles\":");
        self.handles.write_json(out)?;
        out.push_str(",\"values\":");
        self.values.write_json(out)?;
        out.push('}');
        Ok(())
    }
}

impl<T: Deserialize> Deserialize for HandleMap<T> {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("handle map: expected object"))?;
        let raw_slots = serde::get_field(fields, "slots")?
            .as_array()
            .ok_or_else(|| serde::Error::custom("handle map: `slots` must be an array"))?;
        let mut slots = Vec::with_capacity(raw_slots.len());
        for raw in raw_slots {
            let triple = <(u32, u32, bool)>::deserialize(raw)
                .map_err(|e| serde::Error::custom(format!("handle map slot: {e}")))?;
            slots.push(Slot {
                generation: triple.0,
                index: triple.1,
                occupied: triple.2,
            });
        }
        let free_head = u32::deserialize(serde::get_field(fields, "free_head")?)?;
        let handles = Vec::<u64>::deserialize(serde::get_field(fields, "handles")?)?;
        let values = Vec::<T>::deserialize(serde::get_field(fields, "values")?)?;
        let map = Self {
            slots,
            free_head,
            handles,
            values,
        };
        map.validate().map_err(serde::Error::custom)?;
        Ok(map)
    }
}

impl<T> HandleMap<T> {
    /// Checks the structural invariants of a deserialized map: every dense
    /// handle must resolve to a matching occupied slot (no dead or stale
    /// handles, no duplicates), every vacant slot must sit on the free list
    /// exactly once, and the occupied/dense populations must agree.  Rejecting
    /// here keeps a corrupted snapshot from arming panics — or silent handle
    /// aliasing — after a restore.
    fn validate(&self) -> Result<(), String> {
        if self.handles.len() != self.values.len() {
            return Err(format!(
                "handle map: {} handles but {} values",
                self.handles.len(),
                self.values.len()
            ));
        }
        // Generations beyond the 24-bit width would spill into the handle
        // bits reserved for a shard index, so a map carrying one could mint
        // handles that collide across shards.
        for (i, s) in self.slots.iter().enumerate() {
            if s.generation > GENERATION_MASK {
                return Err(format!(
                    "handle map: slot {i} generation {} exceeds the {}-bit width",
                    s.generation,
                    crate::sharded::GENERATION_BITS
                ));
            }
        }
        for (i, &handle) in self.handles.iter().enumerate() {
            let Some((slot, generation)) = self.decode(handle) else {
                return Err(format!("handle map: handle {handle} decodes to no slot"));
            };
            let s = &self.slots[slot as usize];
            if !s.occupied || s.generation != generation {
                return Err(format!(
                    "handle map: handle {handle} references a dead slot \
                     (generation {} vs live {})",
                    generation, s.generation
                ));
            }
            if s.index as usize != i {
                return Err(format!(
                    "handle map: handle {handle} at dense index {i} but its slot points at {}",
                    s.index
                ));
            }
        }
        let occupied = self.slots.iter().filter(|s| s.occupied).count();
        if occupied != self.handles.len() {
            return Err(format!(
                "handle map: {occupied} occupied slots but {} dense entries",
                self.handles.len()
            ));
        }
        // Walk the free list: every vacant slot must appear exactly once, so
        // post-restore inserts recycle slots exactly as the original process
        // would have.
        let mut seen = vec![false; self.slots.len()];
        let mut cursor = self.free_head;
        let mut visited = 0usize;
        while cursor != NIL {
            let Some(s) = self.slots.get(cursor as usize) else {
                return Err(format!("handle map: free list points at slot {cursor}"));
            };
            if s.occupied {
                return Err(format!(
                    "handle map: occupied slot {cursor} on the free list"
                ));
            }
            if seen[cursor as usize] {
                return Err(format!(
                    "handle map: free list cycles through slot {cursor}"
                ));
            }
            seen[cursor as usize] = true;
            visited += 1;
            cursor = s.index;
        }
        let vacant = self.slots.len() - occupied;
        if visited != vacant {
            return Err(format!(
                "handle map: {vacant} vacant slots but free list holds {visited}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_yields_small_sequential_handles() {
        let mut map = HandleMap::new();
        assert!(map.is_empty());
        let a = map.insert(10);
        let b = map.insert(20);
        let c = map.insert(30);
        assert_eq!((a, b, c), (1, 2, 3), "fresh maps hand out 1, 2, 3, …");
        assert_eq!(map.len(), 3);
        assert_eq!(map.values(), &[10, 20, 30]);
        assert_eq!(map.handles(), &[1, 2, 3]);
        assert_eq!(map.get(b), Some(&20));
        assert_eq!(map.index_of(c), Some(2));
        assert_eq!(map.handle_at(0), Some(a));
    }

    #[test]
    fn remove_compacts_dense_but_keeps_handles() {
        let mut map = HandleMap::new();
        let handles: Vec<u64> = (0..4).map(|v| map.insert(v * 100)).collect();
        assert_eq!(map.remove(handles[1]), Some(100));
        assert_eq!(map.len(), 3);
        assert_eq!(map.values(), &[0, 200, 300]);
        assert_eq!(map.index_of(handles[0]), Some(0));
        assert_eq!(map.index_of(handles[2]), Some(1));
        assert_eq!(map.index_of(handles[3]), Some(2));
        assert_eq!(map.remove(handles[1]), None, "second removal is a no-op");
    }

    #[test]
    fn stale_handles_never_alias_recycled_slots() {
        let mut map = HandleMap::new();
        let a = map.insert("a");
        let b = map.insert("b");
        map.remove(a).unwrap();
        let c = map.insert("c");
        assert_ne!(c, a, "recycled slot carries a new generation");
        assert_eq!(map.get(a), None);
        assert!(!map.contains(a));
        assert_eq!(map.index_of(a), None);
        assert_eq!(map.remove(a), None);
        assert_eq!(map.get(c), Some(&"c"));
        assert_eq!(map.get(b), Some(&"b"));
    }

    #[test]
    fn free_list_is_lifo() {
        let mut map = HandleMap::new();
        let handles: Vec<u64> = (0..3).map(|v| map.insert(v)).collect();
        map.remove(handles[0]).unwrap();
        map.remove(handles[2]).unwrap();
        // Slot of handles[2] was freed last, so it is recycled first.
        let d = map.insert(7);
        let e = map.insert(8);
        assert_eq!(d & 0xffff_ffff, handles[2] & 0xffff_ffff);
        assert_eq!(e & 0xffff_ffff, handles[0] & 0xffff_ffff);
        assert_ne!(d, handles[2]);
        assert_ne!(e, handles[0]);
    }

    #[test]
    fn zero_is_never_a_handle() {
        let mut map = HandleMap::new();
        assert!(!map.contains(0));
        let a = map.insert(1);
        assert_ne!(a, 0);
        assert_eq!(map.get(0), None);
    }

    #[test]
    fn serde_round_trip_preserves_identity_state() {
        let mut map = HandleMap::new();
        let handles: Vec<u64> = (0..4).map(|v| map.insert(format!("v{v}"))).collect();
        map.remove(handles[1]).unwrap();
        map.remove(handles[3]).unwrap();
        let json = serde_json::to_string(&map).unwrap();
        let back: HandleMap<String> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, map);
        // Restored maps continue the exact same handle sequence.
        let mut a = map.clone();
        let mut b = back;
        for v in 0..3 {
            assert_eq!(a.insert(format!("n{v}")), b.insert(format!("n{v}")));
        }
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let mut map = HandleMap::new();
        let a = map.insert(5u32);
        let _b = map.insert(6u32);
        let json = serde_json::to_string(&map).unwrap();

        // A dense handle whose generation does not match its slot (a "dead
        // host" reference) must be refused.
        let stale = json.replace(
            &format!("\"handles\":[{a},"),
            &format!("\"handles\":[{},", (1u64 << 32) | a),
        );
        assert_ne!(stale, json, "fixture must corrupt");
        assert!(serde_json::from_str::<HandleMap<u32>>(&stale).is_err());

        // A duplicated handle cannot satisfy the slot back-pointer check.
        let dup = json.replace(
            &format!("\"handles\":[{a},"),
            &format!("\"handles\":[{a},{a},"),
        );
        assert!(serde_json::from_str::<HandleMap<u32>>(&dup).is_err());

        // An occupied count that disagrees with the dense population.
        let truncated = json.replace("\"values\":[5,6]", "\"values\":[5]");
        assert!(serde_json::from_str::<HandleMap<u32>>(&truncated).is_err());
    }
}
