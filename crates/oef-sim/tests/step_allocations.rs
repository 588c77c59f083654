//! Allocation guard for the round step: a warm `SimulationEngine::step` at 500
//! tenants allocates a fixed handful of vectors outside the policy's solve —
//! none per tenant, none per placement, none per resident job.  Counted, not
//! timed, so it is deterministic; this file holds a single test so no other
//! test's allocations can land on the counting thread.
//!
//! Before the placer moved to reused scratch the same step made 6 562
//! allocations (a device list per host, a job list and a budget per tenant, a
//! type list per job, speedup and share rows per tenant) and 8 830 with the
//! longer queue; today it makes 9 either way.

use oef_cluster::{ClusterState, ClusterTopology, Job, JobId, Tenant};
use oef_core::{Allocation, AllocationPolicy, ClusterSpec, Result, SpeedupMatrix, SpeedupVector};
use oef_sim::{SimulationConfig, SimulationEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const TENANTS: usize = 500;
/// What a warm step may allocate outside the policy call: the record's tenant
/// list, the estimated-throughput and capacity vectors, the cluster spec's
/// names — and slack for a few more of that kind, but not for one per tenant.
const STEP_ALLOCATION_BUDGET: u64 = 64;

thread_local! {
    /// Allocations made by this thread.  `const`-initialised and without a
    /// destructor, so touching it from inside the allocator allocates nothing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The part of `ALLOCATIONS` made inside `StoredAllocation::allocate`.
    static INSIDE_POLICY: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump that
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's obligations are passed on as they were given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's obligations are passed on as they were given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A policy that solves nothing: it hands back a copy of a stored allocation and
/// books the copy's allocations as its own.
struct StoredAllocation(Allocation);

impl AllocationPolicy for StoredAllocation {
    fn name(&self) -> &str {
        "stored"
    }

    fn allocate(&self, _cluster: &ClusterSpec, _speedups: &SpeedupMatrix) -> Result<Allocation> {
        let before = ALLOCATIONS.with(Cell::get);
        let allocation = self.0.clone();
        let made = ALLOCATIONS.with(Cell::get) - before;
        INSIDE_POLICY.with(|count| count.set(count.get() + made));
        Ok(allocation)
    }
}

/// 500 tenants on 3 x 64 hosts x 4 GPUs, each with two jobs it can run and
/// `queued` more that its share never reaches.
fn engine_with_queue(queued: usize) -> SimulationEngine {
    let topology = ClusterTopology::uniform(
        vec!["slow".into(), "mid".into(), "fast".into()],
        &[64, 64, 64],
        4,
    );
    let mut state = ClusterState::new(topology);
    for t in 0..TENANTS {
        let spread = (t % 7) as f64 * 0.1;
        let speedup = SpeedupVector::new(vec![1.0, 1.2 + spread, 1.5 + 2.0 * spread]).unwrap();
        let id = state.add_tenant(Tenant::new(t, format!("t{t}"), speedup.clone()));
        for j in 0..2 + queued {
            let workers = 1 + (t + j) % 2;
            let job = Job::new(JobId(0), id, "model", workers, speedup.clone(), 1e12, 0.0);
            state.submit_job(id, job);
        }
    }
    SimulationEngine::new(state, SimulationConfig::default())
}

/// A sliver of every GPU type for every tenant (about 1.5 devices each), so
/// placements span types and the straggler pricing runs too.
fn stored_policy() -> StoredAllocation {
    let share = 256.0 / TENANTS as f64;
    StoredAllocation(Allocation::new(vec![vec![share; 3]; TENANTS]).unwrap())
}

/// Allocations one warm step makes outside the policy call.
fn warm_step_allocations(engine: &mut SimulationEngine, policy: &StoredAllocation) -> u64 {
    for _ in 0..8 {
        engine.step(policy).unwrap();
    }
    let (total, inside) = (ALLOCATIONS.with(Cell::get), INSIDE_POLICY.with(Cell::get));
    let record = engine.step(policy).unwrap();
    let total = ALLOCATIONS.with(Cell::get) - total;
    let inside = INSIDE_POLICY.with(Cell::get) - inside;
    assert_eq!(record.tenants.len(), TENANTS);
    assert!(
        record.tenants.iter().filter(|t| t.devices_held > 0).count() > TENANTS / 2,
        "the measured step must place devices for most tenants"
    );
    assert!(inside >= TENANTS as u64, "the policy's copy is counted");
    total - inside
}

#[test]
fn warm_step_allocates_a_constant_handful_whatever_the_queue() {
    let policy = stored_policy();
    let short_queue = warm_step_allocations(&mut engine_with_queue(0), &policy);
    let long_queue = warm_step_allocations(&mut engine_with_queue(20), &policy);
    assert!(
        short_queue <= STEP_ALLOCATION_BUDGET,
        "a warm step made {short_queue} allocations outside the policy call"
    );
    assert_eq!(
        long_queue, short_queue,
        "ten times the resident jobs must not cost one more allocation"
    );
}
