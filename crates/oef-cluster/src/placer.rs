//! The OEF placer (§4.3): rounding fractional fair shares to whole devices and mapping
//! them onto hosts.
//!
//! Two pieces live here:
//!
//! 1. [`RoundingPlacer`] converts the fractional per-tenant GPU shares produced by a
//!    fair-share evaluator into integer device counts.  It tracks a cumulative
//!    deviation per `(tenant, GPU type)` so that tenants who were rounded down catch up
//!    in later rounds (`real = round(ideal + dev)`, `dev += ideal − real`), and it
//!    zeroes shares that are too small to run any of the tenant's jobs (the min-demand
//!    cutoff) so those tenants accumulate deviation instead of receiving useless
//!    slivers.
//! 2. [`DevicePlacer`] maps integer device counts to concrete devices on hosts,
//!    giving placement priority to jobs with more workers and packing each job onto as
//!    few hosts as possible to limit network contention.
//!
//! A round costs O(tenants + hosts + devices placed · log hosts) and, through
//! [`PlacerScratch`], allocates nothing per tenant or per job.  Every device of a
//! host is free at the start of a round, so a host is a *count* of free devices, and
//! the hosts of each GPU type sit in a max-heap keyed `(free devices, dense host
//! index)`: "the host with the most free devices, the last one among equals" is the
//! heap's top, and taking from it is one pop and at most one push.  A tenant's
//! runnable jobs are ordered by one sort on `(workers desc, starvation desc, id asc)`
//! in a reused buffer, and the devices of the job being placed are handed to a
//! visitor ([`DevicePlacer::place_each`]) from a reused buffer too —
//! [`DevicePlacer::place`] is that visitor collecting a [`PlacementPlan`].

use crate::gpu::{DeviceId, GpuDevice, GpuType, HostHandle};
use crate::host::ClusterTopology;
use crate::job::{JobId, JobState};
use crate::tenant::Tenant;
use oef_core::Allocation;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

#[cfg(test)]
mod reference;

/// Working memory of one placement round, reused across rounds by a long-running
/// caller (the simulation engine) so that neither rounding nor placement allocates
/// once the buffers have grown to the cluster's size.
///
/// [`RoundingPlacer::round_shares_into`] leaves the round's whole-device grants in
/// it; [`DevicePlacer::place_each`] reads them from it.
#[derive(Debug, Clone, Default)]
pub struct PlacerScratch {
    /// Whole devices granted this round, row-major: `counts[l * k + j]`.
    counts: Vec<usize>,
    /// Row width of `counts`.
    num_gpu_types: usize,
    /// `(target, tenant)` of the entries of one GPU type that can round to ≥ 1.
    rounding_order: Vec<(f64, usize)>,
    /// Devices per GPU type the current tenant may still place.
    budget: Vec<usize>,
    /// The current tenant's runnable jobs in placement order.
    job_order: Vec<JobKey>,
    /// The cluster's free devices.
    free: FreeDevices,
}

/// What a tenant's runnable jobs are ordered by, copied out of the job so the sort
/// touches only this buffer.
#[derive(Debug, Clone, Copy)]
struct JobKey {
    workers: usize,
    starvation_time: f64,
    id: JobId,
    /// Position in the tenant's `jobs`.
    position: usize,
}

impl PlacerScratch {
    /// Number of tenants the grants of the last rounding cover.
    pub fn num_tenants(&self) -> usize {
        self.counts
            .len()
            .checked_div(self.num_gpu_types)
            .unwrap_or(0)
    }

    /// Whole devices per GPU type granted to `tenant` by the last rounding (empty
    /// for a tenant the grants do not cover).
    pub fn counts(&self, tenant: usize) -> &[usize] {
        counts_row(&self.counts, self.num_gpu_types, tenant)
    }

    /// Resets the grants to `num_tenants` all-zero rows of `num_gpu_types`.
    fn reset_counts(&mut self, num_tenants: usize, num_gpu_types: usize) {
        self.num_gpu_types = num_gpu_types;
        self.counts.clear();
        self.counts.resize(num_tenants * num_gpu_types, 0);
    }

    /// Loads explicit per-tenant rows as the grants, cut or zero-padded to
    /// `num_gpu_types`.
    fn load_counts(&mut self, rows: &[Vec<usize>], num_gpu_types: usize) {
        self.reset_counts(rows.len(), num_gpu_types);
        for (row, cells) in rows
            .iter()
            .zip(self.counts.chunks_mut(num_gpu_types.max(1)))
        {
            for (cell, count) in cells.iter_mut().zip(row) {
                *cell = *count;
            }
        }
    }
}

/// Row `tenant` of the row-major `counts` (`k` cells a row), empty when out of range.
fn counts_row(counts: &[usize], k: usize, tenant: usize) -> &[usize] {
    counts.get(tenant * k..(tenant + 1) * k).unwrap_or(&[])
}

/// The free devices of the cluster during one placement round.
///
/// Every device is free when the round starts, and devices of one host are
/// interchangeable, so a host is just a count; the hosts of each GPU type that
/// still have free devices sit in a max-heap keyed `(free devices, dense host
/// index)`.
#[derive(Debug, Clone, Default)]
struct FreeDevices {
    by_type: Vec<BinaryHeap<(usize, usize)>>,
    /// `(dense host index, devices taken)` of the last [`Self::take`], in case it
    /// came up short and has to be undone.
    taken: Vec<(usize, usize)>,
    /// Devices picked for the job being placed.
    picked: Vec<GpuDevice>,
}

impl FreeDevices {
    /// Frees every device: each host with devices enters its GPU type's heap
    /// with all of them.
    fn reset(&mut self, topology: &ClusterTopology) {
        let k = topology.num_gpu_types();
        self.by_type.resize_with(k, BinaryHeap::new);
        for heap in &mut self.by_type {
            heap.clear();
        }
        // Highest index first: among hosts of equal size each push is then
        // smaller than everything already in the heap and stays where it lands.
        for (index, host) in topology.hosts().iter().enumerate().rev() {
            if host.num_gpus > 0 && host.gpu_type.index() < k {
                self.by_type[host.gpu_type.index()].push((host.num_gpus, index));
            }
        }
    }

    /// Picks up to `count` free devices of `gpu_type`, always from the host with
    /// the most free devices of that type (best packing; among equals, the one with
    /// the highest dense index).  Returns how many it got.
    fn take(&mut self, topology: &ClusterTopology, gpu_type: usize, count: usize) -> usize {
        self.taken.clear();
        let heap = &mut self.by_type[gpu_type];
        let mut got = 0;
        while got < count {
            let Some((free, index)) = heap.pop() else {
                break;
            };
            let take_here = (count - got).min(free);
            let host = &topology.hosts()[index];
            // Highest free slot first.
            self.picked
                .extend((free - take_here..free).rev().map(|slot| GpuDevice {
                    id: DeviceId {
                        host: host.handle,
                        slot,
                    },
                    gpu_type: host.gpu_type,
                }));
            self.taken.push((index, take_here));
            if free > take_here {
                heap.push((free - take_here, index));
            }
            got += take_here;
        }
        got
    }

    /// Undoes a [`Self::take`] that came up short.  Coming up short means it
    /// emptied every host of the type, so each host it took from goes back into
    /// the (empty) heap with exactly what was taken.
    fn put_back(&mut self, gpu_type: usize) {
        let heap = &mut self.by_type[gpu_type];
        debug_assert!(heap.is_empty(), "a short take drains its GPU type");
        heap.extend(self.taken.iter().map(|&(index, taken)| (taken, index)));
        self.picked.clear();
    }
}

/// Rounds fractional fair shares into integer per-round device counts while staying
/// fair in the long run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundingPlacer {
    /// Cumulative deviation `dev[tenant][gpu_type]` between ideal and granted shares.
    deviation: Vec<Vec<f64>>,
}

impl RoundingPlacer {
    /// Creates a placer for `num_tenants` tenants and `num_gpu_types` GPU types.
    pub fn new(num_tenants: usize, num_gpu_types: usize) -> Self {
        Self {
            deviation: vec![vec![0.0; num_gpu_types]; num_tenants],
        }
    }

    /// Grows the deviation table when tenants join after construction.
    pub fn ensure_capacity(&mut self, num_tenants: usize, num_gpu_types: usize) {
        for row in &mut self.deviation {
            if row.len() < num_gpu_types {
                row.resize(num_gpu_types, 0.0);
            }
        }
        while self.deviation.len() < num_tenants {
            self.deviation.push(vec![0.0; num_gpu_types]);
        }
    }

    /// Current cumulative deviation of a tenant on a GPU type.
    pub fn deviation(&self, tenant: usize, gpu_type: usize) -> f64 {
        self.deviation[tenant][gpu_type]
    }

    /// Drops a tenant's deviation row, shifting later rows down by one —
    /// the placer-side counterpart of `ClusterState::remove_tenant`, keeping
    /// rows aligned with the compacted tenant indices.
    pub fn remove_tenant(&mut self, tenant: usize) {
        if tenant < self.deviation.len() {
            self.deviation.remove(tenant);
        }
    }

    /// A tenant's full deviation row, if the table has grown to cover it.
    /// Cross-shard migration reads this to carry the tenant's rounding debt
    /// to its new shard — without it the target shard would re-round the
    /// same fractional shares to different whole devices.
    pub fn row(&self, tenant: usize) -> Option<&[f64]> {
        self.deviation.get(tenant).map(Vec::as_slice)
    }

    /// Replaces a tenant's deviation row, growing the table as needed (the
    /// install side of a migration).
    pub fn set_row(&mut self, tenant: usize, row: &[f64]) {
        self.ensure_capacity(tenant + 1, row.len());
        self.deviation[tenant].clear();
        self.deviation[tenant].extend_from_slice(row);
    }

    /// Rounds the `ideal` fractional allocation into whole devices.
    ///
    /// * `capacities[j]` — number of physical devices of type `j`.
    /// * `min_demand[l]` — the smallest worker count among tenant `l`'s runnable jobs
    ///   (`0` disables the cutoff for that tenant).
    ///
    /// Returns `counts[l][j]`, the whole number of type-`j` devices granted to tenant
    /// `l` this round.  Deviations are updated so the time-average of `counts`
    /// converges to the time-average of `ideal`.
    pub fn round_shares(
        &mut self,
        ideal: &Allocation,
        capacities: &[usize],
        min_demand: &[usize],
    ) -> Vec<Vec<usize>> {
        let mut scratch = PlacerScratch::default();
        self.round_shares_into(ideal, capacities, min_demand, &mut scratch);
        (0..scratch.num_tenants())
            .map(|l| scratch.counts(l).to_vec())
            .collect()
    }

    /// [`Self::round_shares`] for a caller that rounds every round: the grants land
    /// in `scratch` (read them back with [`PlacerScratch::counts`], or hand the
    /// scratch to [`DevicePlacer::place_each`]) and nothing is allocated once the
    /// scratch has grown to `tenants × GPU types`.
    pub fn round_shares_into(
        &mut self,
        ideal: &Allocation,
        capacities: &[usize],
        min_demand: &[usize],
        scratch: &mut PlacerScratch,
    ) {
        let n = ideal.num_users();
        let k = ideal.num_gpu_types();
        self.ensure_capacity(n, k);
        scratch.reset_counts(n, k);

        // Step 1: per-entry target = ideal + accumulated deviation, rounded to
        // nearest, granted largest target first (ties: lowest tenant index first) so
        // that capacity is respected deterministically.  A target that rounds to
        // zero is granted nothing wherever it stands, so only the others are sorted.
        for j in 0..k {
            let order = &mut scratch.rounding_order;
            order.clear();
            for l in 0..n {
                let target = (ideal.share(l, j) + self.deviation[l][j]).max(0.0);
                if target.round() >= 1.0 {
                    order.push((target, l));
                }
            }
            order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut granted = 0usize;
            for &(target, l) in order.iter() {
                let want = target.round() as usize;
                let available = capacities[j].saturating_sub(granted);
                let grant = want.min(available);
                scratch.counts[l * k + j] = grant;
                granted += grant;
            }
        }

        for l in 0..n {
            let row = &mut scratch.counts[l * k..(l + 1) * k];
            // Step 2: min-demand cutoff — a tenant whose total grant cannot run even
            // its smallest job gives the devices back and accumulates deviation
            // instead.
            let total: usize = row.iter().sum();
            if min_demand[l] > 0 && total > 0 && total < min_demand[l] {
                row.fill(0);
            }
            // Step 3: update deviations with what was actually granted.
            for j in 0..k {
                self.deviation[l][j] += ideal.share(l, j) - row[j] as f64;
            }
        }
    }
}

/// Placement of one job onto concrete devices for one scheduling round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobPlacement {
    /// The placed job.
    pub job: JobId,
    /// Owning tenant.
    pub tenant: usize,
    /// Devices assigned to the job's workers this round.
    pub devices: Vec<GpuDevice>,
}

impl JobPlacement {
    /// GPU types of the assigned devices.
    pub fn gpu_types(&self) -> Vec<GpuType> {
        self.devices.iter().map(|d| d.gpu_type).collect()
    }

    /// Number of distinct hosts the job spans.
    pub fn num_hosts(&self) -> usize {
        distinct_hosts(&self.devices)
    }
}

/// Number of distinct hosts among `devices`, without building a host list: a
/// device opens a new host when it differs from its predecessor's and from every
/// host before that.  The placer emits each host's devices as one run, so the
/// look-back runs once per host spanned, not once per device.
pub fn distinct_hosts(devices: &[GpuDevice]) -> usize {
    let host = |d: &GpuDevice| -> HostHandle { d.id.host };
    (0..devices.len())
        .filter(|&i| {
            i == 0
                || (host(&devices[i]) != host(&devices[i - 1])
                    && devices[..i - 1]
                        .iter()
                        .all(|d| host(d) != host(&devices[i])))
        })
        .count()
}

/// Result of device placement for one round.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// One entry per job that received devices this round.
    pub placements: Vec<JobPlacement>,
}

impl PlacementPlan {
    /// Placements belonging to one tenant.
    pub fn for_tenant(&self, tenant: usize) -> impl Iterator<Item = &JobPlacement> {
        self.placements.iter().filter(move |p| p.tenant == tenant)
    }

    /// Total number of devices handed out.
    pub fn devices_used(&self) -> usize {
        self.placements.iter().map(|p| p.devices.len()).sum()
    }
}

/// Maps per-tenant integer device counts onto hosts, packing jobs to minimise network
/// contention, and optionally preferring single-GPU-type placements to avoid the
/// straggler effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DevicePlacer {
    /// Give placement priority to jobs with more workers (the paper's behaviour).  When
    /// `false`, jobs are placed in starvation order only (ablation).
    pub prioritize_large_jobs: bool,
    /// Prefer keeping each job on a single GPU type even when that means spanning more
    /// hosts.  OEF's allocations make this almost always possible (Theorem 5.2).
    pub avoid_cross_type: bool,
}

impl Default for DevicePlacer {
    fn default() -> Self {
        Self {
            prioritize_large_jobs: true,
            avoid_cross_type: true,
        }
    }
}

impl DevicePlacer {
    /// Creates the default (paper) placer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A naive placer used as an ablation baseline: no large-job priority, no
    /// cross-type avoidance.
    pub fn naive() -> Self {
        Self {
            prioritize_large_jobs: false,
            avoid_cross_type: false,
        }
    }

    /// Assigns devices to jobs.
    ///
    /// * `counts[l][j]` — whole devices of type `j` granted to tenant `l` this round.
    /// * `tenants` — tenant states; runnable jobs are considered in placement order.
    ///
    /// Jobs are greedily packed onto the host with the most free devices of the chosen
    /// GPU type; a job only spans hosts (or GPU types, if `avoid_cross_type` is off or
    /// unavoidable) when it cannot fit otherwise.
    pub fn place(
        &self,
        topology: &ClusterTopology,
        counts: &[Vec<usize>],
        tenants: &[Tenant],
    ) -> PlacementPlan {
        let mut scratch = PlacerScratch::default();
        scratch.load_counts(counts, topology.num_gpu_types());
        let mut plan = PlacementPlan::default();
        self.place_each(
            topology,
            tenants,
            &mut scratch,
            |tenant, position, devices| {
                plan.placements.push(JobPlacement {
                    job: tenant.jobs[position].id,
                    tenant: tenant.id,
                    devices: devices.to_vec(),
                });
            },
        );
        plan
    }

    /// [`Self::place`] for a caller that places every round: the grants are the ones
    /// [`RoundingPlacer::round_shares_into`] left in `scratch`, and each job that
    /// receives devices is handed to `placed` as `(tenant, position of the job in
    /// tenant.jobs, devices)` — in the order, and with the devices, `place` would
    /// list it.  The device slice is only valid during the call.
    pub fn place_each(
        &self,
        topology: &ClusterTopology,
        tenants: &[Tenant],
        scratch: &mut PlacerScratch,
        mut placed: impl FnMut(&Tenant, usize, &[GpuDevice]),
    ) {
        let k = topology.num_gpu_types();
        scratch.free.reset(topology);

        for tenant in tenants {
            // Budget of devices per type for this tenant.
            scratch.budget.clear();
            scratch.budget.extend_from_slice(counts_row(
                &scratch.counts,
                scratch.num_gpu_types,
                tenant.id,
            ));
            scratch.budget.resize(k, 0);
            let mut remaining_budget: usize = scratch.budget.iter().sum();
            if remaining_budget == 0 {
                continue;
            }

            self.order_runnable_jobs(tenant, &mut scratch.job_order);
            for job in &scratch.job_order {
                if remaining_budget == 0 {
                    break;
                }
                let workers = job.workers.min(remaining_budget);
                if workers == 0 {
                    continue;
                }
                self.place_one_job(&mut scratch.free, &mut scratch.budget, workers, topology);
                if !scratch.free.picked.is_empty() {
                    remaining_budget -= scratch.free.picked.len();
                    placed(tenant, job.position, &scratch.free.picked);
                }
            }
        }
    }

    /// Fills `order` with the tenant's runnable jobs in placement order: larger jobs
    /// first (if enabled), then most starved, then lowest id.
    fn order_runnable_jobs(&self, tenant: &Tenant, order: &mut Vec<JobKey>) {
        order.clear();
        order.extend(
            tenant
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, job)| matches!(job.state, JobState::Runnable))
                .map(|(position, job)| JobKey {
                    workers: job.workers,
                    starvation_time: job.starvation_time,
                    id: job.id,
                    position,
                }),
        );
        let by_size = self.prioritize_large_jobs;
        // `position` makes the key unique, so the unstable sort is deterministic.
        order.sort_unstable_by(|a, b| {
            let size = if by_size {
                b.workers.cmp(&a.workers)
            } else {
                std::cmp::Ordering::Equal
            };
            size.then(
                b.starvation_time
                    .partial_cmp(&a.starvation_time)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.id.cmp(&b.id))
            .then(a.position.cmp(&b.position))
        });
    }

    /// Picks the devices of a single job of `workers` workers into `free.picked`,
    /// preferring a single type and a single host.  Consumes from `budget`.
    fn place_one_job(
        &self,
        free: &mut FreeDevices,
        budget: &mut [usize],
        workers: usize,
        topology: &ClusterTopology,
    ) {
        free.picked.clear();
        // Candidate GPU types run fastest-first so jobs land on the best GPUs the
        // tenant owns this round.
        let fastest_first = (0..budget.len()).rev();

        // First choice: a single type with enough budget, on as few hosts as possible.
        if self.avoid_cross_type {
            for j in fastest_first.clone() {
                if budget[j] >= workers {
                    if free.take(topology, j, workers) == workers {
                        budget[j] -= workers;
                        return;
                    }
                    // Not enough physical devices of that type remain free; put the
                    // partially taken devices back and fall through.
                    free.put_back(j);
                }
            }
        }

        // Fallback: take devices type by type (fastest first) until the worker count is
        // met — this is the cross-type case that triggers the straggler effect.
        for j in fastest_first {
            let need = (workers - free.picked.len()).min(budget[j]);
            if need > 0 {
                budget[j] -= free.take(topology, j, need);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::straggler::StragglerModel;
    use oef_core::SpeedupVector;

    fn sv2() -> SpeedupVector {
        SpeedupVector::new(vec![1.0, 2.0, 3.0]).unwrap()
    }

    fn tenant_with_jobs(id: usize, worker_counts: &[usize]) -> Tenant {
        let mut t = Tenant::new(id, format!("tenant-{id}"), sv2());
        for (i, &w) in worker_counts.iter().enumerate() {
            t.add_job(Job::new(
                JobId((id as u64) * 100 + i as u64),
                id,
                "vgg16",
                w,
                sv2(),
                1e6,
                0.0,
            ));
        }
        t
    }

    #[test]
    fn rounding_converges_to_ideal_over_time() {
        // Two tenants each ideally own 1.5 of the 3 devices of a single type.
        let ideal = Allocation::new(vec![vec![1.5], vec![1.5]]).unwrap();
        let mut placer = RoundingPlacer::new(2, 1);
        let mut totals = [0usize; 2];
        for _ in 0..10 {
            let counts = placer.round_shares(&ideal, &[3], &[1, 1]);
            assert!(counts[0][0] + counts[1][0] <= 3);
            totals[0] += counts[0][0];
            totals[1] += counts[1][0];
        }
        // Over 10 rounds each tenant should have received ~15 device-rounds.
        assert!(
            (totals[0] as i64 - 15).abs() <= 1,
            "tenant 0 got {totals:?}"
        );
        assert!(
            (totals[1] as i64 - 15).abs() <= 1,
            "tenant 1 got {totals:?}"
        );
    }

    #[test]
    fn min_demand_cutoff_defers_small_grants() {
        // Tenant 0's smallest job needs 4 workers but its ideal share is only 1 device
        // per round: it should receive nothing for a few rounds, then a burst of 4.
        let ideal = Allocation::new(vec![vec![1.0], vec![3.0]]).unwrap();
        let mut placer = RoundingPlacer::new(2, 1);
        let mut burst_seen = false;
        let mut granted_when_starved = 0;
        for _ in 0..8 {
            let counts = placer.round_shares(&ideal, &[4], &[4, 1]);
            if counts[0][0] > 0 {
                assert!(counts[0][0] >= 4, "grant below min demand: {counts:?}");
                burst_seen = true;
            } else {
                granted_when_starved += 1;
            }
        }
        assert!(
            burst_seen,
            "deviation should eventually produce a full-size grant"
        );
        assert!(granted_when_starved >= 2);
    }

    #[test]
    fn rounding_respects_capacity() {
        let ideal = Allocation::new(vec![vec![2.7, 0.0], vec![2.7, 0.0], vec![2.6, 0.0]]).unwrap();
        let mut placer = RoundingPlacer::new(3, 2);
        for _ in 0..20 {
            let counts = placer.round_shares(&ideal, &[8, 8], &[1, 1, 1]);
            let total: usize = counts.iter().map(|c| c[0]).sum();
            assert!(total <= 8, "over capacity: {counts:?}");
        }
    }

    #[test]
    fn ensure_capacity_grows_tables() {
        let mut placer = RoundingPlacer::new(1, 1);
        placer.ensure_capacity(3, 2);
        assert_eq!(placer.deviation(2, 1), 0.0);
    }

    #[test]
    fn placement_packs_multi_worker_job_on_single_host() {
        let topology = ClusterTopology::paper_cluster();
        let tenants = vec![tenant_with_jobs(0, &[4, 1])];
        // Tenant 0 owns 5 of the fastest GPUs this round.
        let counts = vec![vec![0, 0, 5]];
        let plan = DevicePlacer::new().place(&topology, &counts, &tenants);
        assert_eq!(plan.devices_used(), 5);
        // The 4-worker job must land on a single host (each host has exactly 4 GPUs).
        let big = plan
            .placements
            .iter()
            .find(|p| p.devices.len() == 4)
            .expect("4-worker job placed");
        assert_eq!(big.num_hosts(), 1, "multi-worker job should be packed");
        assert!(!StragglerModel::is_cross_type(&big.gpu_types()));
    }

    #[test]
    fn placement_prefers_single_type_to_avoid_stragglers() {
        let topology = ClusterTopology::paper_cluster();
        let tenants = vec![tenant_with_jobs(0, &[2])];
        // Budget spread over two types; the job fits entirely in either.
        let counts = vec![vec![0, 2, 2]];
        let plan = DevicePlacer::new().place(&topology, &counts, &tenants);
        assert_eq!(plan.placements.len(), 1);
        let types = plan.placements[0].gpu_types();
        assert!(
            types.iter().all(|t| *t == types[0]),
            "should not mix GPU types: {types:?}"
        );
        // The fastest type is preferred.
        assert_eq!(types[0], GpuType(2));
    }

    #[test]
    fn naive_placer_can_split_across_types() {
        let topology = ClusterTopology::paper_cluster();
        let tenants = vec![tenant_with_jobs(0, &[4])];
        // Only 2 devices of each of two types: a 4-worker job must span types.
        let counts = vec![vec![0, 2, 2]];
        let plan = DevicePlacer::naive().place(&topology, &counts, &tenants);
        assert_eq!(plan.placements.len(), 1);
        assert_eq!(plan.placements[0].devices.len(), 4);
    }

    #[test]
    fn placement_skips_tenants_without_budget() {
        let topology = ClusterTopology::paper_cluster();
        let tenants = vec![tenant_with_jobs(0, &[1]), tenant_with_jobs(1, &[1])];
        let counts = vec![vec![0, 0, 0], vec![1, 0, 0]];
        let plan = DevicePlacer::new().place(&topology, &counts, &tenants);
        assert!(plan.for_tenant(0).next().is_none());
        assert_eq!(plan.for_tenant(1).count(), 1);
    }

    #[test]
    fn large_job_priority_changes_order() {
        let topology = ClusterTopology::paper_cluster();
        // One tenant with a 1-worker job (very starved) and a 3-worker job (not starved)
        // but only 3 devices of budget: with large-job priority the 3-worker job runs.
        let mut tenant = tenant_with_jobs(0, &[1, 3]);
        tenant.jobs[0].starvation_time = 100.0;
        let counts = vec![vec![3, 0, 0]];
        let plan = DevicePlacer::new().place(&topology, &counts, &[tenant.clone()]);
        let placed_workers: Vec<usize> = plan.placements.iter().map(|p| p.devices.len()).collect();
        assert!(
            placed_workers.contains(&3),
            "large job should be placed first: {placed_workers:?}"
        );

        // The naive placer goes by starvation only, so the 1-worker job is placed first
        // and the remaining 2 devices go to (part of) the big job.
        let plan = DevicePlacer::naive().place(&topology, &counts, &[tenant]);
        assert_eq!(plan.placements[0].devices.len(), 1);
    }
}
