//! The placer as it was before host selection moved to a heap, kept as the reference
//! the production placer is checked against: `place_reference` materialises every
//! host's free devices and rescans all hosts for every take; `round_shares_reference`
//! sorts every tenant of every GPU type.  The property tests below assert that the
//! production code returns the same plans and the same counts.

use super::*;
use crate::host::Host;
use crate::job::Job;
use oef_core::SpeedupVector;
use proptest::prelude::*;

impl RoundingPlacer {
    fn round_shares_reference(
        &mut self,
        ideal: &Allocation,
        capacities: &[usize],
        min_demand: &[usize],
    ) -> Vec<Vec<usize>> {
        let n = ideal.num_users();
        let k = ideal.num_gpu_types();
        self.ensure_capacity(n, k);

        let mut counts = vec![vec![0usize; k]; n];
        for j in 0..k {
            let mut granted = 0usize;
            let mut order: Vec<usize> = (0..n).collect();
            let targets: Vec<f64> = (0..n)
                .map(|l| (ideal.share(l, j) + self.deviation[l][j]).max(0.0))
                .collect();
            order.sort_by(|a, b| {
                targets[*b]
                    .partial_cmp(&targets[*a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for &l in &order {
                let want = targets[l].round() as usize;
                let available = capacities[j].saturating_sub(granted);
                let grant = want.min(available);
                counts[l][j] = grant;
                granted += grant;
            }
        }

        for l in 0..n {
            let total: usize = counts[l].iter().sum();
            if min_demand[l] > 0 && total > 0 && total < min_demand[l] {
                for j in 0..k {
                    counts[l][j] = 0;
                }
            }
        }

        for l in 0..n {
            for j in 0..k {
                self.deviation[l][j] += ideal.share(l, j) - counts[l][j] as f64;
            }
        }

        counts
    }
}

impl DevicePlacer {
    fn place_reference(
        &self,
        topology: &ClusterTopology,
        counts: &[Vec<usize>],
        tenants: &[Tenant],
    ) -> PlacementPlan {
        let k = topology.num_gpu_types();
        let mut free: Vec<Vec<GpuDevice>> = topology
            .hosts()
            .iter()
            .map(|host| host.devices().collect())
            .collect();

        let mut plan = PlacementPlan::default();

        for tenant in tenants {
            if tenant.id >= counts.len() {
                continue;
            }
            let mut budget: Vec<usize> = counts[tenant.id].clone();
            budget.resize(k, 0);
            let total_budget: usize = budget.iter().sum();
            if total_budget == 0 {
                continue;
            }

            let mut jobs = tenant.runnable_jobs();
            if self.prioritize_large_jobs {
                jobs.sort_by(|a, b| {
                    b.workers.cmp(&a.workers).then(
                        b.starvation_time
                            .partial_cmp(&a.starvation_time)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                });
            }

            for job in jobs {
                let remaining_budget: usize = budget.iter().sum();
                if remaining_budget == 0 {
                    break;
                }
                let workers = job.workers.min(remaining_budget);
                if workers == 0 {
                    continue;
                }
                let devices =
                    self.place_one_job_reference(&mut free, &mut budget, workers, topology);
                if !devices.is_empty() {
                    plan.placements.push(JobPlacement {
                        job: job.id,
                        tenant: tenant.id,
                        devices,
                    });
                }
            }
        }

        plan
    }

    fn place_one_job_reference(
        &self,
        free: &mut [Vec<GpuDevice>],
        budget: &mut [usize],
        workers: usize,
        topology: &ClusterTopology,
    ) -> Vec<GpuDevice> {
        let k = budget.len();
        let mut type_order: Vec<usize> = (0..k).filter(|j| budget[*j] > 0).collect();
        type_order.sort_by(|a, b| b.cmp(a));

        if self.avoid_cross_type {
            for &j in &type_order {
                if budget[j] >= workers {
                    let picked = take_from_type_linear(free, topology, GpuType(j), workers);
                    if picked.len() == workers {
                        budget[j] -= workers;
                        return picked;
                    }
                    put_back_linear(free, topology, picked);
                }
            }
        }

        let mut picked = Vec::new();
        for &j in &type_order {
            if picked.len() >= workers {
                break;
            }
            let need = (workers - picked.len()).min(budget[j]);
            if need == 0 {
                continue;
            }
            let got = take_from_type_linear(free, topology, GpuType(j), need);
            budget[j] -= got.len();
            picked.extend(got);
        }
        picked
    }
}

/// Takes up to `count` free devices of `gpu_type`, scanning every host for the one
/// with the most free devices of that type before each take.
fn take_from_type_linear(
    free: &mut [Vec<GpuDevice>],
    topology: &ClusterTopology,
    gpu_type: GpuType,
    count: usize,
) -> Vec<GpuDevice> {
    let mut taken = Vec::new();
    while taken.len() < count {
        let best_host = topology
            .hosts()
            .iter()
            .enumerate()
            .filter(|(_, h)| h.gpu_type == gpu_type)
            .map(|(i, _)| (i, free[i].len()))
            .filter(|(_, n)| *n > 0)
            .max_by_key(|(_, n)| *n);
        let Some((host_index, _)) = best_host else {
            break;
        };
        let take_here = (count - taken.len()).min(free[host_index].len());
        for _ in 0..take_here {
            taken.push(free[host_index].pop().expect("checked non-empty"));
        }
    }
    taken
}

fn put_back_linear(
    free: &mut [Vec<GpuDevice>],
    topology: &ClusterTopology,
    devices: Vec<GpuDevice>,
) {
    for d in devices {
        let index = topology
            .host_index(d.id.host)
            .expect("taken device's host is live");
        free[index].push(d);
    }
}

const GPU_TYPES: usize = 3;

/// `(selector, pick, gpus)`: selectors 0–1 add a host of type `pick % 3` with `gpus`
/// devices, 2–3 remove the live host at dense index `pick % hosts` (refused when it
/// is the last of its type).
type HostOp = (u8, usize, usize);

/// `(workers, starvation step, state selector)`; steps repeat so starvation ties —
/// the sort's id tie-break — are common.
type JobSpec = (usize, u8, u8);

fn topology_from(initial_hosts: &[usize], ops: &[HostOp]) -> ClusterTopology {
    let hosts = initial_hosts
        .iter()
        .enumerate()
        .map(|(i, &gpus)| Host::new(GpuType(i % GPU_TYPES), gpus))
        .collect();
    let names = (0..GPU_TYPES).map(|t| format!("type{t}")).collect();
    let mut topology = ClusterTopology::new(hosts, names);
    for &(selector, pick, gpus) in ops {
        if selector < 2 {
            topology.add_host(GpuType(pick % GPU_TYPES), gpus).unwrap();
        } else {
            let handle = topology.hosts()[pick % topology.hosts().len()].handle;
            let _ = topology.remove_host(handle);
        }
    }
    topology
}

fn tenants_from(specs: &[Vec<JobSpec>]) -> Vec<Tenant> {
    let speedup = SpeedupVector::new(vec![1.0, 1.5, 2.0]).unwrap();
    let mut next_id = 0u64;
    specs
        .iter()
        .enumerate()
        .map(|(t, jobs)| {
            let mut tenant = Tenant::new(t, format!("t{t}"), speedup.clone());
            for &(workers, starvation, state) in jobs {
                let mut job = Job::new(
                    JobId(next_id),
                    t,
                    "model",
                    workers,
                    speedup.clone(),
                    1e9,
                    0.0,
                );
                next_id += 1;
                job.starvation_time = 300.0 * f64::from(starvation);
                job.state = match state {
                    0 => JobState::Pending,
                    1 => JobState::Finished,
                    _ => JobState::Runnable,
                };
                tenant.add_job(job);
            }
            tenant
        })
        .collect()
}

/// Cuts `wanted` down, tenant by tenant, until no GPU type is over capacity.
fn within_capacity(wanted: &[Vec<usize>], topology: &ClusterTopology) -> Vec<Vec<usize>> {
    let mut left = topology.capacities();
    wanted
        .iter()
        .map(|row| {
            row.iter()
                .zip(&mut left)
                .map(|(&want, left)| {
                    let grant = want.min(*left);
                    *left -= grant;
                    grant
                })
                .collect()
        })
        .collect()
}

/// A placement without its slots: the job, the tenant, and each device's host and
/// GPU type.
type SlotlessPlacement = (JobId, usize, Vec<(HostHandle, GpuType)>);

/// A plan reduced to what must match even when devices were put back.
fn hosts_and_types(plan: &PlacementPlan) -> Vec<SlotlessPlacement> {
    plan.placements
        .iter()
        .map(|p| {
            let devices = p.devices.iter().map(|d| (d.id.host, d.gpu_type)).collect();
            (p.job, p.tenant, devices)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn place_matches_the_linear_scan_reference(
        initial_hosts in collection::vec(1usize..=8, 3..=9),
        ops in collection::vec((0u8..4, 0usize..64, 1usize..=8), 0..24),
        jobs in collection::vec(collection::vec((1usize..=6, 0u8..3, 0u8..8), 0..7), 1..12),
        wanted in collection::vec(collection::vec(0usize..=7, GPU_TYPES), 12),
    ) {
        let topology = topology_from(&initial_hosts, &ops);
        let tenants = tenants_from(&jobs);

        let counts = within_capacity(&wanted, &topology);
        for placer in [DevicePlacer::new(), DevicePlacer::naive()] {
            let plan = placer.place(&topology, &counts, &tenants);
            let reference = placer.place_reference(&topology, &counts, &tenants);
            prop_assert_eq!(&plan, &reference, "within capacity, {placer:?}");
            for placement in &plan.placements {
                let mut hosts: Vec<HostHandle> =
                    placement.devices.iter().map(|d| d.id.host).collect();
                hosts.sort_unstable();
                hosts.dedup();
                prop_assert_eq!(placement.num_hosts(), hosts.len());
            }
        }

        // Over-committed grants reach the put-back path, after which the reference
        // hands a host's slots out in a permuted order: hosts and types must match.
        for placer in [DevicePlacer::new(), DevicePlacer::naive()] {
            let plan = placer.place(&topology, &wanted, &tenants);
            let reference = placer.place_reference(&topology, &wanted, &tenants);
            prop_assert_eq!(
                hosts_and_types(&plan),
                hosts_and_types(&reference),
                "over-committed, {placer:?}"
            );
        }
    }

    #[test]
    fn round_shares_matches_the_sort_everything_reference(
        capacities in collection::vec(1usize..=12, GPU_TYPES),
        min_demand in collection::vec(0usize..=4, 8),
        // Quarter-device steps: equal targets — the sort's tenant-index
        // tie-break — are common.
        rounds in collection::vec(
            collection::vec(collection::vec(0u8..12, GPU_TYPES), 8),
            50,
        ),
    ) {
        let mut placer = RoundingPlacer::new(0, 0);
        let mut reference = placer.clone();
        let mut scratch = PlacerScratch::default();
        for quarters in &rounds {
            let ideal = Allocation::new(
                quarters
                    .iter()
                    .map(|row| row.iter().map(|&q| 0.25 * f64::from(q)).collect())
                    .collect(),
            )
            .unwrap();
            let expected = reference.round_shares_reference(&ideal, &capacities, &min_demand);
            // The reused scratch and the one-shot wrapper are the same rounding.
            let counts = placer.clone().round_shares(&ideal, &capacities, &min_demand);
            placer.round_shares_into(&ideal, &capacities, &min_demand, &mut scratch);
            prop_assert_eq!(&counts, &expected);
            for (l, row) in expected.iter().enumerate() {
                prop_assert_eq!(scratch.counts(l), row.as_slice());
            }
            prop_assert_eq!(&placer, &reference, "deviation tables diverged");
        }
    }
}
