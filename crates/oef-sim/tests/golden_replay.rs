//! Golden replay of the round step: a fixed 500-tenant / 192-host scenario is
//! stepped 300 times and everything the step produces is folded into one
//! digest that must equal the constant computed on the commit *before* the
//! placer moved to heap-ordered host selection and the engine to a single job
//! pass — bit for bit, not to a tolerance.  A change to the placer or the
//! engine that moves one device, one rounding decision or one float operand
//! order shows here.
//!
//! The scenario is `steady_large`'s mix (20 re-profiles and one submitted job a
//! round, jobs that never finish) plus what that workload never does: jobs that
//! finish, jobs that arrive later, jobs wider than a host, tenants whose
//! smallest job exceeds their share, one cheater, one departure, one tenant
//! removed (indices compact), one host removed and one added mid-run.
//!
//! Two policies drive it.  Non-cooperative OEF is the production path; its
//! allocations keep every tenant on adjacent GPU types, so cross-type
//! placements are rare.  The proportional stub hands every tenant a sliver of
//! every type, which forces the cross-type fallback, the straggler model and
//! the min-demand cutoff on most placements — and does not depend on the LP,
//! so a solver change that picks another optimal vertex leaves it alone.

use oef_cluster::{
    ClusterState, ClusterTopology, GpuType, Job, JobId, JobState, StragglerStats, Tenant,
};
use oef_core::{
    Allocation, AllocationPolicy, ClusterSpec, NonCooperativeOef, Result, SpeedupMatrix,
    SpeedupVector,
};
use oef_sim::{RoundRecord, SimulationConfig, SimulationEngine};

const TENANTS: usize = 500;
const HOSTS_PER_TYPE: usize = 64;
const STEPS: usize = 300;

/// Digest of the non-cooperative OEF run, computed on commit 04b8f12.
const GOLDEN_NONCOOP: u64 = 0x89f1_d6dd_8c3f_ddf0;
/// Digest of the proportional-stub run, computed on commit 04b8f12.
const GOLDEN_PROPORTIONAL: u64 = 0x8edf_37d6_9bac_b171;

/// `x[l][j] = capacity_j * w_lj / sum_l w_lj`: every tenant holds a fraction
/// of every GPU type, weighted by what it reports.
struct Proportional;

impl AllocationPolicy for Proportional {
    fn name(&self) -> &str {
        "proportional"
    }

    fn allocate(&self, cluster: &ClusterSpec, speedups: &SpeedupMatrix) -> Result<Allocation> {
        let n = speedups.num_users();
        let k = speedups.num_gpu_types();
        let totals: Vec<f64> = (0..k)
            .map(|j| (0..n).map(|l| speedups.speedup(l, j)).sum())
            .collect();
        Allocation::new(
            (0..n)
                .map(|l| {
                    (0..k)
                        .map(|j| cluster.capacity(j) * speedups.speedup(l, j) / totals[j])
                        .collect()
                })
                .collect(),
        )
    }
}

/// SplitMix64: the scenario's only randomness, so the test needs no crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn profile(&mut self) -> Vec<f64> {
        let mid = 1.05 + 0.85 * self.unit();
        let fast = mid * (1.05 + 0.65 * self.unit());
        vec![1.0, mid, fast]
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn record(&mut self, record: &RoundRecord) {
        self.word(record.round as u64);
        self.float(record.time_secs);
        self.word(record.tenants.len() as u64);
        for t in &record.tenants {
            self.word(t.tenant as u64);
            self.float(t.estimated_throughput);
            self.float(t.actual_throughput);
            self.word(t.devices_held as u64);
            for share in &t.gpu_shares {
                self.float(*share);
            }
        }
    }
}

fn job(tenant: usize, workers: usize, speedup: &SpeedupVector, work: f64, arrival: f64) -> Job {
    Job::new(
        JobId(0),
        tenant,
        "model",
        workers,
        speedup.clone(),
        work,
        arrival,
    )
}

fn initial_state(rng: &mut Rng) -> (ClusterState, Vec<Vec<f64>>) {
    let topology = ClusterTopology::uniform(
        vec!["slow".into(), "mid".into(), "fast".into()],
        &[HOSTS_PER_TYPE; 3],
        4,
    );
    let mut state = ClusterState::new(topology);
    let mut base = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let profile = rng.profile();
        let speedup = SpeedupVector::new(profile.clone()).unwrap();
        let id = state.add_tenant(Tenant::new(t, format!("t{t}"), speedup.clone()));
        match t % 10 {
            // Smallest job wider than the ~1.5-device share: min-demand cutoff.
            3 => {
                state.submit_job(id, job(id, 4, &speedup, 1e12, 0.0));
            }
            // Wider than a host: spans hosts once the deviation has built up.
            6 => {
                state.submit_job(id, job(id, 6, &speedup, 1e12, 0.0));
                state.submit_job(id, job(id, 1, &speedup, 1e12, 0.0));
            }
            // Short jobs that finish, and one that arrives an hour in.
            8 => {
                state.submit_job(id, job(id, 1, &speedup, 900.0, 0.0));
                state.submit_job(id, job(id, 2, &speedup, 2500.0, 0.0));
                state.submit_job(id, job(id, 1, &speedup, 1e12, 3600.0));
            }
            _ => {
                for _ in 0..2 {
                    let workers = 1 + rng.below(2);
                    state.submit_job(id, job(id, workers, &speedup, 1e12, 0.0));
                }
            }
        }
        base.push(profile);
    }
    (state, base)
}

/// Steps the scenario under `policy`; returns the digest and the straggler counters.
fn replay<P: AllocationPolicy>(policy: &P) -> (u64, StragglerStats) {
    let mut rng = Rng(0x0EF5_1A7E);
    let (state, mut base) = initial_state(&mut rng);
    let mut engine = SimulationEngine::new(state, SimulationConfig::default());
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);

    for step in 0..STEPS {
        let tenants = engine.state().tenants().len();
        for _ in 0..20 {
            let t = rng.below(tenants);
            let mut profile = base[t].clone();
            for s in profile.iter_mut().skip(1) {
                *s *= 1.0 + 0.03 * (2.0 * rng.unit() - 1.0);
            }
            // Re-profiling resets a cheater to honest, as the service's
            // `UpdateSpeedups` does.
            engine
                .state_mut()
                .set_speedup_profile(t, SpeedupVector::new(profile).unwrap())
                .unwrap();
        }
        let t = rng.below(tenants);
        let speedup = engine.state().tenant(t).true_speedup.clone();
        let workers = 1 + rng.below(2);
        let now = engine.now();
        engine
            .state_mut()
            .submit_job(t, job(t, workers, &speedup, 1e12, now));

        match step {
            50 => engine.state_mut().tenant_mut(7).cheat_with_factor(1.5),
            100 => engine.state_mut().tenant_mut(11).departed = true,
            150 => {
                let host = engine.state().topology().hosts()[10].handle;
                engine.state_mut().remove_host(host).unwrap();
            }
            200 => {
                engine.remove_tenant(3).expect("tenant 3 exists");
                base.remove(3);
            }
            220 => {
                engine.state_mut().add_host(GpuType(1), 8).unwrap();
            }
            _ => {}
        }
        // A second cheater keeps cheating: it is re-inflated every round, so
        // the reported/true split is exercised on every step after 50.
        if step >= 50 {
            engine.state_mut().tenant_mut(21).cheat_with_factor(1.3);
        }

        let record = engine.step(policy).unwrap();
        digest.record(&record);
    }

    let stats = engine.straggler_stats();
    digest.word(stats.cross_type_placements);
    digest.word(stats.affected_workers);
    let k = engine.state().topology().num_gpu_types();
    for (l, tenant) in engine.state().tenants().iter().enumerate() {
        let row = engine.rounding().row(l).expect("deviation row per tenant");
        assert_eq!(row.len(), k);
        for dev in row {
            digest.float(*dev);
        }
        for job in &tenant.jobs {
            digest.word(job.id.0);
            digest.float(job.remaining_work);
            digest.float(job.starvation_time);
            digest.word(match job.state {
                JobState::Pending => 0,
                JobState::Runnable => 1,
                JobState::Finished => 2,
            });
        }
    }
    (digest.0, stats)
}

#[test]
fn noncooperative_oef_replay_matches_the_parent_commit() {
    let (digest, _) = replay(&NonCooperativeOef::default());
    assert_eq!(
        digest, GOLDEN_NONCOOP,
        "digest {digest:#018x} differs from the golden constant"
    );
}

#[test]
fn proportional_replay_matches_the_parent_commit() {
    let (digest, stats) = replay(&Proportional);
    assert!(
        stats.cross_type_placements > 1000,
        "the stub is there to force cross-type placements: {stats:?}"
    );
    assert_eq!(
        digest, GOLDEN_PROPORTIONAL,
        "digest {digest:#018x} differs from the golden constant"
    );
}
